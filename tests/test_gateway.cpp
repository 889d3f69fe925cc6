// Gateway suite: framing splitter, bounded ingest queue and its batched
// push, last-report cache, and socket-level acceptance of the ingest
// daemon (acks, backpressure within one write, connection cap, slowloris
// sweep, mid-frame disconnects and violations, UDS, metrics).  The
// socket tests run against a live Gateway on loopback/abstract paths
// with aggressively small limits so every defensive bound is actually
// crossed.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <arpa/inet.h>
#include <netinet/in.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "field/generators.h"
#include "field/zones.h"
#include "gateway/framing.h"
#include "gateway/gateway.h"
#include "gateway/ingest_queue.h"
#include "gateway/last_report_cache.h"
#include "gateway/sinks.h"
#include "hierarchy/localcloud.h"
#include "middleware/broker.h"
#include "middleware/wire.h"
#include "obs/metrics.h"

namespace gw = sensedroid::gateway;
namespace mw = sensedroid::middleware;
namespace sf = sensedroid::field;
namespace sh = sensedroid::hierarchy;
namespace sl = sensedroid::linalg;
namespace sn = sensedroid::sensing;

namespace {

mw::Message record_message(mw::NodeId sender, double value,
                           std::string topic = "sensor/temperature") {
  mw::Message msg;
  msg.topic = std::move(topic);
  msg.sender = sender;
  msg.timestamp = 10.0;
  msg.payload = mw::Record{sender, sn::SensorKind::kTemperature, 10.0, value};
  return msg;
}

// Blocking loopback client for the socket tests.
class Client {
 public:
  static Client tcp(std::uint16_t port) {
    Client c;
    c.fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(c.fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << strerror(errno);
    return c;
  }
  static Client uds(const std::string& path) {
    Client c;
    c.fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(c.fd_, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr)),
              0)
        << strerror(errno);
    return c;
  }
  Client(Client&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void send_bytes(const std::vector<std::uint8_t>& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }
  void send_message(const mw::Message& msg) {
    send_bytes(gw::encode_framed(msg));
  }

  /// Reads exactly `n` status bytes (with a receive timeout); returns
  /// fewer only when the peer closed first.
  std::vector<std::uint8_t> read_acks(std::size_t n,
                                      double timeout_s = 5.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::vector<std::uint8_t> out;
    while (out.size() < n) {
      std::uint8_t buf[256];
      const ssize_t got =
          ::recv(fd_, buf, std::min(sizeof(buf), n - out.size()), 0);
      if (got <= 0) break;  // EOF or timeout
      out.insert(out.end(), buf, buf + got);
    }
    return out;
  }

  /// True when the peer has closed (EOF observed within the timeout).
  bool eof(double timeout_s = 5.0) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t b;
    return ::recv(fd_, &b, 1, 0) == 0;
  }

  /// Sends without asserting; false once the peer has gone.
  bool try_send(const std::vector<std::uint8_t>& bytes) {
    return ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(bytes.size());
  }

  /// True when the peer has gone within the timeout: EOF, or a reset
  /// after a send raced the close.
  bool gone(double timeout_s) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    std::uint8_t b;
    const ssize_t n = ::recv(fd_, &b, 1, 0);
    return n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK);
  }

  void shutdown_write() { ::shutdown(fd_, SHUT_WR); }
  void hard_close() {
    ::close(fd_);
    fd_ = -1;
  }

 private:
  Client() = default;
  int fd_ = -1;
};

// Thread-safe message collector used as the gateway sink.
struct CollectSink {
  std::mutex mu;
  std::vector<mw::Message> msgs;
  gw::Gateway::Sink fn() {
    return [this](const mw::Message& m) {
      std::lock_guard<std::mutex> lock(mu);
      msgs.push_back(m);
    };
  }
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return msgs.size();
  }
  bool wait_for(std::size_t n, double timeout_s = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(timeout_s);
    while (std::chrono::steady_clock::now() < deadline) {
      if (size() >= n) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return size() >= n;
  }
};

// Pushes one message as a one-item batch; returns how many the queue
// took (0 or 1).
std::size_t push_one(gw::IngestQueue& q, mw::Message msg) {
  gw::IngestItem item{std::move(msg), {}};
  return q.push({&item, 1});
}

bool wait_until(const std::function<bool()>& pred, double timeout_s = 5.0) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

}  // namespace

// ------------------------------------------------------------ framing ----

TEST(FrameSplitter, YieldsFramesWholeAndByteAtATime) {
  const auto m1 = record_message(1, 20.0);
  const auto m2 = record_message(2, 21.0);
  std::vector<std::uint8_t> stream = gw::encode_framed(m1);
  const auto f2 = gw::encode_framed(m2);
  stream.insert(stream.end(), f2.begin(), f2.end());

  // Whole stream in one feed.
  gw::FrameSplitter whole;
  whole.feed(stream);
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(whole.next(frame), gw::FrameSplitter::Status::kFrame);
  EXPECT_EQ(mw::decode_message(frame)->sender, 1u);
  ASSERT_EQ(whole.next(frame), gw::FrameSplitter::Status::kFrame);
  EXPECT_EQ(mw::decode_message(frame)->sender, 2u);
  EXPECT_EQ(whole.next(frame), gw::FrameSplitter::Status::kNeedMore);
  EXPECT_FALSE(whole.mid_frame());

  // Worst-case chunking: one byte per feed.
  gw::FrameSplitter dribble;
  std::vector<std::uint32_t> senders;
  for (std::uint8_t b : stream) {
    dribble.feed({&b, 1});
    while (dribble.next(frame) == gw::FrameSplitter::Status::kFrame) {
      senders.push_back(mw::decode_message(frame)->sender);
    }
  }
  EXPECT_EQ(senders, (std::vector<std::uint32_t>{1, 2}));
}

TEST(FrameSplitter, UndersizePrefixIsStickyViolation) {
  gw::FrameSplitter s;
  const std::uint32_t len = mw::kMinFrameBytes - 1;
  std::vector<std::uint8_t> prefix(4);
  std::memcpy(prefix.data(), &len, 4);
  s.feed(prefix);
  std::vector<std::uint8_t> frame;
  EXPECT_EQ(s.next(frame), gw::FrameSplitter::Status::kViolation);
  // Sticky: even after feeding a perfectly valid frame.
  s.feed(gw::encode_framed(record_message(1, 20.0)));
  EXPECT_EQ(s.next(frame), gw::FrameSplitter::Status::kViolation);
}

TEST(FrameSplitter, OversizeClaimRejectedFromPrefixAlone) {
  gw::FrameSplitter s(/*max_frame_bytes=*/256);
  const std::uint32_t len = 257;  // one past the configured ceiling
  std::vector<std::uint8_t> prefix(4);
  std::memcpy(prefix.data(), &len, 4);
  s.feed(prefix);
  std::vector<std::uint8_t> frame;
  // Rejected with only 4 bytes fed: the splitter must never buffer
  // toward a length the peer invented.
  EXPECT_EQ(s.next(frame), gw::FrameSplitter::Status::kViolation);
  EXPECT_EQ(s.buffered(), 4u);
}

TEST(FrameSplitter, ExactCeilingFrameAccepted) {
  // A frame of exactly max_frame_bytes passes; one byte larger violates.
  auto msg = record_message(5, 20.0);
  const auto wire = mw::encode_message(msg);
  gw::FrameSplitter at(wire.size());
  at.feed(gw::frame_prefixed(wire));
  std::vector<std::uint8_t> frame;
  ASSERT_EQ(at.next(frame), gw::FrameSplitter::Status::kFrame);
  EXPECT_EQ(frame, wire);

  gw::FrameSplitter below(wire.size() - 1);
  below.feed(gw::frame_prefixed(wire));
  EXPECT_EQ(below.next(frame), gw::FrameSplitter::Status::kViolation);
}

// -------------------------------------------------------- ingest queue ----

TEST(IngestQueue, BackpressureWhenFull) {
  gw::IngestQueue q(2);
  EXPECT_EQ(push_one(q, record_message(1, 1.0)), 1u);
  EXPECT_EQ(push_one(q, record_message(2, 2.0)), 1u);
  EXPECT_EQ(push_one(q, record_message(3, 3.0)), 0u);  // full: rejected
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.peak_depth(), 2u);

  std::vector<gw::IngestItem> out;
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(10)), 2u);
  EXPECT_EQ(out[0].msg.sender, 1u);
  EXPECT_EQ(out[1].msg.sender, 2u);
  EXPECT_EQ(push_one(q, record_message(4, 4.0)), 1u);  // space again
}

TEST(IngestQueue, CloseDrainsRemainingThenStops) {
  gw::IngestQueue q(4);
  EXPECT_EQ(push_one(q, record_message(1, 1.0)), 1u);
  q.close();
  EXPECT_EQ(push_one(q, record_message(2, 2.0)), 0u);
  std::vector<gw::IngestItem> out;
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(10)), 1u);
  EXPECT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(1)), 0u);
}

TEST(IngestQueue, PushTakesTheLongestPrefixThatFits) {
  const auto batch = [](mw::NodeId first, std::size_t n) {
    std::vector<gw::IngestItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      items.push_back({record_message(first + static_cast<mw::NodeId>(i),
                                      1.0),
                       {}});
    }
    return items;
  };
  // An item the queue did not take still holds its message.
  const auto untouched = [](const gw::IngestItem& item, mw::NodeId sender) {
    return item.msg.sender == sender && item.msg.topic == "sensor/temperature";
  };
  gw::IngestQueue q(5);
  auto shorter = batch(1, 2);  // room 5
  EXPECT_EQ(q.push(shorter), 2u);
  auto equal = batch(3, 3);  // room 3
  EXPECT_EQ(q.push(equal), 3u);
  auto full = batch(6, 1);  // room 0
  EXPECT_EQ(q.push(full), 0u);
  EXPECT_TRUE(untouched(full[0], 6));
  EXPECT_EQ(q.push({}), 0u);

  std::vector<gw::IngestItem> out;
  ASSERT_EQ(q.pop_batch(out, 2, std::chrono::milliseconds(10)), 2u);
  auto longer = batch(10, 4);  // room 2
  EXPECT_EQ(q.push(longer), 2u);
  EXPECT_TRUE(untouched(longer[2], 12));
  EXPECT_TRUE(untouched(longer[3], 13));
  EXPECT_EQ(q.depth(), 5u);
  EXPECT_EQ(q.peak_depth(), 5u);
  EXPECT_LE(q.peak_depth(), q.capacity());

  // Moved items arrive in span order, behind what was queued before.
  ASSERT_EQ(q.pop_batch(out, 10, std::chrono::milliseconds(10)), 5u);
  std::vector<mw::NodeId> senders;
  for (const gw::IngestItem& item : out) senders.push_back(item.msg.sender);
  EXPECT_EQ(senders, (std::vector<mw::NodeId>{1, 2, 3, 4, 5, 10, 11}));

  q.close();
  auto late = batch(20, 3);  // room 5, but closed
  EXPECT_EQ(q.push(late), 0u);
  EXPECT_TRUE(untouched(late[0], 20));
  EXPECT_EQ(q.depth(), 0u);
}

TEST(IngestQueue, ZeroCapacityThrows) {
  EXPECT_THROW(gw::IngestQueue q(0), std::invalid_argument);
}

// --------------------------------------------------- last-report cache ----

TEST(LastReportCache, LatestPerSenderOverwrites) {
  gw::LastReportCache cache(8);
  cache.update(record_message(7, 20.0));
  cache.update(record_message(7, 21.5));
  const auto latest = cache.latest(7);
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(std::get<mw::Record>(latest->payload).value, 21.5);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.updates(), 2u);
  EXPECT_FALSE(cache.latest(8).has_value());
}

TEST(LastReportCache, LruEvictionStaysBounded) {
  gw::LastReportCache cache(3);
  for (mw::NodeId id = 1; id <= 5; ++id) {
    cache.update(record_message(id, static_cast<double>(id)));
  }
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 2u);
  // 1 and 2 were the stalest; 3..5 survive, most recent first.
  EXPECT_FALSE(cache.latest(1).has_value());
  EXPECT_FALSE(cache.latest(2).has_value());
  EXPECT_TRUE(cache.latest(3).has_value());
  EXPECT_EQ(cache.senders(), (std::vector<mw::NodeId>{5, 4, 3}));

  // Touching an old sender protects it from the next eviction.
  cache.update(record_message(3, 30.0));
  cache.update(record_message(6, 6.0));
  EXPECT_TRUE(cache.latest(3).has_value());
  EXPECT_FALSE(cache.latest(4).has_value());
}

// ------------------------------------------------------- socket tests ----

TEST(GatewaySocket, TcpRoundTripAcksAndDelivers) {
  CollectSink sink;
  gw::GatewayConfig cfg;
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  client.send_message(record_message(1, 20.5));
  client.send_message(record_message(2, 21.5, "sensor/humidity"));
  const auto acks = client.read_acks(2);
  ASSERT_EQ(acks.size(), 2u);
  EXPECT_EQ(acks[0], static_cast<std::uint8_t>(gw::IngestStatus::kAck));
  EXPECT_EQ(acks[1], static_cast<std::uint8_t>(gw::IngestStatus::kAck));

  ASSERT_TRUE(sink.wait_for(2));
  EXPECT_EQ(sink.msgs[0].sender, 1u);
  EXPECT_EQ(sink.msgs[1].topic, "sensor/humidity");

  // sensd property: the cache answers "what did 2 last say?".
  const auto latest = g.cache().latest(2);
  ASSERT_TRUE(latest.has_value());
  EXPECT_DOUBLE_EQ(std::get<mw::Record>(latest->payload).value, 21.5);

  g.stop();
  const auto s = g.stats();
  EXPECT_EQ(s.frames, 2u);
  EXPECT_EQ(s.accepted, 2u);
  EXPECT_EQ(s.delivered, 2u);
  EXPECT_EQ(s.busy_rejected, 0u);
  EXPECT_EQ(s.decode_errors, 0u);
  EXPECT_GT(s.bytes_received, 0u);
}

TEST(GatewaySocket, UdsRoundTrip) {
  // Unique per process: the sanitizer twins run this test concurrently.
  const std::string path = ::testing::TempDir() + "gw_test." +
                           std::to_string(::getpid()) + ".sock";
  CollectSink sink;
  gw::GatewayConfig cfg;
  cfg.listen_tcp = false;
  cfg.uds_path = path;
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::uds(path);
  client.send_message(record_message(9, 42.0));
  const auto acks = client.read_acks(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], static_cast<std::uint8_t>(gw::IngestStatus::kAck));
  ASSERT_TRUE(sink.wait_for(1));
  g.stop();
  // The socket file is removed on shutdown.
  EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

TEST(GatewaySocket, BusyBackpressureNeverGrowsQueue) {
  // A deliberately slow sink and a 2-deep queue: the gateway must answer
  // kBusy (not buffer) once the queue is full, and the cache must still
  // learn every decoded frame.
  CollectSink collected;
  gw::GatewayConfig cfg;
  cfg.queue_depth = 2;
  gw::Gateway g(cfg, [&](const mw::Message& m) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    collected.fn()(m);
  });
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  constexpr std::size_t kFrames = 40;
  for (std::size_t i = 0; i < kFrames; ++i) {
    client.send_message(record_message(static_cast<mw::NodeId>(i), 1.0));
  }
  const auto acks = client.read_acks(kFrames);
  ASSERT_EQ(acks.size(), kFrames);
  std::size_t ok = 0;
  std::size_t busy = 0;
  for (std::uint8_t a : acks) {
    if (a == static_cast<std::uint8_t>(gw::IngestStatus::kAck)) ++ok;
    if (a == static_cast<std::uint8_t>(gw::IngestStatus::kBusy)) ++busy;
  }
  EXPECT_EQ(ok + busy, kFrames);
  EXPECT_GT(busy, 0u) << "queue never filled: backpressure untested";

  const auto s = g.stats();
  EXPECT_EQ(s.busy_rejected, busy);
  EXPECT_LE(s.queue_peak_depth, cfg.queue_depth);  // the bounded promise
  // Every frame — accepted or busy — reached the last-report cache.
  EXPECT_EQ(g.cache().size(), kFrames);
  g.stop();
  EXPECT_EQ(g.stats().delivered, ok);  // busy frames were truly shed
}

TEST(GatewaySocket, OneWriteAcksAPrefixThenBusy) {
  // The sink holds every message until `open`, so a 4-deep queue fills
  // and never drains while the 12-frame write is answered.  A priming
  // frame first parks the drain thread inside the sink with the queue
  // empty.
  std::atomic<bool> open{false};
  std::atomic<bool> parked{false};
  CollectSink delivered;
  gw::GatewayConfig cfg;
  cfg.queue_depth = 4;
  gw::Gateway g(cfg, [&](const mw::Message& m) {
    parked.store(true);
    while (!open.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    delivered.fn()(m);
  });
  // Destroyed before the gateway: a failed assertion still lets stop()
  // drain instead of waiting on a parked sink forever.
  struct Opener {
    std::atomic<bool>& flag;
    ~Opener() { flag.store(true); }
  } opener{open};
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  client.send_message(record_message(99, 1.0));
  ASSERT_EQ(client.read_acks(1),
            (std::vector<std::uint8_t>{
                static_cast<std::uint8_t>(gw::IngestStatus::kAck)}));
  ASSERT_TRUE(wait_until([&] { return parked.load(); }));

  constexpr std::size_t kFrames = 12;
  constexpr std::size_t kCorrupt = 2;
  std::vector<std::uint8_t> write;
  for (std::size_t i = 0; i < kFrames; ++i) {
    auto wire =
        mw::encode_message(record_message(static_cast<mw::NodeId>(100 + i),
                                          static_cast<double>(i)));
    if (i == kCorrupt) wire.back() ^= 0xFF;
    const auto framed = gw::frame_prefixed(wire);
    write.insert(write.end(), framed.begin(), framed.end());
  }
  client.send_bytes(write);
  const auto acks = client.read_acks(kFrames);
  ASSERT_EQ(acks.size(), kFrames);

  std::vector<std::uint8_t> expected;
  std::vector<mw::NodeId> acked{99};
  for (std::size_t i = 0; i < kFrames; ++i) {
    gw::IngestStatus st = gw::IngestStatus::kBusy;
    if (i == kCorrupt) {
      st = gw::IngestStatus::kBad;
    } else if (acked.size() <= cfg.queue_depth) {
      st = gw::IngestStatus::kAck;
      acked.push_back(static_cast<mw::NodeId>(100 + i));
    }
    expected.push_back(static_cast<std::uint8_t>(st));
  }
  EXPECT_EQ(acks, expected);

  // Every decodable sender reached the cache, shed or not.
  for (std::size_t i = 0; i < kFrames; ++i) {
    EXPECT_EQ(g.cache().latest(static_cast<mw::NodeId>(100 + i)).has_value(),
              i != kCorrupt)
        << "frame " << i;
  }
  const auto s = g.stats();
  EXPECT_EQ(s.frames, kFrames + 1);
  EXPECT_EQ(s.accepted, acked.size());
  EXPECT_EQ(s.busy_rejected, kFrames - 1 - cfg.queue_depth);
  EXPECT_EQ(s.decode_errors, 1u);
  EXPECT_EQ(s.queue_peak_depth, cfg.queue_depth);

  open.store(true);
  g.stop();
  std::vector<mw::NodeId> senders;
  for (const mw::Message& m : delivered.msgs) senders.push_back(m.sender);
  EXPECT_EQ(senders, acked);
  EXPECT_EQ(g.stats().delivered, acked.size());
}

TEST(GatewaySocket, FramesBeforeAViolationAreDelivered) {
  CollectSink sink;
  gw::Gateway g(gw::GatewayConfig{}, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  std::vector<std::uint8_t> write;
  for (mw::NodeId id = 1; id <= 3; ++id) {
    const auto framed = gw::encode_framed(record_message(id, 20.0));
    write.insert(write.end(), framed.begin(), framed.end());
  }
  const std::uint32_t bogus = 5;  // < kMinFrameBytes
  const auto* prefix = reinterpret_cast<const std::uint8_t*>(&bogus);
  write.insert(write.end(), prefix, prefix + sizeof(bogus));
  client.send_bytes(write);
  // The status bytes owed before the drop reach the peer, then EOF.
  const auto acks = client.read_acks(3);
  ASSERT_EQ(acks.size(), 3u);
  for (const std::uint8_t a : acks) {
    EXPECT_EQ(a, static_cast<std::uint8_t>(gw::IngestStatus::kAck));
  }
  EXPECT_TRUE(client.eof());

  ASSERT_TRUE(sink.wait_for(3));
  g.stop();
  std::vector<mw::NodeId> senders;
  for (const mw::Message& m : sink.msgs) senders.push_back(m.sender);
  EXPECT_EQ(senders, (std::vector<mw::NodeId>{1, 2, 3}));
  const auto s = g.stats();
  EXPECT_EQ(s.framing_violations, 1u);
  EXPECT_EQ(s.accepted, 3u);
  EXPECT_EQ(s.delivered, 3u);
  EXPECT_GE(s.connections_dropped, 1u);
}

TEST(GatewaySocket, BadFrameAckedBadAndConnectionSurvives) {
  CollectSink sink;
  gw::Gateway g(gw::GatewayConfig{}, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  // Corrupt the CRC of an otherwise valid frame, but keep the prefix.
  auto wire = mw::encode_message(record_message(3, 20.0));
  wire.back() ^= 0xFF;
  client.send_bytes(gw::frame_prefixed(wire));
  auto acks = client.read_acks(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], static_cast<std::uint8_t>(gw::IngestStatus::kBad));

  // Same connection still ingests valid traffic.
  client.send_message(record_message(4, 21.0));
  acks = client.read_acks(1);
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0], static_cast<std::uint8_t>(gw::IngestStatus::kAck));
  ASSERT_TRUE(sink.wait_for(1));
  g.stop();
  EXPECT_EQ(g.stats().decode_errors, 1u);
  // The corrupt frame never reached cache or sink.
  EXPECT_FALSE(g.cache().latest(3).has_value());
}

TEST(GatewaySocket, FramingViolationDropsConnection) {
  CollectSink sink;
  gw::Gateway g(gw::GatewayConfig{}, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  const std::uint32_t bogus = 5;  // < kMinFrameBytes
  std::vector<std::uint8_t> prefix(4);
  std::memcpy(prefix.data(), &bogus, 4);
  client.send_bytes(prefix);
  EXPECT_TRUE(client.eof());
  ASSERT_TRUE(wait_until([&] { return g.stats().connections_dropped >= 1; }));
  g.stop();
  EXPECT_EQ(g.stats().framing_violations, 1u);
}

TEST(GatewaySocket, MidFrameDisconnectIsDroppedCleanly) {
  CollectSink sink;
  gw::Gateway g(gw::GatewayConfig{}, sink.fn());
  ASSERT_TRUE(g.start());
  {
    auto client = Client::tcp(g.tcp_port());
    const auto framed = gw::encode_framed(record_message(1, 20.0));
    // Prefix plus half the body, then a hard close.
    std::vector<std::uint8_t> partial(framed.begin(),
                                      framed.begin() + framed.size() / 2);
    client.send_bytes(partial);
    client.hard_close();
  }
  // Wait for the drop itself: active_connections is 0 both before the
  // accept and after the reap, so it cannot order this assertion.
  ASSERT_TRUE(
      wait_until([&] { return g.stats().connections_dropped >= 1; }));
  g.stop();
  const auto s = g.stats();
  EXPECT_EQ(s.frames, 0u);  // the partial frame never surfaced
  EXPECT_EQ(s.delivered, 0u);
  EXPECT_EQ(s.active_connections, 0u);
}

TEST(GatewaySocket, SlowlorisIdleDeadlineSweep) {
  CollectSink sink;
  gw::GatewayConfig cfg;
  cfg.idle_timeout_s = 0.2;
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  // A teasing partial frame, then silence: the sweep must reap us.
  const auto framed = gw::encode_framed(record_message(1, 20.0));
  std::vector<std::uint8_t> tease(framed.begin(), framed.begin() + 6);
  client.send_bytes(tease);
  EXPECT_TRUE(client.eof(5.0));
  g.stop();
  EXPECT_GE(g.stats().connections_dropped, 1u);
}

TEST(GatewaySocket, TrickledFrameDoesNotResetIdleDeadline) {
  CollectSink sink;
  gw::GatewayConfig cfg;
  cfg.idle_timeout_s = 0.3;
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  // One byte of a valid frame every 0.1 s: the frame never completes
  // within the test, so no ack is ever queued and the deadline set at
  // accept must expire — received bytes alone do not hold the slot.
  auto client = Client::tcp(g.tcp_port());
  const auto framed = gw::encode_framed(record_message(1, 20.0));
  ASSERT_GT(framed.size(), 10u);
  const auto t0 = std::chrono::steady_clock::now();
  bool closed = false;
  for (std::size_t i = 0; i < framed.size() && !closed; ++i) {
    if (std::chrono::steady_clock::now() - t0 > std::chrono::seconds(1)) {
      break;
    }
    closed = !client.try_send({framed[i]}) || client.gone(0.1);
  }
  EXPECT_TRUE(closed) << "trickling peer held its slot past 1 s";
  g.stop();
  EXPECT_EQ(g.stats().frames, 0u);
  EXPECT_GE(g.stats().connections_dropped, 1u);
}

TEST(GatewaySocket, ConnectionCapRefusesExtras) {
  CollectSink sink;
  gw::GatewayConfig cfg;
  cfg.max_connections = 2;
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  auto c1 = Client::tcp(g.tcp_port());
  auto c2 = Client::tcp(g.tcp_port());
  // Serialize: both must be accepted before the third knocks.
  c1.send_message(record_message(1, 1.0));
  ASSERT_EQ(c1.read_acks(1).size(), 1u);
  c2.send_message(record_message(2, 2.0));
  ASSERT_EQ(c2.read_acks(1).size(), 1u);

  auto c3 = Client::tcp(g.tcp_port());
  EXPECT_TRUE(c3.eof());  // closed on accept, never served
  g.stop();
  EXPECT_GE(g.stats().connections_dropped, 1u);
  EXPECT_EQ(g.stats().frames, 2u);
}

TEST(GatewaySocket, MetricsReachAttachedRegistry) {
  sensedroid::obs::MetricsRegistry registry;
  sensedroid::obs::attach_registry(&registry);
  CollectSink sink;
  gw::GatewayConfig cfg;
  cfg.idle_timeout_s = 0.2;  // fast publish cadence
  gw::Gateway g(cfg, sink.fn());
  ASSERT_TRUE(g.start());

  auto client = Client::tcp(g.tcp_port());
  client.send_message(record_message(1, 20.0));
  client.send_message(record_message(2, 21.0));
  ASSERT_EQ(client.read_acks(2).size(), 2u);
  ASSERT_TRUE(sink.wait_for(2));
  ASSERT_TRUE(wait_until(
      [&] { return registry.counter_sum("gw.ingest.frames") >= 2.0; }));
  g.stop();

  EXPECT_DOUBLE_EQ(registry.counter_sum("gw.ingest.accepted"), 2.0);
  EXPECT_DOUBLE_EQ(registry.counter_sum("gw.sink.delivered"), 2.0);
  EXPECT_DOUBLE_EQ(registry.gauge_value("gw.cache.size"), 2.0);
  const auto* latency = registry.find_histogram("gw.ingest.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
  sensedroid::obs::attach_registry(nullptr);
}

TEST(GatewaySocket, StartStopIdempotentAndRestartable) {
  CollectSink sink;
  gw::Gateway g(gw::GatewayConfig{}, sink.fn());
  ASSERT_TRUE(g.start());
  EXPECT_TRUE(g.start());  // idempotent while running
  g.stop();
  g.stop();  // idempotent when stopped
  ASSERT_TRUE(g.start());  // restartable
  auto client = Client::tcp(g.tcp_port());
  client.send_message(record_message(1, 20.0));
  EXPECT_EQ(client.read_acks(1).size(), 1u);
  g.stop();
}

TEST(GatewayConfigValidation, RejectsNoListenerAndZeroBounds) {
  gw::GatewayConfig none;
  none.listen_tcp = false;
  EXPECT_THROW(gw::Gateway(none, [](const mw::Message&) {}),
               std::invalid_argument);
  gw::GatewayConfig zero_queue;
  zero_queue.queue_depth = 0;
  EXPECT_THROW(gw::Gateway(zero_queue, [](const mw::Message&) {}),
               std::invalid_argument);
}

// -------------------------------------------------------------- sinks ----

TEST(GatewaySinks, BrokerSinkStoresRecordsAndPublishes) {
  mw::Broker broker(100, {0.0, 0.0});
  std::size_t published = 0;
  broker.bus().subscribe_prefix("sensor/",
                                [&](const mw::Message&) { ++published; });
  auto sink = gw::make_broker_sink(broker);
  sink(record_message(3, 25.0));
  sink(record_message(3, 26.0));

  mw::RecordFilter filter;
  filter.node = 3;
  EXPECT_EQ(broker.store().query(filter).size(), 2u);
  EXPECT_EQ(published, 2u);
}

TEST(GatewaySinks, LocalCloudSinkRoutesByZoneTopic) {
  sl::Rng rng(42);
  auto f = sf::random_plume_field(16, 16, 3, rng, 15.0);
  sf::ZoneGrid grid(16, 16, 2, 2);
  sh::NanoCloudConfig cfg;
  cfg.coverage = 1.0;
  sh::LocalCloud lc(f, grid, cfg, rng);
  ASSERT_EQ(lc.zone_count(), 4u);
  auto sink = gw::make_localcloud_sink(lc);

  sink(record_message(11, 20.0, "zone/2/sensor/temperature"));
  sink(record_message(12, 21.0, "zone/9/sensor/temperature"));  // out of range
  sink(record_message(13, 22.0, "sensor/temperature"));         // no zone

  mw::RecordFilter f11;
  f11.node = 11;
  EXPECT_EQ(lc.nanocloud(2).broker().store().query(f11).size(), 1u);
  // Unroutable topics fall through to zone 0.
  mw::RecordFilter f12;
  f12.node = 12;
  EXPECT_EQ(lc.nanocloud(0).broker().store().query(f12).size(), 1u);
  mw::RecordFilter f13;
  f13.node = 13;
  EXPECT_EQ(lc.nanocloud(0).broker().store().query(f13).size(), 1u);
}
