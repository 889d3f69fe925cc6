#include "obs/flight_recorder.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <unistd.h>

#include "obs/metrics.h"

namespace sensedroid::obs {

namespace fr_detail {
std::atomic<bool> g_armed{false};
}  // namespace fr_detail

namespace {

// One ring per recording thread.  Slots are pairs of relaxed atomics so
// a dumper may read them while the owner thread writes (a torn
// meta/value pair is possible on a wrapped slot mid-dump — acceptable
// for diagnostics, and race-free as far as the language is concerned,
// which is what keeps the TSan twin quiet).  `head` is the count of
// events ever written; only the owner stores it (release, so a dumper's
// acquire load sees the slots the count covers).  `trim` lets reset()
// logically empty a ring without touching the owner's head.
struct Ring {
  explicit Ring(std::size_t capacity)
      : mask(capacity - 1), slots(new Slot[capacity]) {}

  struct Slot {
    std::atomic<std::uint64_t> meta{0};  // type:16 | spare:16 | arg:32
    std::atomic<double> value{0.0};
  };

  const std::uint64_t mask;  // capacity - 1 (capacity is a power of two)
  Slot* const slots;         // never freed: rings outlive their threads
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> trim{0};
};

// Lock-free registration table: fixed slots, monotonically claimed.
// No mutex anywhere on this path, so the crash handler can walk it.
constexpr std::size_t kMaxRings = 256;
std::atomic<Ring*> g_rings[kMaxRings];
std::atomic<std::size_t> g_ring_count{0};

std::atomic<std::size_t> g_ring_capacity{4096};

thread_local Ring* t_ring = nullptr;
thread_local bool t_ring_rejected = false;

Ring* register_ring() {
  const std::size_t idx = g_ring_count.fetch_add(1, std::memory_order_relaxed);
  if (idx >= kMaxRings) return nullptr;
  Ring* r = new Ring(FlightRecorder::ring_capacity());
  g_rings[idx].store(r, std::memory_order_release);
  return r;
}

std::uint64_t pack_meta(FrEvent type, std::uint32_t arg) noexcept {
  return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(type))
          << 48) |
         static_cast<std::uint64_t>(arg);
}

// ------------------------------------------------------------------
// Async-signal-safe formatting for the crash-dump path: no stdio, no
// allocation, integers and fixed-point (6 decimals) only.

char* fmt_u64(char* p, std::uint64_t v) {
  char tmp[24];
  int n = 0;
  do {
    tmp[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) *p++ = tmp[--n];
  return p;
}

char* fmt_str(char* p, const char* s) {
  while (*s != '\0') *p++ = *s++;
  return p;
}

char* fmt_value(char* p, double v) {
  if (std::isnan(v)) return fmt_str(p, "0");
  if (v < 0) {
    *p++ = '-';
    v = -v;
  }
  if (v > 9.2e12) return fmt_str(p, "9.2e12");  // clamp to int64 range/1e6
  const std::uint64_t micros = static_cast<std::uint64_t>(v * 1e6 + 0.5);
  p = fmt_u64(p, micros / 1000000);
  *p++ = '.';
  std::uint64_t frac = micros % 1000000;
  char tmp[6];
  for (int i = 5; i >= 0; --i) {
    tmp[i] = static_cast<char>('0' + frac % 10);
    frac /= 10;
  }
  for (char c : tmp) *p++ = c;
  return p;
}

/// Writes one ring's retained events as JSONL into `fd` (signal path)
/// using only async-signal-safe calls.
void dump_ring_fd(int fd, std::size_t thread_idx, const Ring& ring) {
  const std::uint64_t h = ring.head.load(std::memory_order_acquire);
  const std::uint64_t cap = ring.mask + 1;
  const std::uint64_t lo =
      std::max(ring.trim.load(std::memory_order_relaxed),
               h > cap ? h - cap : 0);
  char line[256];
  for (std::uint64_t seq = lo; seq < h; ++seq) {
    const Ring::Slot& s = ring.slots[seq & ring.mask];
    const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
    const double value = s.value.load(std::memory_order_relaxed);
    const auto type = static_cast<std::uint16_t>(meta >> 48);
    const auto arg = static_cast<std::uint32_t>(meta);
    char* p = line;
    p = fmt_str(p, "{\"thread\":");
    p = fmt_u64(p, thread_idx);
    p = fmt_str(p, ",\"seq\":");
    p = fmt_u64(p, seq);
    p = fmt_str(p, ",\"type\":\"");
    p = fmt_str(p, FlightRecorder::event_name(type).data());
    p = fmt_str(p, "\",\"arg\":");
    p = fmt_u64(p, arg);
    p = fmt_str(p, ",\"value\":");
    p = fmt_value(p, value);
    p = fmt_str(p, "}\n");
    ssize_t ignored = ::write(fd, line, static_cast<std::size_t>(p - line));
    (void)ignored;
  }
}

char g_crash_path[512] = {0};

void crash_handler(int sig) {
  const int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    char hdr[64];
    char* p = fmt_str(hdr, "{\"crash_signal\":");
    p = fmt_u64(p, static_cast<std::uint64_t>(sig));
    p = fmt_str(p, "}\n");
    ssize_t ignored = ::write(fd, hdr, static_cast<std::size_t>(p - hdr));
    (void)ignored;
    const std::size_t n =
        std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
    for (std::size_t i = 0; i < n; ++i) {
      if (const Ring* r = g_rings[i].load(std::memory_order_acquire)) {
        dump_ring_fd(fd, i, *r);
      }
    }
    ::close(fd);
  }
  // Restore default disposition and re-raise so exit status/core dumps
  // behave as if the recorder were not installed.
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

namespace fr_detail {

void record_slow(FrEvent type, std::uint32_t arg, double value) noexcept {
  Ring* r = t_ring;
  if (r == nullptr) {
    if (t_ring_rejected) return;
    r = register_ring();
    if (r == nullptr) {
      t_ring_rejected = true;  // > kMaxRings threads: stop asking
      return;
    }
    t_ring = r;
  }
  const std::uint64_t h = r->head.load(std::memory_order_relaxed);
  Ring::Slot& s = r->slots[h & r->mask];
  s.meta.store(pack_meta(type, arg), std::memory_order_relaxed);
  s.value.store(value, std::memory_order_relaxed);
  r->head.store(h + 1, std::memory_order_release);
}

}  // namespace fr_detail

void FlightRecorder::set_ring_capacity(std::size_t events) {
  events = std::clamp<std::size_t>(events, 64, std::size_t{1} << 20);
  // Round up to a power of two.
  std::size_t cap = 64;
  while (cap < events) cap <<= 1;
  g_ring_capacity.store(cap, std::memory_order_relaxed);
}

std::size_t FlightRecorder::ring_capacity() noexcept {
  return g_ring_capacity.load(std::memory_order_relaxed);
}

void FlightRecorder::arm() noexcept {
  fr_detail::g_armed.store(true, std::memory_order_relaxed);
}

void FlightRecorder::disarm() noexcept {
  fr_detail::g_armed.store(false, std::memory_order_relaxed);
}

void FlightRecorder::reset() {
  const std::size_t n =
      std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (std::size_t i = 0; i < n; ++i) {
    if (Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      r->trim.store(r->head.load(std::memory_order_acquire),
                    std::memory_order_relaxed);
    }
  }
}

std::size_t FlightRecorder::event_count() {
  std::size_t total = 0;
  const std::size_t n =
      std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (std::size_t i = 0; i < n; ++i) {
    if (const Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      const std::uint64_t h = r->head.load(std::memory_order_acquire);
      const std::uint64_t cap = r->mask + 1;
      const std::uint64_t lo =
          std::max(r->trim.load(std::memory_order_relaxed),
                   h > cap ? h - cap : 0);
      total += static_cast<std::size_t>(h - lo);
    }
  }
  return total;
}

std::uint64_t FlightRecorder::total_recorded() {
  std::uint64_t total = 0;
  const std::size_t n =
      std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (std::size_t i = 0; i < n; ++i) {
    if (const Ring* r = g_rings[i].load(std::memory_order_acquire)) {
      total += r->head.load(std::memory_order_acquire);
    }
  }
  return total;
}

std::string FlightRecorder::dump_jsonl() {
  std::string out;
  const std::size_t n =
      std::min(g_ring_count.load(std::memory_order_relaxed), kMaxRings);
  for (std::size_t i = 0; i < n; ++i) {
    const Ring* r = g_rings[i].load(std::memory_order_acquire);
    if (r == nullptr) continue;
    const std::uint64_t h = r->head.load(std::memory_order_acquire);
    const std::uint64_t cap = r->mask + 1;
    const std::uint64_t lo =
        std::max(r->trim.load(std::memory_order_relaxed),
                 h > cap ? h - cap : 0);
    for (std::uint64_t seq = lo; seq < h; ++seq) {
      const Ring::Slot& s = r->slots[seq & r->mask];
      const std::uint64_t meta = s.meta.load(std::memory_order_relaxed);
      const double value = s.value.load(std::memory_order_relaxed);
      out += "{\"thread\":" + std::to_string(i) +
             ",\"seq\":" + std::to_string(seq) + ",\"type\":\"" +
             std::string(event_name(static_cast<std::uint16_t>(meta >> 48))) +
             "\",\"arg\":" + std::to_string(static_cast<std::uint32_t>(meta)) +
             ",\"value\":" + format_number(value) + "}\n";
    }
  }
  return out;
}

bool FlightRecorder::dump_to_file(const std::string& path) {
  const std::string dump = dump_jsonl();
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(dump.data(), 1, dump.size(), f) == dump.size();
  return std::fclose(f) == 0 && ok;
}

void FlightRecorder::install_crash_dump(const std::string& path) {
  if (path.empty() || path.size() >= sizeof(g_crash_path)) {
    g_crash_path[0] = '\0';
    std::signal(SIGSEGV, SIG_DFL);
    std::signal(SIGABRT, SIG_DFL);
    return;
  }
  std::memcpy(g_crash_path, path.c_str(), path.size() + 1);
  std::signal(SIGSEGV, crash_handler);
  std::signal(SIGABRT, crash_handler);
}

std::string_view FlightRecorder::event_name(std::uint16_t type) noexcept {
  switch (static_cast<FrEvent>(type)) {
    case FrEvent::kSolverIteration: return "solver_iteration";
    case FrEvent::kSolverSolve: return "solver_solve";
    case FrEvent::kRetryAttempt: return "retry_attempt";
    case FrEvent::kRetryRecovered: return "retry_recovered";
    case FrEvent::kFaultLinkDrop: return "fault_link_drop";
    case FrEvent::kFaultChurnAbsent: return "fault_churn_absent";
    case FrEvent::kFaultSensorSpike: return "fault_sensor_spike";
    case FrEvent::kFaultBrokerCrash: return "fault_broker_crash";
    case FrEvent::kFailover: return "failover";
    case FrEvent::kTopup: return "topup";
    case FrEvent::kMark: return "mark";
    case FrEvent::kBreakerOpen: return "breaker_open";
    case FrEvent::kBreakerHalfOpen: return "breaker_half_open";
    case FrEvent::kBreakerClose: return "breaker_close";
    case FrEvent::kCheckpointWrite: return "checkpoint_write";
    case FrEvent::kCheckpointRestore: return "checkpoint_restore";
    case FrEvent::kShed: return "shed";
    default: return "unknown";
  }
}

}  // namespace sensedroid::obs
