#include "net/reactor.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace sensedroid::net {

namespace {

constexpr std::size_t kReadBudget = 256 * 1024;
constexpr std::size_t kMaxPendingOut = 1u << 20;

// Binds and listens a non-blocking socket: the accept drain relies on
// EAGAIN to stop.  Returns the fd, or -1 with nothing left open.
int listen_on(int family, const sockaddr* addr, socklen_t len) {
  const int fd = ::socket(family, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK,
                          0);
  if (fd < 0) return -1;
  const int one = 1;
  if (family == AF_INET) {
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd, addr, len) != 0 || ::listen(fd, 128) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Reactor::Reactor(Open open, Tick tick)
    : open_(std::move(open)),
      tick_(std::move(tick)),
      rx_(std::make_unique<char[]>(kReadBudget)) {}

Reactor::~Reactor() { stop(); }

bool Reactor::start(const Config& config) {
  if (running_.load(std::memory_order_acquire)) return true;
  config_ = config;
  timeout_ = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(config_.idle_timeout_s));

  bool ok = true;
  if (config_.listen_tcp) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // host-local by design
    addr.sin_port = htons(config_.tcp_port);
    tcp_fd_ = listen_on(AF_INET, reinterpret_cast<const sockaddr*>(&addr),
                        sizeof(addr));
    socklen_t len = sizeof(addr);
    ok = tcp_fd_ >= 0 &&
         ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
             0;
    tcp_port_ = ntohs(addr.sin_port);
  }
  if (ok && !config_.uds_path.empty()) {
    sockaddr_un addr{};
    ok = config_.uds_path.size() < sizeof(addr.sun_path);
    if (ok) {
      addr.sun_family = AF_UNIX;
      std::memcpy(addr.sun_path, config_.uds_path.c_str(),
                  config_.uds_path.size() + 1);
      ::unlink(config_.uds_path.c_str());  // replace a stale socket file
      uds_fd_ = listen_on(AF_UNIX, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr));
      ok = uds_fd_ >= 0;
    }
  }
  if (ok) ok = (wake_fd_ = ::eventfd(0, EFD_CLOEXEC)) >= 0;
  if (ok) ok = (epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC)) >= 0;
  if (!ok) {
    close_fds();
    return false;
  }
  for (const int fd : {tcp_fd_, uds_fd_, wake_fd_}) {
    if (fd < 0) continue;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
  running_.store(true, std::memory_order_release);
  thread_ = std::thread([this] { serve(); });
  return true;
}

void Reactor::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  const std::uint64_t one = 1;
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
  if (thread_.joinable()) thread_.join();
  for (const auto& [fd, c] : conns_) ::close(fd);
  conns_.clear();
  close_fds();
}

void Reactor::close_fds() {
  if (uds_fd_ >= 0) ::unlink(config_.uds_path.c_str());
  for (int* fd : {&tcp_fd_, &uds_fd_, &wake_fd_, &epoll_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void Reactor::serve() {
  // Wake at a fraction of the idle timeout so deadline sweeps run even
  // while every client stalls silently.
  // Clamped before the cast: a timeout past ~99 days would overflow int.
  const int sweep_ms = static_cast<int>(
      std::clamp(config_.idle_timeout_s * 250.0, 50.0, 1000.0));
  while (running_.load(std::memory_order_acquire)) {
    int wait_ms = conns_.empty() ? -1 : sweep_ms;
    const int tick_ms = tick_ ? tick_() : -1;
    if (tick_ms >= 0 && (wait_ms < 0 || tick_ms < wait_ms)) wait_ms = tick_ms;

    epoll_event events[64];
    const int n = ::epoll_wait(epoll_fd_, events, 64, wait_ms);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) continue;  // loop condition re-checked above
      if (fd == tcp_fd_ || fd == uds_fd_) {
        accept_all(fd);
      } else {
        service(fd, events[i].events);
      }
    }

    // Deadline sweep; collect first, end() mutates the map.
    const auto now = Clock::now();
    std::vector<int> expired;
    for (const auto& [fd, c] : conns_) {
      if (now >= c.deadline) expired.push_back(fd);
    }
    for (const int fd : expired) end(fd, false);
  }
}

void Reactor::accept_all(int listen_fd) {
  for (;;) {
    const int fd =
        ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;
    if (conns_.size() >= config_.max_connections) {
      // Refuse, never queue: the count ticks before the peer sees EOF.
      refused_.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    if (listen_fd == tcp_fd_) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    Conn c;
    c.session = open_();
    c.events = EPOLLIN;
    c.deadline = Clock::now() + timeout_;
    conns_.emplace(fd, std::move(c));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }
}

void Reactor::service(int fd, std::uint32_t events) {
  const auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& c = it->second;
  if (events & (EPOLLHUP | EPOLLERR)) return end(fd, false);

  if (c.reading && (events & EPOLLIN)) {
    // Drain the socket before the session sees any of it: handing over
    // each recv() separately would hold back the replies owed for the
    // first bytes for as long as more keep arriving.
    std::size_t got = 0;
    bool peer_gone = false;
    while (got < kReadBudget) {
      const ssize_t n = ::recv(fd, rx_.get() + got, kReadBudget - got, 0);
      if (n > 0) {
        got += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      peer_gone = true;  // orderly close or hard error
      break;
    }
    const std::size_t queued = c.out.size();
    if (got > 0) {
      const Next next =
          c.session->on_data(std::string_view(rx_.get(), got), c.out);
      if (next == Next::kDrop) return end(fd, false);
      if (next == Next::kReply) {
        c.reading = false;
        c.served = true;
      }
    }
    if (peer_gone && c.reading) {
      // Flush what is owed, then end as dropped.
      if (c.out_off == c.out.size()) return end(fd, false);
      c.reading = false;
    }
    if (c.out.size() != queued) c.deadline = Clock::now() + timeout_;
    if (c.reading && c.out.size() - c.out_off > kMaxPendingOut) {
      return end(fd, false);
    }
  }

  while (c.out_off < c.out.size()) {
    const ssize_t sent = ::send(fd, c.out.data() + c.out_off,
                                c.out.size() - c.out_off, MSG_NOSIGNAL);
    if (sent > 0) {
      c.out_off += static_cast<std::size_t>(sent);
      continue;
    }
    if (sent < 0 && errno == EINTR) continue;
    if (sent < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    return end(fd, false);
  }
  if (c.out_off == c.out.size()) {
    // Fully flushed: reclaim the buffer so a long-lived connection's
    // reply history does not accumulate.
    if (!c.reading) return end(fd, c.served);
    c.out.clear();
    c.out_off = 0;
  }

  const std::uint32_t want = (c.reading ? EPOLLIN : 0u) |
                             (c.out_off < c.out.size() ? EPOLLOUT : 0u);
  if (want != c.events) {
    c.events = want;
    epoll_event ev{};
    ev.events = want;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }
}

void Reactor::end(int fd, bool served) {
  auto node = conns_.extract(fd);
  node.mapped().session->on_end(served);
  node.mapped().session.reset();  // its destructor may tick counters too
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
}

}  // namespace sensedroid::net
