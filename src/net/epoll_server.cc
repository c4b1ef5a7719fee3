#include "net/epoll_server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"

namespace eclipse::net {
namespace {

// A handler writing a response to a client that stopped reading should not
// pin a pool thread forever; past this the connection is presumed dead.
constexpr int kServerWriteTimeoutMs = 30'000;

// strerror returns a static buffer (concurrency-mt-unsafe); route through
// strerror_r, whose two signatures (GNU returns char*, POSIX returns int
// and fills the buffer) are disambiguated by overload.
inline const char* ErrnoStringImpl(char* gnu_result, const char*) {
  return gnu_result;
}
inline const char* ErrnoStringImpl(int, const char* buf) { return buf; }

bool WaitFd(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    int r = ::poll(&p, 1, timeout_ms);
    if (r > 0) return true;   // ready (or HUP/ERR — let the read/write report it)
    if (r == 0) return false;  // timed out
    if (errno != EINTR) return false;
  }
}

}  // namespace

std::string ErrnoString(int err) {
  char buf[128] = "unknown error";
  return ErrnoStringImpl(strerror_r(err, buf, sizeof buf), buf);
}

bool WritevFull(int fd, struct iovec* iov, int iovcnt, int deadline_ms) {
  while (iovcnt > 0) {
    // sendmsg, not writev: MSG_NOSIGNAL turns a write to a peer that just
    // closed into EPIPE instead of a process-killing SIGPIPE.
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!WaitFd(fd, POLLOUT, deadline_ms)) return false;
        continue;
      }
      return false;
    }
    auto n = static_cast<std::size_t>(w);
    while (iovcnt > 0 && n >= iov->iov_len) {
      n -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0 && n > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + n;
      iov->iov_len -= n;
    }
  }
  return true;
}

bool ReadFullTimed(int fd, void* buf, std::size_t n, int deadline_ms,
                   std::size_t* got) {
  std::size_t done = 0;
  bool ok = true;
  while (done < n) {
    ssize_t r = ::read(fd, static_cast<char*>(buf) + done, n - done);
    if (r > 0) {
      done += static_cast<std::size_t>(r);
    } else if (r == 0) {
      ok = false;  // peer closed mid-message
      break;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!WaitFd(fd, POLLIN, deadline_ms)) {
        ok = false;
        break;
      }
    } else {
      ok = false;
      break;
    }
  }
  if (got) *got = done;
  return ok;
}

EpollServer::EpollServer() : EpollServer(Options{}) {}

EpollServer::EpollServer(Options opts) : opts_(std::move(opts)) {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev);
  loop_thread_ = std::thread([this] { Loop(); });
}

EpollServer::~EpollServer() {
  std::vector<NodeId> nodes;
  {
    MutexLock lock(mu_);
    for (auto& [id, ep] : endpoints_) nodes.push_back(id);
  }
  for (NodeId id : nodes) RemoveEndpoint(id);

  stop_.store(true, std::memory_order_release);
  Wake();
  if (loop_thread_.joinable()) loop_thread_.join();

  std::vector<std::thread> pool;
  {
    MutexLock lock(pool_mu_);
    pool_stop_ = true;
    pool = std::move(pool_threads_);
  }
  pool_cv_.notify_all();
  for (auto& t : pool)
    if (t.joinable()) t.join();

  ::close(wake_fd_);
  ::close(epoll_fd_);
}

void EpollServer::Wake() {
  std::uint64_t one = 1;
  [[maybe_unused]] ssize_t r = ::write(wake_fd_, &one, sizeof one);
}

int EpollServer::AddEndpoint(NodeId node, Handler handler, int port) {
  if (!handler) {
    RemoveEndpoint(node);
    return -1;
  }
  auto ep = std::make_shared<Endpoint>();
  ep->node = node;
  ep->handler = std::make_shared<Handler>(std::move(handler));
  ep->listen_fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (ep->listen_fd < 0) {
    LOG_ERROR << "socket() failed: " << ErrnoString(errno);
    return -1;
  }
  int one = 1;
  ::setsockopt(ep->listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, opts_.listen_host.c_str(), &addr.sin_addr) != 1) {
    LOG_ERROR << "bad listen host: " << opts_.listen_host;
    ::close(ep->listen_fd);
    return -1;
  }
  if (::bind(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(ep->listen_fd, 128) != 0) {
    LOG_ERROR << "bind/listen on " << opts_.listen_host << ":" << port
              << " failed: " << ErrnoString(errno);
    ::close(ep->listen_fd);
    return -1;
  }
  socklen_t len = sizeof addr;
  ::getsockname(ep->listen_fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ep->port = ntohs(addr.sin_port);

  // A concurrent AddEndpoint for the same node may race us: the newcomer
  // wins the slot, the loser is stopped and drained below.
  std::shared_ptr<Endpoint> displaced;
  {
    MutexLock lock(mu_);
    auto& slot = endpoints_[node];
    displaced = slot;
    if (displaced) BeginStopLocked(displaced);
    slot = ep;
    listeners_[ep->listen_fd] = ep;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = ep->listen_fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, ep->listen_fd, &ev);
  if (displaced) AwaitStopped(displaced);
  return ep->port;
}

void EpollServer::RemoveEndpoint(NodeId node) {
  std::shared_ptr<Endpoint> ep;
  {
    MutexLock lock(mu_);
    auto it = endpoints_.find(node);
    if (it == endpoints_.end()) return;
    ep = it->second;
    endpoints_.erase(it);
    BeginStopLocked(ep);
  }
  AwaitStopped(ep);
}

void EpollServer::BeginStopLocked(const std::shared_ptr<Endpoint>& ep) {
  ep->stopping = true;
  // Sever, don't close: the loop thread (idle conns, listener) and the
  // owning handler threads (busy conns) are the only fd closers — see the
  // header's fd lifecycle rule. shutdown() makes their reads/writes fail
  // promptly without risking fd reuse under a concurrent reader.
  ::shutdown(ep->listen_fd, SHUT_RDWR);
  for (auto& [fd, conn] : conns_)
    if (conn->ep == ep) ::shutdown(fd, SHUT_RDWR);
  stopping_.push_back(ep);
}

void EpollServer::AwaitStopped(const std::shared_ptr<Endpoint>& ep) {
  Wake();
  MutexLock lock(mu_);
  while (!(ep->listener_closed && ep->in_flight == 0 && ep->live_conns == 0))
    drained_.wait(lock);
}

int EpollServer::PortOf(NodeId node) const {
  MutexLock lock(mu_);
  auto it = endpoints_.find(node);
  return it == endpoints_.end() ? 0 : it->second->port;
}

int EpollServer::HandlerThreads() const {
  MutexLock lock(pool_mu_);
  return total_threads_;
}

void EpollServer::BindMetrics(MetricsRegistry& registry, const char* label) {
  MetricLabels labels{{"transport", label}};
  accepts_.store(&registry.GetCounter("net.accepted_connections", labels),
                 std::memory_order_release);
  frames_.store(&registry.GetCounter("net.frames_dispatched", labels),
                std::memory_order_release);
  threads_gauge_.store(&registry.GetGauge("net.handler_threads", labels),
                       std::memory_order_release);
}

void EpollServer::UnbindMetrics() {
  accepts_.store(nullptr, std::memory_order_release);
  frames_.store(nullptr, std::memory_order_release);
  threads_gauge_.store(nullptr, std::memory_order_release);
}

void EpollServer::Loop() {
  epoll_event events[64];
  while (!stop_.load(std::memory_order_acquire)) {
    int n = ::epoll_wait(epoll_fd_, events, 64, -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t v;
        while (::read(wake_fd_, &v, sizeof v) > 0) {
        }
        continue;
      }
      std::shared_ptr<Endpoint> ep;
      std::shared_ptr<Conn> conn;
      {
        MutexLock lock(mu_);
        auto lit = listeners_.find(fd);
        if (lit != listeners_.end()) {
          ep = lit->second;
        } else {
          auto cit = conns_.find(fd);
          // Busy conns have their interest masked; a straggler event from
          // this batch is ignored, the post-handler re-arm re-reports it.
          if (cit != conns_.end() && !cit->second->busy) conn = cit->second;
        }
      }
      if (ep) HandleAccept(ep);
      else if (conn) HandleReadable(conn);
    }
    MutexLock lock(mu_);
    SweepLocked();
  }
}

void EpollServer::HandleAccept(const std::shared_ptr<Endpoint>& ep) {
  for (;;) {
    int fd = ::accept4(ep->listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN, or the listener was shut down
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    conn->ep = ep;
    {
      MutexLock lock(mu_);
      if (ep->stopping) {
        ::close(fd);  // loop thread owns this fd; direct close is safe
        continue;
      }
      conns_[fd] = conn;
      ++ep->live_conns;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
    if (auto* c = accepts_.load(std::memory_order_acquire)) c->Add();
  }
}

void EpollServer::CloseConn(const std::shared_ptr<Conn>& conn) {
  MutexLock lock(mu_);
  CloseConnLocked(conn);
  drained_.notify_all();
}

void EpollServer::CloseConnLocked(const std::shared_ptr<Conn>& conn) {
  if (conn->fd < 0) return;  // already retired
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->fd, nullptr);
  ::close(conn->fd);
  conns_.erase(conn->fd);
  conn->fd = -1;
  --conn->ep->live_conns;
}

void EpollServer::HandleReadable(const std::shared_ptr<Conn>& conn) {
  // Read-state fields are loop-thread-owned while the conn is idle; no lock
  // is held across the reads.
  for (;;) {
    if (!conn->have_header) {
      ssize_t r = ::read(conn->fd, conn->header + conn->header_got,
                         sizeof conn->header - conn->header_got);
      if (r == 0) return CloseConn(conn);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        return CloseConn(conn);
      }
      conn->header_got += static_cast<std::size_t>(r);
      if (conn->header_got < sizeof conn->header) continue;
      std::uint32_t body_len;
      std::memcpy(&body_len, conn->header, 4);
      std::memcpy(&conn->type, conn->header + 4, 4);
      std::memcpy(&conn->from, conn->header + 8, 4);
      if (body_len < 8 || body_len - 8 > kMaxFramePayload)
        return CloseConn(conn);  // corrupt frame: drop the connection
      // Payload bytes land directly in their final string — the decode path
      // allocates exactly once per request, never a staging buffer.
      conn->payload.resize(body_len - 8);
      conn->payload_got = 0;
      conn->have_header = true;
    }
    while (conn->payload_got < conn->payload.size()) {
      ssize_t r = ::read(conn->fd, conn->payload.data() + conn->payload_got,
                         conn->payload.size() - conn->payload_got);
      if (r == 0) return CloseConn(conn);
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        return CloseConn(conn);
      }
      conn->payload_got += static_cast<std::size_t>(r);
    }
    // Frame complete. Mask interest, mark busy, hand off. Further pipelined
    // requests stay in the kernel buffer until the post-handler re-arm
    // (level-triggered epoll re-reports them), giving in-order responses.
    std::uint32_t type = conn->type;
    std::int32_t from = conn->from;
    std::string payload = std::move(conn->payload);
    conn->payload.clear();
    conn->have_header = false;
    conn->header_got = 0;
    {
      MutexLock lock(mu_);
      if (conn->ep->stopping) {
        CloseConnLocked(conn);
        drained_.notify_all();
        return;
      }
      conn->busy = true;
      epoll_event ev{};
      ev.events = 0;
      ev.data.fd = conn->fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
      ++conn->ep->in_flight;
    }
    if (auto* c = frames_.load(std::memory_order_acquire)) c->Add();
    Submit([this, conn, type, from, p = std::move(payload)]() mutable {
      ServeRequest(conn, type, from, std::move(p));
    });
    return;
  }
}

void EpollServer::ServeRequest(std::shared_ptr<Conn> conn, std::uint32_t type,
                               std::int32_t from, std::string payload) {
  const std::shared_ptr<Handler> handler = conn->ep->handler;
  Message request{type, std::move(payload)};
  Message response = (*handler)(from, request);

  // Response frame: u32 body_len | u32 type | payload — header on the
  // stack, payload scatter-gathered straight from the response string.
  std::uint32_t body_len =
      static_cast<std::uint32_t>(4 + response.payload.size());
  unsigned char header[8];
  std::memcpy(header, &body_len, 4);
  std::memcpy(header + 4, &response.type, 4);
  iovec iov[2];
  iov[0] = {header, sizeof header};
  iov[1] = {response.payload.data(), response.payload.size()};
  bool ok = WritevFull(conn->fd, iov, response.payload.empty() ? 1 : 2,
                       kServerWriteTimeoutMs);

  MutexLock lock(mu_);
  --conn->ep->in_flight;
  conn->busy = false;
  if (!ok || conn->ep->stopping) {
    CloseConnLocked(conn);
  } else {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
  }
  drained_.notify_all();
}

void EpollServer::SweepLocked() {
  if (stopping_.empty()) return;
  for (auto& ep : stopping_) {
    if (!ep->listener_closed) {
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, ep->listen_fd, nullptr);
      ::close(ep->listen_fd);
      listeners_.erase(ep->listen_fd);
      ep->listener_closed = true;
    }
  }
  std::vector<std::shared_ptr<Conn>> idle;
  for (auto& [fd, conn] : conns_)
    if (conn->ep->stopping && !conn->busy) idle.push_back(conn);
  for (auto& conn : idle) CloseConnLocked(conn);
  stopping_.erase(
      std::remove_if(stopping_.begin(), stopping_.end(),
                     [](const std::shared_ptr<Endpoint>& ep) {
                       return ep->listener_closed && ep->live_conns == 0 &&
                              ep->in_flight == 0;
                     }),
      stopping_.end());
  drained_.notify_all();
}

void EpollServer::Submit(std::function<void()> job) {
  {
    MutexLock lock(pool_mu_);
    jobs_.push_back(std::move(job));
    // Elastic growth: a nested loopback Call from a running handler needs a
    // fresh thread to serve it, or the chain deadlocks on a fixed pool.
    if (idle_threads_ == 0 && total_threads_ < opts_.max_handler_threads) {
      ++total_threads_;
      pool_threads_.emplace_back([this] { PoolWorker(); });
      if (auto* g = threads_gauge_.load(std::memory_order_acquire))
        g->Set(total_threads_);
    }
  }
  pool_cv_.notify_one();
}

void EpollServer::PoolWorker() {
  for (;;) {
    std::function<void()> job;
    {
      MutexLock lock(pool_mu_);
      ++idle_threads_;
      while (jobs_.empty() && !pool_stop_) pool_cv_.wait(lock);
      --idle_threads_;
      if (jobs_.empty()) return;  // stopping and drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    job();
  }
}

}  // namespace eclipse::net
