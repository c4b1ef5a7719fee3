// Epoll-based frame server shared by every TcpTransport endpoint.
//
// One event-loop thread owns the epoll set: it accepts connections for all
// registered endpoints, runs the per-connection frame state machine (header,
// then payload read straight into its final string — no staging buffer), and
// hands complete requests to an elastic handler pool. Connections are served
// serially (one in-flight handler per connection, interest masked while
// busy), which gives pipelined clients strict in-order responses over a
// single pooled connection.
//
// The pool is elastic because a handler may itself issue a Call back into
// this process (routed DFS gets chain up to the routing hop limit): when
// every pool thread is busy and a request arrives, a new thread is spawned
// up to `max_handler_threads`, so a chain of nested loopback calls cannot
// deadlock on a fixed-size pool.
//
// fd lifecycle rule (the accept-vs-shutdown race): the loop thread is the
// only closer of idle fds, and the handler thread that owns a busy
// connection is its only closer. RemoveEndpoint never closes an fd another
// thread might be reading — it shutdown()s them, wakes the loop, and waits
// for the loop/handlers to retire every fd, so a concurrently accepted or
// pooled client fd can never be reused out from under a reader.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "net/transport.h"

namespace eclipse::net {

/// Frames larger than this are treated as protocol corruption and the
/// connection is dropped (a real frame this size would mean a runaway
/// encoder, not a workload).
inline constexpr std::uint32_t kMaxFramePayload = 1u << 30;  // 1 GiB

class EpollServer {
 public:
  struct Options {
    /// Address every listener binds to. Loopback by default; a multi-machine
    /// worker binds 0.0.0.0 via --listen-host.
    std::string listen_host = "127.0.0.1";
    /// Upper bound on handler threads. Must exceed the deepest possible
    /// nested-call chain in one process (DFS routing hop limit × endpoints).
    int max_handler_threads = 192;
  };

  EpollServer();
  explicit EpollServer(Options opts);
  ~EpollServer();

  EpollServer(const EpollServer&) = delete;
  EpollServer& operator=(const EpollServer&) = delete;

  /// Bind a listener for `node` on `port` (0 = OS-assigned) and serve
  /// `handler` on it. Replaces any existing endpoint for `node` (draining it
  /// first). Returns the bound port, or -1 on bind failure.
  int AddEndpoint(NodeId node, Handler handler, int port = 0);

  /// Stop accepting for `node`, sever its connections, and wait until every
  /// in-flight handler has returned and every fd is retired. After this
  /// returns no handler invocation for `node` is running or will ever run.
  void RemoveEndpoint(NodeId node);

  /// Port `node` listens on (0 if not registered).
  int PortOf(NodeId node) const;

  /// Number of live handler-pool threads (for tests and the threads gauge).
  int HandlerThreads() const;

  /// Register dispatcher counters: net.accepted_connections,
  /// net.frames_dispatched, net.handler_threads (gauge).
  void BindMetrics(MetricsRegistry& registry, const char* label);
  /// Drop the cached counter pointers (when the registry dies first).
  void UnbindMetrics();

 private:
  struct Endpoint {
    NodeId node = 0;
    int listen_fd = -1;
    int port = 0;
    std::shared_ptr<Handler> handler;
    bool stopping = false;      // guarded by mu_
    bool listener_closed = false;  // guarded by mu_
    int in_flight = 0;          // guarded by mu_: handlers running right now
    int live_conns = 0;         // guarded by mu_: fds referencing this endpoint
  };

  // Read-state fields are touched only by the loop thread while the
  // connection is idle (!busy); `busy`/`closing` transitions happen under
  // mu_. While busy the connection's epoll interest is masked, so the loop
  // never races the owning handler thread.
  struct Conn {
    int fd = -1;
    std::shared_ptr<Endpoint> ep;
    bool busy = false;  // guarded by mu_
    // Frame state machine (loop thread only).
    std::uint8_t header[12];
    std::size_t header_got = 0;
    bool have_header = false;
    std::uint32_t type = 0;
    std::int32_t from = 0;
    std::string payload;
    std::size_t payload_got = 0;
  };

  void Loop();
  void HandleAccept(const std::shared_ptr<Endpoint>& ep);
  void HandleReadable(const std::shared_ptr<Conn>& conn);
  // Runs one request (and the response write) on a pool thread, then either
  // re-arms the connection or retires it.
  void ServeRequest(std::shared_ptr<Conn> conn, std::uint32_t type,
                    std::int32_t from, std::string payload);
  void Submit(std::function<void()> job);
  void PoolWorker();
  // Mark stopping and sever (shutdown, not close) the listener + conns.
  void BeginStopLocked(const std::shared_ptr<Endpoint>& ep) REQUIRES(mu_);
  // Wake the loop and block until the endpoint's fds and handlers retire.
  void AwaitStopped(const std::shared_ptr<Endpoint>& ep);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void CloseConnLocked(const std::shared_ptr<Conn>& conn) REQUIRES(mu_);
  // Sweep stopping endpoints: close their idle conns and listeners.
  void SweepLocked() REQUIRES(mu_);
  void Wake();

  const Options opts_;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread loop_thread_;

  mutable Mutex mu_{Rank::kEpollServer, "EpollServer::mu_"};
  CondVar drained_ /* signaled on in_flight/live_conns/listener changes */;
  std::unordered_map<NodeId, std::shared_ptr<Endpoint>> endpoints_ GUARDED_BY(mu_);
  std::unordered_map<int, std::shared_ptr<Endpoint>> listeners_ GUARDED_BY(mu_);  // by listen_fd
  std::unordered_map<int, std::shared_ptr<Conn>> conns_ GUARDED_BY(mu_);          // by conn fd
  // Endpoints mid-teardown, awaiting fd retirement by the loop/handlers.
  std::vector<std::shared_ptr<Endpoint>> stopping_ GUARDED_BY(mu_);

  mutable Mutex pool_mu_{Rank::kEpollPool, "EpollServer::pool_mu_"};
  CondVar pool_cv_;
  std::deque<std::function<void()>> jobs_ GUARDED_BY(pool_mu_);
  int idle_threads_ GUARDED_BY(pool_mu_) = 0;
  int total_threads_ GUARDED_BY(pool_mu_) = 0;
  bool pool_stop_ GUARDED_BY(pool_mu_) = false;
  std::vector<std::thread> pool_threads_ GUARDED_BY(pool_mu_);

  std::atomic<Counter*> accepts_{nullptr};
  std::atomic<Counter*> frames_{nullptr};
  std::atomic<Gauge*> threads_gauge_{nullptr};
};

// ---- shared low-level socket helpers (also used by ConnPool/TcpTransport) --

/// Thread-safe strerror.
std::string ErrnoString(int err);

/// Write the full iovec array, waiting (poll) when the socket is not ready,
/// bounded by `deadline_ms` per wait (-1 = no bound). Returns false on error
/// or timeout — a peer that closed included: the write never raises
/// SIGPIPE. `fd` must be a socket. The iovec array is clobbered.
bool WritevFull(int fd, struct iovec* iov, int iovcnt, int deadline_ms);

/// Read exactly `n` bytes, waiting (poll) when the socket has no data,
/// bounded by `deadline_ms` per wait (-1 = no bound). `*got` reports bytes
/// read so far even on failure (stale-connection detection needs "did any
/// byte arrive"). Returns false on EOF/error/timeout.
bool ReadFullTimed(int fd, void* buf, std::size_t n, int deadline_ms,
                   std::size_t* got = nullptr);

}  // namespace eclipse::net
