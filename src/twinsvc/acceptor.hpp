// ConnectionAcceptor — the accept-loop / thread-per-connection machinery
// of the scheduler service (svc::SchedServer).
//
// The acceptor owns the listener and the connection threads. Each
// accepted socket is handed to the serve callback on its own thread; the
// accept loop polls with a short timeout so stop() is honored promptly,
// and finished connection threads are joined (reaped) before every
// accept so a long-lived server does not accumulate dead thread handles.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "twinsvc/socket.hpp"

namespace amjs::twinsvc {

class ConnectionAcceptor {
 public:
  /// Called once per accepted connection, on a dedicated thread. The
  /// callback owns the socket; when it returns the connection is done.
  using ServeFn = std::function<void(Socket)>;

  /// `name` tags log lines ("sched_server").
  ConnectionAcceptor(Listener listener, ServeFn serve, std::string name);
  ~ConnectionAcceptor();
  ConnectionAcceptor(const ConnectionAcceptor&) = delete;
  ConnectionAcceptor& operator=(const ConnectionAcceptor&) = delete;

  /// Where the server is reachable (tcp ephemeral ports resolved).
  [[nodiscard]] const Endpoint& endpoint() const { return listener_.endpoint(); }

  /// Spawn the accept loop on a background thread.
  void start();

  /// Run the accept loop on this thread until stop() (the binary's mode).
  void run();

  /// Stop accepting, join the accept thread and every connection thread.
  /// Idempotent; also called by the destructor.
  void stop();

  /// True once stop() began — serve callbacks poll this between requests
  /// so shutdown does not wait out a full I/O timeout.
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

 private:
  void accept_loop();
  /// Join connection threads that have finished serving.
  void reap_finished_connections();

  Listener listener_;
  ServeFn serve_;
  std::string name_;
  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::mutex threads_mutex_;
  // All three guarded by threads_mutex_. Each connection thread pushes its
  // own id onto finished_connections_ as its last act; the accept loop
  // joins and erases those entries before every accept.
  std::uint64_t next_connection_id_ = 0;
  std::vector<std::pair<std::uint64_t, std::thread>> connection_threads_;
  std::vector<std::uint64_t> finished_connections_;
};

}  // namespace amjs::twinsvc
