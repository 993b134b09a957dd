// SchedServer — the one server of the service (DESIGN.md "Service").
//
// A long-lived multi-tenant query server over the DataFacade: the
// acceptor hands each connection to its own thread, which reads request
// envelopes and dispatches them to request plugins — submit-job (calendar
// projection), what-if (twin consult against the resident snapshot; no
// snapshot bytes on the wire), trace-explain (run diff), campaign (one
// cell through run_cell), eval (a twin consult against the snapshot the
// request carries — RemoteTwinEngine's plugin), and the reload admin
// plugin that hot-swaps the resident dataset without dropping in-flight
// requests.
//
// Load discipline: a bounded AdmissionGate caps concurrently executing
// requests and the queue waiting behind them; anything beyond is shed
// immediately with kSvcBusy — a stalled or flooding client degrades its
// own connection, never the acceptor. Each request carries a deadline
// budget; one that arrives expired, or expires while queued, is rejected
// without executing (mirroring the socket layer's non-positive-budget
// rule: never block on a lapsed deadline).
//
// Every decision is observable: svc.* counters/timers (see obs/catalog),
// one trace span per executed request stamped with the caller's trace
// context, and kStatsRequest served out-of-band for fleet polls.
//
// Fault injection (tests and sched_server's --fail-first / --fail-after /
// --stall-ms / --garbage) is built in, so the kill/stall/corruption cases
// are deterministic: it keys off one ordinal over admitted plugin
// requests.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "obs/trace.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "twinsvc/acceptor.hpp"
#include "twinsvc/socket.hpp"
#include "util/result.hpp"

namespace amjs::svc {

/// Bounded admission control: at most `max_inflight` requests execute
/// concurrently and at most `max_queue` wait behind them. A request over
/// both limits is shed immediately (kBusy); one whose deadline lapses
/// while queued is rejected without executing (kDeadline).
class AdmissionGate {
 public:
  enum class Outcome : std::uint8_t { kAdmitted, kBusy, kDeadline, kStopped };

  AdmissionGate(int max_inflight, int max_queue);

  /// Block until an execution slot frees (bounded by `deadline_ms` when
  /// positive; 0 = no deadline). Callers must pair every kAdmitted with
  /// leave().
  [[nodiscard]] Outcome enter(std::int64_t deadline_ms);
  void leave();

  /// Wake every queued waiter with kStopped (server shutdown).
  void stop();

  [[nodiscard]] std::int64_t in_flight() const;
  [[nodiscard]] std::int64_t queued() const;

 private:
  const int max_inflight_;
  const int max_queue_;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  int in_flight_ = 0;
  int queued_ = 0;
  bool stopped_ = false;
};

struct ServerFaults {
  /// Sleep inside every admitted request before it executes — the
  /// deterministic stand-in for a slow plugin that the kBusy, deadline
  /// and client-timeout tests key off.
  std::int64_t stall_ms = 0;

  /// Abort (drop the connection without a reply) each of the first N
  /// admitted requests — then behave. Exercises retry succeeding.
  std::int64_t fail_first = 0;

  /// Serve N admitted requests, then abort every later one (-1 = never).
  /// Exercises retries exhausting and a server dying mid-campaign.
  std::int64_t fail_after = -1;

  /// Corrupt the CRC of every reply.
  bool garbage = false;
};

struct ServerConfig {
  /// Per-socket-operation timeout while talking to a client.
  int io_timeout_ms = 30000;

  /// Fork fan-out threads inside a what-if or eval consult (0 = hardware
  /// concurrency); a server-local concern, never on the wire.
  unsigned threads = 0;

  /// Admission bounds (see AdmissionGate).
  int max_inflight = 8;
  int max_queue = 32;

  ServerFaults faults;

  /// Server-side trace sink (borrowed; may be null). Executed requests
  /// record a "request" span in the caller's category (kTwin for eval,
  /// kCampaign for cells, kSvc otherwise); reloads and rejections record
  /// kSvc events.
  obs::TraceSink* trace_sink = nullptr;
};

class SchedServer {
 public:
  /// `world` is the initial resident generation (build it via
  /// make_dataset + World::build before the server accepts).
  SchedServer(twinsvc::Listener listener, std::shared_ptr<const World> world,
              ServerConfig config = {});
  ~SchedServer();
  SchedServer(const SchedServer&) = delete;
  SchedServer& operator=(const SchedServer&) = delete;

  [[nodiscard]] const twinsvc::Endpoint& endpoint() const {
    return acceptor_.endpoint();
  }

  /// Spawn the accept loop on a background thread (tests, examples).
  void start();

  /// Run the accept loop on this thread until stop() (the binary's mode).
  void run();

  /// Stop accepting, shed queued requests, join every connection thread.
  void stop();

  /// The swap point — tests and the binary read the resident version.
  [[nodiscard]] DataFacade& facade() { return facade_; }

  /// Requests fully served (kSvcReply sent).
  [[nodiscard]] std::uint64_t requests_served() const {
    return served_.load(std::memory_order_relaxed);
  }

 private:
  struct ExecOutcome {
    std::string body;
    std::uint64_t world_version = 0;
  };

  void serve_connection(twinsvc::Socket socket);
  /// One frame: admission, dispatch, reply. False = drop the connection.
  [[nodiscard]] bool serve_request(twinsvc::Socket& socket,
                                   const twinsvc::Frame& frame);
  /// kStatsRequest, out-of-band (no admission, no counters).
  [[nodiscard]] bool serve_stats_request(twinsvc::Socket& socket);
  /// Run one admitted request against the current world.
  [[nodiscard]] Result<ExecOutcome> execute(const SvcRequest& request);

  void bump(const char* counter) const;
  void trace_reject(const SvcRequest& request, const char* reason) const;

  ServerConfig config_;
  DataFacade facade_;
  AdmissionGate gate_;
  std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
  std::atomic<std::uint64_t> served_{0};
  /// Admitted plugin requests so far — the fault-injection ordinal.
  std::atomic<std::int64_t> request_ordinal_{0};
  /// Owns the listener and connection threads; declared last so its
  /// destructor joins serve_connection threads before the members they
  /// touch go away.
  twinsvc::ConnectionAcceptor acceptor_;
};

}  // namespace amjs::svc
