// The client side of the service.
//
// Client is the one round trip every caller uses — RemoteTwinEngine,
// the campaign driver, FleetMonitor's stats poll and svc::SvcClient's
// typed plugin calls: dial if needed, send one envelope, read one reply,
// all inside one timeout budget. Replies map onto Result:
//
//   kSvcReply   -> the reply (world_version recorded, see
//                  last_world_version())
//   kSvcBusy    -> an Error naming "busy" (is_busy() classifies it)
//   kError      -> the server's message, verbatim
//
// The connection persists across calls until its stream state is no
// longer known — a transport or decode failure, a reply for another
// request, an unexpected frame type, or a kError with request id 0 (the
// server sends those only just before it hangs up) — and the next call
// re-dials. A request-level kError or a kSvcBusy keeps it. The client
// never retries; callers own their retry policy.
//
// RemoteTwinEngine is the TwinBackend over that round trip: it ships
// candidate batches to scheduler services (the eval plugin) so
// WhatIfTuner's fork fan-out can leave the process. Candidates shard into
// contiguous chunks, one per server endpoint, dispatched concurrently.
// Each chunk is encoded once; every attempt wraps it in a fresh envelope
// carrying that attempt's trace context and bounded by the per-attempt
// deadline. A failed attempt (connect error, timeout, corrupt frame,
// server-reported error, busy) retries on the next endpoint after
// exponential backoff, up to `max_retries` re-dispatches. A chunk that
// exhausts its retries is scored by the in-process fallback engine
// instead — evaluate() never fails and, because every backend is
// verdict-bit-identical, degradation changes latency only, never the
// tuner's decision.
//
// Observability (all gated on obs::Registry::enabled()):
//   counters twinsvc.consults / .dispatches / .retries / .rpc_errors /
//            .fallbacks / .remote_candidates / .fallback_candidates
//   timers   twinsvc.consult (whole evaluate), twinsvc.rpc (per attempt)
//   trace    kTwin "dispatch" / "remote_verdict" / "fallback" events and
//            one "rpc" span per attempt via the sink passed to evaluate().
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "core/twin_backend.hpp"
#include "platform/machine_spec.hpp"
#include "twinsvc/frame.hpp"
#include "twinsvc/socket.hpp"

namespace amjs::twinsvc {

struct ClientConfig {
  Endpoint endpoint;
  /// One budget for a whole call: connect, send and the reply.
  int timeout_ms = 30000;
  /// Deadline budget stamped into every request (0 = none; negative
  /// requests are rejected by the server without executing).
  std::int64_t deadline_ms = 0;
};

class Client {
 public:
  explicit Client(ClientConfig config);

  /// True when `error` is the kSvcBusy outcome of a call.
  [[nodiscard]] static bool is_busy(const Error& error);

  /// One plugin request out, one reply in. `context` is this attempt's
  /// trace context (empty when not tracing).
  [[nodiscard]] Result<SvcReply> call(Plugin plugin, std::string_view body,
                                      const obs::TraceContext& context = {});

  /// Out-of-band registry poll (kStatsRequest), no admission involved.
  [[nodiscard]] Result<obs::StatsSnapshot> stats();

  /// World version stamped on the most recent successful reply.
  [[nodiscard]] std::uint64_t last_world_version() const {
    return last_world_version_;
  }

 private:
  /// Dial if needed, send `frame_bytes`, read one frame, all within
  /// timeout_ms. Closes the connection on any failure.
  [[nodiscard]] Result<Frame> round_trip(std::string_view frame_bytes);

  ClientConfig config_;
  Socket socket_;
  std::uint64_t next_request_id_ = 1;
  std::uint64_t last_world_version_ = 0;
};

struct RemoteTwinConfig {
  /// Server pool; empty means every consult runs on the fallback engine.
  std::vector<Endpoint> workers;

  /// Fork horizon / cadence / objective weights, sent with every request;
  /// `twin.threads` drives the fallback engine and chunk concurrency.
  TwinConfig twin;

  /// Per-attempt deadline covering connect + send + the reply.
  int request_timeout_ms = 60000;

  /// Re-dispatches after the first attempt, per chunk.
  int max_retries = 2;

  /// Exponential backoff before retry k: base * 2^(k-1), capped.
  int backoff_base_ms = 100;
  int backoff_max_ms = 2000;

  /// Trace-context run id stamped into every dispatched request (0 = not
  /// tracing distributedly). Server-side spans carry it back, so one
  /// merge joins only this run's spans.
  std::uint64_t trace_run_id = 0;
};

class RemoteTwinEngine final : public TwinBackend {
 public:
  /// `machine` must describe the live machine's model/topology — it is
  /// shipped to servers and builds the fallback engine's forks.
  RemoteTwinEngine(MachineSpec machine, RemoteTwinConfig config);

  /// Never fails: chunks that cannot be served remotely fall back to the
  /// in-process engine. Results are in candidate order, bit-identical to
  /// TwinEngine::evaluate on the same inputs (except wall_ms).
  [[nodiscard]] Result<std::vector<TwinForkResult>> evaluate(
      const JobTrace& trace, const SimSnapshot& snapshot,
      const std::vector<TwinCandidateSpec>& candidates,
      obs::TraceSink* sink = nullptr) override;

  [[nodiscard]] std::string name() const override { return "twin-remote"; }

  [[nodiscard]] const RemoteTwinConfig& config() const { return config_; }

 private:
  struct ChunkOutcome {
    std::vector<TwinForkResult> results;
    bool remote = false;  // false = served by the fallback engine
  };

  [[nodiscard]] ChunkOutcome run_chunk(const JobTrace& trace,
                                       const SimSnapshot& snapshot,
                                       const std::vector<TwinCandidateSpec>& chunk,
                                       std::size_t chunk_index,
                                       obs::TraceSink* sink);

  /// One dispatch attempt against one server.
  [[nodiscard]] Result<std::vector<TwinForkResult>> attempt(
      const Endpoint& worker, const std::string& body,
      const obs::TraceContext& context, std::size_t expected) const;

  MachineSpec machine_;
  RemoteTwinConfig config_;
  LocalTwinBackend fallback_;
  std::atomic<std::uint64_t> next_request_id_{1};
};

}  // namespace amjs::twinsvc
