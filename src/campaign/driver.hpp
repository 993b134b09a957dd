// Campaign driver — fans cells across a fleet of scheduler services (the
// campaign plugin) and guarantees every cell completes with a
// deterministic result.
//
// Dispatch model: one dispatcher thread per server endpoint, all pulling
// from a shared cell queue through one twinsvc::Client each — a
// persistent connection the client re-dials once its stream state is
// unknown. A failed dispatch (connect error, deadline expiry, corrupt
// frame, server-reported error, busy, abrupt close) requeues the
// cell — bounded by `max_remote_attempts` total dispatches per cell, with
// exponential backoff between a dispatcher's consecutive failures. A
// dispatcher that fails `worker_failure_limit` times in a row retires (its
// in-flight cell is requeued first); when every dispatcher is gone or the
// queue drains, any cell still without a result runs in-process. The
// campaign therefore always finishes, and because results are deduped by
// cell id and aggregated in id order, the outcome is byte-identical to an
// all-local run no matter which workers served, failed, or died (wall_ms
// excepted).
//
// Observability (gated on obs::Registry::enabled()):
//   counters campaign.cells / .dispatches / .requeues / .rpc_errors /
//            .remote_cells / .local_cells / .duplicate_results /
//            .retired_workers / .exhausted_cells
//   timers   campaign.run (whole campaign), campaign.rpc (per dispatch)
//   trace    kCampaign "dispatch" / "cell_result" / "requeue" /
//            "local_cell" events via CampaignConfig::trace_sink, plus one
//            "rpc" span per dispatch attempt carrying the attempt's trace
//            context (DESIGN.md "Distributed observability").
#pragma once

#include <cstddef>
#include <vector>

#include "campaign/campaign.hpp"
#include "obs/trace.hpp"
#include "twinsvc/socket.hpp"
#include "util/result.hpp"

namespace amjs::campaign {

struct CampaignConfig {
  /// Server fleet; empty runs every cell in-process (the reference run
  /// distributed results are compared against).
  std::vector<twinsvc::Endpoint> workers;

  /// Per-dispatch deadline covering connect + send + the reply. The
  /// driver never waits longer than this on any one attempt, so a stalled
  /// server costs one deadline, not a hang.
  int cell_timeout_ms = 120000;

  /// Total remote dispatches allowed per cell before it is left to the
  /// in-process sweep.
  int max_remote_attempts = 3;

  /// Backoff before a dispatcher's k-th consecutive failed attempt:
  /// base * 2^(k-1), capped.
  int backoff_base_ms = 100;
  int backoff_max_ms = 2000;

  /// Consecutive failures before a dispatcher thread retires its endpoint.
  int worker_failure_limit = 3;

  /// Threads for the local path and the completion sweep (0 = hardware).
  unsigned local_threads = 0;

  /// Structured kCampaign events land here (borrowed; null = off).
  obs::TraceSink* trace_sink = nullptr;

  /// Trace-context run id stamped into every dispatched request (0 = not
  /// tracing distributedly); server-side request spans carry it back so
  /// trace_merge joins only this run's spans.
  std::uint64_t trace_run_id = 0;
};

struct CampaignOutcome {
  /// One result per cell, cell-id order, always complete.
  std::vector<CellResult> cells;

  std::size_t remote_cells = 0;     // served by a server
  std::size_t local_cells = 0;      // ran in-process (local path or sweep)
  std::size_t requeues = 0;         // failed dispatches that went back
  std::size_t duplicate_results = 0;
  std::size_t retired_workers = 0;
};

/// Run every cell of `spec` to completion. Fails only on an invalid spec
/// (enumeration errors); server failures degrade to local execution.
[[nodiscard]] Result<CampaignOutcome> run_campaign(
    const CampaignSpec& spec, const CampaignConfig& config = {});

/// Run an already-enumerated cell list (the driver's core; exposed so
/// harnesses can dispatch hand-built cells).
[[nodiscard]] CampaignOutcome run_cells(const std::vector<CellRequest>& cells,
                                        const CampaignConfig& config);

}  // namespace amjs::campaign
