// Multi-process trace merge — one timeline from N per-process JSONL traces.
//
// A distributed run (campaign driver + sched_server fleet, or a tuner
// with --twin-remote) writes one JSONL trace per process, each on its own
// wall-clock epoch. This tool joins them on the trace context the driver
// stamped into every request envelope (obs/context.hpp): a driver-side
// "rpc" span carries trace_span = dispatch_span_id(request, ordinal); the
// server-side "request" span (the worker span) carries the same ids as
// trace_parent. Equal (category, run, request, ordinal) ⇒ the worker span
// executed inside that dispatch attempt.
//
// Outputs:
//   write_merged_jsonl   — the canonical joined record: every context-
//                          stamped span, wall fields stripped and
//                          nondeterministic args (worker endpoint,
//                          queue_ms) dropped, sorted by (category, run,
//                          request, ordinal, driver-before-worker). Two
//                          identical runs merge to byte-identical output.
//   write_merge_summary_json — fixed-key-order JSON: per-process event
//                          counts, joined / unserved / orphaned totals,
//                          and (only with include_wall) the per-request
//                          wire / queue / exec latency breakdown p50/p95.
//   write_merged_chrome  — Chrome trace_event JSON for Perfetto: one pid
//                          lane per input process, worker clocks
//                          normalized onto the driver's epoch (median
//                          skew over joined pairs), worker spans tied to
//                          their dispatch span with flow arrows.
//
// Join bookkeeping distinguishes two non-joined cases: an *unserved
// dispatch* (driver span with no worker span — the attempt failed before
// the worker finished, e.g. a killed worker) is expected under fault
// injection; an *orphaned worker span* (worker span with no driver span —
// a trace file is missing or ids were mangled) means the merge input is
// incomplete, and CI fails on it.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/context.hpp"
#include "obs/trace.hpp"
#include "util/result.hpp"

namespace amjs::analysis {

/// One input process's trace: a lane label (file basename in the CLI) and
/// its parsed events.
struct ProcessTrace {
  std::string label;
  std::vector<obs::TraceEvent> events;
};

/// One dispatch attempt after the join: the driver span plus the worker
/// span it parented, when one answered.
struct MergedPair {
  obs::TraceCategory category = obs::TraceCategory::kTwin;
  obs::TraceContext context;
  std::size_t driver_process = 0;
  obs::TraceEvent driver_span;
  bool joined = false;
  std::size_t worker_process = 0;  ///< valid iff joined
  obs::TraceEvent worker_span;     ///< valid iff joined
  /// Wall breakdown (ms), meaningful only when the traces carried wall
  /// fields and the pair joined: the driver round trip splits into the
  /// worker's queue (decode + injected stall), its execution span, and
  /// the wire remainder.
  double driver_ms = 0.0;
  double queue_ms = 0.0;
  double exec_ms = 0.0;
  double wire_ms = 0.0;
};

/// Worker span whose (category, run, request, ordinal) matched no driver
/// dispatch span — evidence of an incomplete merge input.
struct OrphanSpan {
  std::size_t process = 0;
  obs::TraceEvent span;
};

struct MergeResult {
  std::vector<ProcessTrace> processes;
  /// Joined + unserved dispatch attempts, sorted by (category, run,
  /// request, ordinal).
  std::vector<MergedPair> pairs;
  std::vector<OrphanSpan> orphans;
  std::size_t joined = 0;
  std::size_t unserved_dispatches = 0;
  /// Per-process clock normalization: milliseconds to add to a process's
  /// wall_start_ms to land on the driver's epoch (median of driver-span
  /// midpoint − worker-span midpoint over that process's joined pairs;
  /// 0 for driver processes and for workers with no joined span).
  std::vector<double> skew_offset_ms;
};

/// Join the traces. Fails on a duplicate dispatch span (two driver spans
/// claiming the same (category, run, request, ordinal) — corrupt input).
/// Order of `traces` fixes process indices / Perfetto pid lanes.
[[nodiscard]] Result<MergeResult> merge_traces(std::vector<ProcessTrace> traces);

/// File variant: reads each path with the JSONL reader; labels are the
/// path basenames. Error context names the offending path.
[[nodiscard]] Result<MergeResult> merge_trace_files(
    const std::vector<std::string>& paths);

void write_merged_jsonl(std::ostream& out, const MergeResult& merged);
void write_merge_summary_json(std::ostream& out, const MergeResult& merged,
                              bool include_wall);
void write_merged_chrome(std::ostream& out, const MergeResult& merged);

}  // namespace amjs::analysis
