// SimSnapshot — a full mid-run checkpoint of the simulator.
//
// Snapshot point contract. A snapshot is taken at one of two points of an
// instant, recorded in SimSnapshot::point:
//
//  * kMetricCheck (SimConfig::snapshot_sink, or SchedContext::capture()
//    inside Scheduler::on_metric_check): after the instant's job events
//    were dispatched, the queue-depth sample recorded, and the next metric
//    check enqueued — but *before* the scheduler's on_metric_check and
//    schedule() passes of that instant. Simulator::resume replays exactly
//    that tail (tuning callback, scheduling pass, event-record bookkeeping)
//    and then drains the event queue.
//  * kInstantEnd (SchedContext::capture() inside SimConfig::on_instant_end):
//    after the instant's scheduling pass and its event record — the
//    instant is complete. Simulator::resume goes straight to the event
//    loop; there is no tail to replay. These snapshots exist for in-process
//    forks (the fair-start oracle) and are not serializable: the snapshot
//    codec refuses them.
//
// Either way, resuming with ResumeScheduler::kRestore reproduces the
// uninterrupted run bit for bit.
//
// Snapshots are value types: copying one is cheap-ish (the vectors copy;
// the machine and scheduler states are shared immutably), and one snapshot
// may seed any number of forks. Restoring never mutates the snapshot.
//
// Ownership rule: the MachineState/SchedulerState held here are frozen.
// A machine restored from a snapshot owns its state copy outright — the
// twin engine's forks each restore into their own Machine instance and
// then diverge freely without touching the snapshot or each other.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "util/result.hpp"

namespace amjs {

struct MachineSpec;

/// Where in its instant a snapshot was taken (see the contract above).
enum class SnapshotPoint : std::uint8_t {
  kMetricCheck,  // before the metric check's tuning callback and pass
  kInstantEnd,   // after the instant's pass and event record
};

struct SimSnapshot {
  /// Instant the snapshot was taken.
  SimTime now = 0;

  SnapshotPoint point = SnapshotPoint::kMetricCheck;

  /// Pending future events (job ends, submits, the next metric check).
  EventQueue events;

  // Per-job simulator state, indexed by JobId.
  std::vector<SimJobState> states;
  std::vector<JobId> queue;  // waiting jobs, submission order
  std::vector<int> attempts;
  std::vector<bool> failure_pending;
  std::vector<SimTime> attempt_start;

  std::size_t unfinished = 0;

  /// Result accumulated so far (schedule entries, series, event records).
  SimResult result;

  /// Did job events coincide with this metric check? (Drives the
  /// record_sched_event bookkeeping when the instant's tail is replayed;
  /// kMetricCheck snapshots only.)
  bool state_changed = false;

  /// The queue-depth sample recorded at this check (minutes; kMetricCheck
  /// snapshots only).
  double queue_depth_minutes = 0.0;

  /// Metric checks processed so far; for a kMetricCheck snapshot, the
  /// 1-based ordinal of the check it was taken at.
  std::size_t check_index = 0;

  /// Immutable saved machine / scheduler states, shared across copies.
  /// `scheduler` may be null (stateless policy).
  std::shared_ptr<const MachineState> machine;
  std::shared_ptr<const SchedulerState> scheduler;

  /// True once populated by capture (a default-constructed snapshot is
  /// not restorable).
  [[nodiscard]] bool valid() const { return machine != nullptr; }
};

/// Cut a kInstantEnd snapshot of a run of `trace` down to the state a run
/// of trace.truncated_at(snapshot.now) — the first `kept` jobs — holds at
/// the same point. The later jobs are still pending: their submit events,
/// per-job slots and share of `unfinished` go. Every other event keeps its
/// seq, so ties pop in the truncated run's order; resuming the result
/// against the truncated trace continues that run exactly, provided the
/// policy's decisions so far did not depend on the later jobs.
void truncate_snapshot(SimSnapshot& snapshot, std::size_t kept);

/// Whether Simulator::resume may take `snapshot` against `trace` on a
/// machine built from `machine`: a snapshot that arrived over the wire is
/// checked here, not left to resume's debug-only asserts. It must be of
/// that machine's model and topology and hold one slot per trace job; its
/// queue, submit events and end events must each name distinct jobs in
/// the queued, pending and running states; and the machine's allocations
/// must be exactly the running jobs'.
[[nodiscard]] Status check_resumable(const JobTrace& trace,
                                     const SimSnapshot& snapshot,
                                     const MachineSpec& machine);

}  // namespace amjs
