// Machine abstraction: live allocation state, plus the *Plan* interface
// schedulers use to reason about future availability. Plans come from the
// machine model's reservation calendar (sched/calendar), not from the
// machine itself.
//
// Two implementations:
//   * FlatMachine      — a simple pool of interchangeable nodes (generic
//                        cluster; exact backfill planning).
//   * PartitionMachine — Blue Gene/P-style contiguous partitions, the
//                        source of the fragmentation the paper's Loss of
//                        Capacity metric measures.
//
// Separation of truth: the live machine knows jobs' *predicted* ends
// (start + walltime) only. Actual completion is the simulator's business —
// it calls finish() when the trace says the job really ended.
#pragma once

#include <memory>
#include <vector>

#include "util/types.hpp"
#include "workload/job.hpp"

namespace amjs {

/// Opaque saved allocation state of a Machine (see Machine::save_state).
/// Concrete machines define their own subclass; a state object is immutable
/// once saved and may be restored into any machine of the same model and
/// topology, any number of times (the digital-twin engine restores one
/// state into many independent fork machines).
class MachineState {
 public:
  virtual ~MachineState() = default;
};

/// A live allocation entry.
struct RunningAlloc {
  JobId job = kInvalidJob;
  /// Nodes actually occupied (>= job.nodes on a partition machine).
  NodeCount occupied = 0;
  SimTime start = 0;
  /// start + walltime: when the scheduler must assume the nodes free up.
  SimTime predicted_end = 0;
};

/// A what-if model of future occupancy, seeded from the live machine's
/// running set. Schedulers commit hypothetical placements into a plan to
/// build reservations and to evaluate window permutations; plans never
/// touch the live machine. The window search walks its permutation tree
/// by commit + undo_last_commit on one plan, so it clones a plan a couple
/// of times per decision, not per branch (a calendar view's clone() copies
/// only its own commitments).
class Plan {
 public:
  virtual ~Plan() = default;

  [[nodiscard]] virtual std::unique_ptr<Plan> clone() const = 0;

  /// Earliest t >= earliest at which `job` could run for its full walltime
  /// given running jobs and prior commitments. Always succeeds for a job
  /// that fits the machine (the far future is empty).
  ///
  /// Every implementation returns the least feasible start, so two
  /// properties hold that callers may rely on:
  ///   (a) a commit (hard or soft) never makes find_start(job, e) earlier —
  ///       it only removes capacity;
  ///   (b) for every e' in [e, find_start(job, e)], find_start(job, e')
  ///       returns the same value — nothing in [e, answer) is feasible.
  /// A third holds because every implementation keeps its commitments as
  /// a set (interval lists, a merged step profile):
  ///   (c) a plan's answers — find_start, fits_at and the placement a
  ///       later commit picks — depend only on the multiset of hard
  ///       commitments added to it (each job's nodes and walltime, start
  ///       and last_placement()), not on the order they were added in.
  /// A fourth holds because a larger or longer job needs a superset of
  /// what a smaller, shorter one needs:
  ///   (d) within one plan, if fits_at(j, t) is false, so is fits_at(j', t)
  ///       for every j' with occupancy(j') >= occupancy(j) and
  ///       walltime(j') >= walltime(j). On a PartitionMachine this rests on
  ///       every free partition containing a free partition of each
  ///       smaller tier (aligned power-of-two groups in a row, whole rows
  ///       across rows, the full machine).
  /// The window search's whole-node bound rests on (a), its parent-start
  /// query floors on (a) and (b) together, and its transposition cut on
  /// (c). The backfill probe filter (sched/backfill.hpp) rests on (a) and
  /// (d): a refusal stays a refusal for every dominating job until the
  /// pass ends.
  [[nodiscard]] virtual SimTime find_start(const Job& job, SimTime earliest) const = 0;

  /// Could `job` run for its full walltime starting exactly at `t`?
  /// Equivalent to find_start(job, t) == t but O(one feasibility check) —
  /// backfill admission tests sit in the scheduler's innermost loop and
  /// must not pay find_start's full forward scan on every rejection.
  [[nodiscard]] virtual bool fits_at(const Job& job, SimTime t) const = 0;

  /// Record `job` as occupying the machine on [start, start + walltime).
  /// `start` must come from find_start (asserted feasible in debug builds).
  ///
  /// A hard commit claims concrete resources (on a partition machine: a
  /// specific partition), guaranteeing contiguity at `start`. Use it for
  /// immediate starts and for reservations the policy must never delay
  /// (EASY's head, conservative backfilling's reservations).
  virtual void commit(const Job& job, SimTime start) = 0;

  /// Capacity-only commitment: reserves the job's node count over the
  /// window but no specific placement. On machines with placement
  /// constraints the realized start may slip slightly (re-planned every
  /// scheduling event); machines without placement constraints treat it
  /// as commit(). Use for lower-priority window reservations, where hard
  /// pinning would throttle backfill far more than the real system does.
  virtual void commit_soft(const Job& job, SimTime start) { commit(job, start); }

  /// Opaque placement token of the most recent commit (-1 when the
  /// machine model has no placement choice, e.g. a flat node pool).
  ///
  /// Schedulers MUST pass this to Machine::start() when starting a job
  /// they just committed at "now": on a partition machine the plan and the
  /// live machine would otherwise make independent placement choices, and
  /// a backfilled job physically landing on a partition the plan reserved
  /// for someone else silently breaks the reservation.
  [[nodiscard]] virtual int last_placement() const { return -1; }

  /// Exactly reverse the most recent commit() on this plan: every later
  /// find_start / fits_at answer, and the placement a later commit picks,
  /// equal those of the plan before that commit. Strict LIFO order, hard
  /// commits only (commit_soft is not undoable). last_placement() is
  /// unspecified afterwards.
  virtual void undo_last_commit() = 0;
};

class Machine {
 public:
  virtual ~Machine() = default;

  [[nodiscard]] virtual NodeCount total_nodes() const = 0;
  [[nodiscard]] virtual NodeCount busy_nodes() const = 0;
  [[nodiscard]] NodeCount idle_nodes() const { return total_nodes() - busy_nodes(); }

  /// Can this job ever run on this machine?
  [[nodiscard]] virtual bool fits(const Job& job) const = 0;

  /// Nodes the job will actually occupy (partition rounding included).
  [[nodiscard]] virtual NodeCount occupancy(const Job& job) const = 0;

  /// Could the job start right now? Refusals are monotone in occupancy
  /// alone: if the machine refuses j, it refuses every j' with
  /// occupancy(j') >= occupancy(j) until an allocation is released.
  [[nodiscard]] virtual bool can_start(const Job& job) const = 0;

  /// Allocate and start the job now. Returns false (no state change) if it
  /// cannot start. `placement` pins the allocation to a Plan's choice
  /// (Plan::last_placement()); -1 lets the machine choose.
  [[nodiscard]] virtual bool start(const Job& job, SimTime now,
                                   int placement = -1) = 0;

  /// Release the job's allocation (the simulator observed its real end).
  virtual void finish(JobId job, SimTime now) = 0;

  /// Snapshot of running allocations (unspecified order).
  [[nodiscard]] virtual std::vector<RunningAlloc> running() const = 0;

  /// Capture the full allocation state. The returned object is detached
  /// from this machine: later mutations do not affect it.
  [[nodiscard]] virtual std::unique_ptr<MachineState> save_state() const = 0;

  /// Overwrite the allocation state with `state`, which must have been
  /// saved from a machine of the same model and topology (asserted in
  /// debug builds). `state` is not consumed and may be restored again.
  virtual void restore_state(const MachineState& state) = 0;

  /// Drop all allocations (fresh simulation run).
  virtual void reset() = 0;
};

}  // namespace amjs
