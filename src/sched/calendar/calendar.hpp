// Incremental reservation calendars — the library's only source of
// scheduler Plans.
//
// A PlanProvider is a long-lived calendar over one machine, mutated by
// event deltas instead of rebuilt from the running set at every pass:
//
//   * job start / job end deltas are *recorded* as they happen and
//     *applied* lazily at the next plan() call — a scheduler's live plan
//     view must not see mid-pass machine mutations (the scheduler already
//     committed those jobs into its own view);
//   * plan() hands out a Plan view whose commits land in a small per-pass
//     overlay; the shared base profile is never touched by a view, so the
//     window search walks its permutation tree by commit + undo on one
//     view, and Plan::clone() copies only the overlay;
//   * find_start results against the bare base profile are memoized per
//     (job, earliest-range) in a FindStartMemo and invalidated by the
//     calendar epoch, which bumps whenever an applied delta changes the
//     profile.
//
// Equivalence contract: a calendar view must answer find_start / fits_at /
// commit byte-identically to a plan rebuilt from scratch from the live
// machine at the same instant. Those rebuild plans live on as the test
// oracle (tests/support/reference_plans.*); the conformance and
// differential suites in tests/sched hold both side by side.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "platform/machine.hpp"

namespace amjs {

/// A long-lived source of Plan views over one machine's future.
///
/// Lifetime contract: a view returned by plan() is valid until the next
/// plan() call (one scheduler pass); the provider must outlive its views.
/// Deltas may be recorded at any time; they take effect at the next
/// plan() call.
class PlanProvider {
 public:
  virtual ~PlanProvider() = default;

  /// A Plan view of the machine's future as of `now`. `now` must be
  /// monotonically non-decreasing across calls.
  [[nodiscard]] virtual std::unique_ptr<Plan> plan(SimTime now) = 0;

  /// `job` just started on the machine at `now` (the machine already
  /// holds the allocation; implementations capture placement/occupancy
  /// from it immediately, application is deferred to the next plan()).
  virtual void on_job_start(const Job& job, SimTime now) { (void)job, (void)now; }

  /// `job`'s allocation was just released at `now`.
  virtual void on_job_finish(JobId job, SimTime now) { (void)job, (void)now; }

  /// The machine changed wholesale (reset / snapshot restore): drop all
  /// derived state and pending deltas; the next plan() rebuilds from the
  /// live machine.
  virtual void resync() {}

  /// Profile epoch: bumps whenever applied deltas changed the base
  /// profile. Memoized query results are valid within one epoch only.
  [[nodiscard]] virtual std::uint64_t epoch() const { return 0; }
};

/// A calendar's find_start memo for views with no commitments of their
/// own. A start s found from earliest_lo answers any later query for the
/// same job shape with earliest in [earliest_lo, s]: nothing in
/// [earliest_lo, s) is feasible, so the least feasible start at or after
/// such an earliest is still s (property (b) of the Plan contract). Valid
/// within one calendar epoch; the owner clears it at every epoch bump.
class FindStartMemo {
 public:
  /// The memoized start for `job` from `earliest`, computing it with
  /// `scan()` (and remembering it) when no entry covers `earliest`.
  template <typename Scan>
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest, Scan&& scan) {
    const auto it = entries_.find(job.id);
    if (it != entries_.end() && it->second.nodes == job.nodes &&
        it->second.walltime == job.walltime && earliest >= it->second.earliest_lo &&
        earliest <= it->second.start) {
      return it->second.start;
    }
    const SimTime start = scan();
    entries_[job.id] = Entry{earliest, start, job.nodes, job.walltime};
    return start;
  }

  void clear() { entries_.clear(); }

 private:
  struct Entry {
    SimTime earliest_lo;
    SimTime start;
    NodeCount nodes;
    Duration walltime;
  };
  std::map<JobId, Entry> entries_;
};

/// The incremental calendar of `machine`'s concrete model (FlatCalendar,
/// PartitionCalendar). A machine model without a calendar has no plans:
/// this aborts, and such a machine runs only under a Simulator handed a
/// PlanProvider explicitly.
[[nodiscard]] std::unique_ptr<PlanProvider> make_plan_provider(const Machine& machine);

}  // namespace amjs
