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
//   * every find_start is the view's own scan of base plus overlay; no
//     answer is kept from one query to the next.
//
// Equivalence contract: a calendar view must answer find_start / fits_at /
// commit byte-identically to a plan rebuilt from scratch from the live
// machine at the same instant. Those rebuild plans live on as the test
// oracle (tests/support/reference_plans.*); the conformance and
// differential suites in tests/sched hold both side by side.
#pragma once

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
};

/// The incremental calendar of `machine`'s concrete model (FlatCalendar,
/// PartitionCalendar). A machine model without a calendar has no plans:
/// this aborts, and such a machine runs only under a Simulator handed a
/// PlanProvider explicitly.
[[nodiscard]] std::unique_ptr<PlanProvider> make_plan_provider(const Machine& machine);

}  // namespace amjs
