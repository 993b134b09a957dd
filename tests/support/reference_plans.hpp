// The from-scratch reference plans: the Plan each machine model was first
// scheduled with, rebuilt from the live machine at every scheduler pass.
// The library plans only through the incremental calendars
// (sched/calendar); these stay here as the independent oracle the
// calendars are pinned against. calendar_conformance_test byte-compares
// whole runs under both (RebuildPlanProvider through Simulator's provider
// seam), and the calendar, plan-contract and window-search suites compare
// their answers query by query.
#pragma once

#include <memory>
#include <vector>

#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"

namespace amjs::test_support {

/// Plan over a flat node pool: a free-capacity step profile.
class FlatPlan final : public Plan {
 public:
  FlatPlan(NodeCount total, SimTime now, const std::vector<RunningAlloc>& running);

  [[nodiscard]] std::unique_ptr<Plan> clone() const override;
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override;
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override;
  void commit(const Job& job, SimTime start) override;
  void undo_last_commit() override;

 private:
  void occupy(SimTime from, SimTime to, NodeCount nodes);

  NodeCount total_;
  SimTime origin_;
  /// Breakpoints of the free-capacity step function; points_[i].free holds
  /// on [points_[i].time, points_[i+1].time). Last segment extends forever.
  struct Step {
    SimTime time;
    NodeCount free;
  };
  std::vector<Step> steps_;
  /// steps_ as it was before each commit, most recent last.
  std::vector<std::vector<Step>> undo_;
};

/// Plan over the partition machine.
///
/// Two layers of future knowledge, mirroring how BG/P-class systems
/// actually plan:
///   * *running* jobs occupy concrete partitions (leaf-mask intervals
///     until their predicted ends) — contiguity against them is exact;
///   * *committed* (reserved) jobs occupy capacity (their tier's node
///     count) but no specific partition — a partition cannot be promised
///     hours ahead on a machine whose jobs end at unpredictable times, so
///     reservations are capacity-shadows that may slip slightly at
///     realization time (exactly as in Cobalt; the simulator re-plans at
///     every event, bounding the slip to one scheduling iteration).
///
/// find_start(job, t) therefore requires BOTH a tier partition free of
/// running-job conflicts over [t, t+walltime) AND enough capacity net of
/// all commitments throughout that window.
class PartitionPlan final : public Plan {
 public:
  PartitionPlan(const PartitionMachine& machine, SimTime now);

  [[nodiscard]] std::unique_ptr<Plan> clone() const override;
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override;
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override;
  void commit(const Job& job, SimTime start) override;
  void commit_soft(const Job& job, SimTime start) override;
  [[nodiscard]] int last_placement() const override { return last_placement_; }
  void undo_last_commit() override;

 private:
  struct MaskInterval {
    SimTime start;
    SimTime end;
    PartitionMachine::LeafMask mask;
  };
  struct CapacityInterval {
    SimTime start;
    SimTime end;
    NodeCount occupied;
  };

  /// Partition of the job's tier with no *running-job* conflict
  /// throughout [t, t + walltime), or -1.
  [[nodiscard]] int free_partition_during(const Job& job, SimTime t) const;

  /// Peak node usage (running + committed) over [t, t + duration).
  [[nodiscard]] NodeCount peak_usage(SimTime t, Duration duration) const;

  [[nodiscard]] bool feasible_at(const Job& job, SimTime t, NodeCount occ) const;

  const PartitionMachine* machine_;  // non-owning; outlives the plan
  SimTime origin_;
  /// Concrete partition holds: running jobs plus hard commits.
  std::vector<MaskInterval> pinned_;
  /// Capacity ledger: every hold (running, hard, soft) contributes here.
  std::vector<CapacityInterval> committed_;
  int last_placement_ = -1;
};

/// A from-scratch reference plan of `machine` as of `now`: a FlatPlan over
/// a FlatMachine, a PartitionPlan over a PartitionMachine. Aborts on any
/// other machine model.
[[nodiscard]] std::unique_ptr<Plan> reference_plan(const Machine& machine, SimTime now);

/// A plan of `machine` as of `now` with whatever it views: the reference
/// plan, or a view of the machine's calendar together with that calendar.
struct PlanUnderTest {
  std::unique_ptr<PlanProvider> calendar;  // null for a reference plan
  std::unique_ptr<Plan> plan;
};
[[nodiscard]] PlanUnderTest plan_under_test(const Machine& machine, SimTime now,
                                            bool reference);

/// Rebuilds a reference plan from the machine at every plan() call.
class RebuildPlanProvider final : public PlanProvider {
 public:
  explicit RebuildPlanProvider(const Machine& machine) : machine_(&machine) {}

  [[nodiscard]] std::unique_ptr<Plan> plan(SimTime now) override {
    return reference_plan(*machine_, now);
  }

 private:
  const Machine* machine_;
};

}  // namespace amjs::test_support
