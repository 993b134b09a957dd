// Differential suite: WindowAllocator's pruned search vs the reference
// search it replaced (tests/support/window_search_reference.*).
//
// The pruned search must choose the same permutation — same job order, same
// starts — with the same makespan and the same permutations_tried count,
// because its cuts only skip subtrees holding no leaf that strictly beats
// the incumbent. Random contended windows (W = 2..8) on both machine models
// are decided on every plan implementation: the incremental calendar views,
// the machines' from-scratch reference plans, and the clone-per-branch
// fallback (NoUndoPlan). Shapes are drawn from small sets, so same-shape
// jobs — the symmetry cut's target — are common.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/window_alloc.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"
#include "support/no_undo_plan.hpp"
#include "support/window_search_reference.hpp"
#include "util/rng.hpp"

namespace amjs {
namespace {

enum class MachineKind { kFlat, kPartition };
enum class PlanKind { kCalendar, kReference, kNoUndo };

struct Shapes {
  std::vector<NodeCount> nodes;
  std::vector<Duration> walltimes;
};

Shapes shapes_for(MachineKind kind) {
  if (kind == MachineKind::kFlat) return {{10, 20, 30, 50, 70}, {100, 200, 400}};
  return {{400, 512, 1024, 2048, 3000}, {100, 200, 400}};
}

std::unique_ptr<Machine> make_machine(MachineKind kind) {
  if (kind == MachineKind::kFlat) return std::make_unique<FlatMachine>(100);
  PartitionConfig topo;
  topo.leaf_nodes = 512;
  topo.row_leaves = 4;
  topo.rows = 2;  // 4096 nodes, tiers 512..4096
  return std::make_unique<PartitionMachine>(topo);
}

Job make_job(JobId id, NodeCount nodes, Duration walltime) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

template <typename T>
const T& pick(const std::vector<T>& values, Rng& rng) {
  return values[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(values.size()) - 1))];
}

/// A plan of `kind` over `machine` at `now`, with the provider it views.
struct PlanUnderTest {
  std::unique_ptr<PlanProvider> provider;
  std::unique_ptr<Plan> plan;
};

PlanUnderTest make_plan(const Machine& machine, PlanKind kind, SimTime now) {
  PlanUnderTest out;
  if (kind == PlanKind::kReference) {
    out.plan = machine.make_plan(now);
    return out;
  }
  out.provider = make_plan_provider(machine, PlanMode::kCalendar);
  out.plan = out.provider->plan(now);
  if (kind == PlanKind::kNoUndo) {
    out.plan = std::make_unique<test_support::NoUndoPlan>(std::move(out.plan));
  }
  return out;
}

using Param = std::tuple<MachineKind, PlanKind, int>;

class WindowSearchDiffTest : public ::testing::TestWithParam<Param> {};

TEST_P(WindowSearchDiffTest, PrunedSearchMatchesReference) {
  const auto [machine_kind, plan_kind, w] = GetParam();
  const Shapes shapes = shapes_for(machine_kind);
  Rng rng(static_cast<std::uint64_t>(1000 * w + 10 * static_cast<int>(machine_kind) +
                                     static_cast<int>(plan_kind)));
  const WindowAllocator alloc(8);
  // Fewer trials at the widest windows, where the reference search is slow.
  const int trials = w <= 6 ? 40 : w == 7 ? 12 : 4;
  int improved = 0;
  for (int trial = 0; trial < trials; ++trial) {
    auto machine = make_machine(machine_kind);
    // A running set with staggered predicted ends: something fits now,
    // not everything does.
    const auto running = rng.uniform_int(1, 3);
    for (JobId r = 0; r < running; ++r) {
      (void)machine->start(make_job(100 + r, pick(shapes.nodes, rng),
                                    pick(shapes.walltimes, rng) + 50 * r),
                           0);
    }
    const SimTime now = rng.uniform_int(0, 90);
    std::vector<Job> jobs;
    for (JobId i = 0; i < w; ++i) {
      jobs.push_back(make_job(i, pick(shapes.nodes, rng), pick(shapes.walltimes, rng)));
    }
    std::vector<const Job*> window;
    for (const Job& j : jobs) window.push_back(&j);

    // Separate plans, so neither search can see the other's memo entries.
    const PlanUnderTest expected_plan = make_plan(*machine, plan_kind, now);
    const PlanUnderTest actual_plan = make_plan(*machine, plan_kind, now);
    const WindowDecision expected =
        test_support::reference_window_decide(*expected_plan.plan, window, now);
    const WindowDecision actual = alloc.decide(*actual_plan.plan, window, now);

    EXPECT_EQ(actual.makespan, expected.makespan) << "trial " << trial;
    EXPECT_EQ(actual.permutations_tried, expected.permutations_tried)
        << "trial " << trial;
    ASSERT_EQ(actual.placements.size(), expected.placements.size()) << "trial " << trial;
    for (std::size_t i = 0; i < actual.placements.size(); ++i) {
      EXPECT_EQ(actual.placements[i].id, expected.placements[i].id)
          << "trial " << trial << " slot " << i;
      EXPECT_EQ(actual.placements[i].start, expected.placements[i].start)
          << "trial " << trial << " slot " << i;
    }
    if (expected.permutations_tried > 1) ++improved;
  }
  // The cases must exercise the search, not only its skip rules: in some
  // of them (most, for W >= 4) reordering beats priority order.
  EXPECT_GT(improved, 0) << "no window where reordering pays";
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [machine_kind, plan_kind, w] = info.param;
  std::string name = machine_kind == MachineKind::kFlat ? "Flat" : "Partition";
  name += plan_kind == PlanKind::kCalendar    ? "Calendar"
          : plan_kind == PlanKind::kReference ? "Reference"
                                              : "NoUndo";
  return name + "W" + std::to_string(w);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSearchDiffTest,
    ::testing::Combine(::testing::Values(MachineKind::kFlat, MachineKind::kPartition),
                       ::testing::Values(PlanKind::kCalendar, PlanKind::kReference,
                                         PlanKind::kNoUndo),
                       ::testing::Range(2, 9)),
    param_name);

}  // namespace
}  // namespace amjs
