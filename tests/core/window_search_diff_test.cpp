// Differential suite: WindowAllocator's pruned search vs the reference
// search it replaced (tests/support/window_search_reference.*).
//
// The pruned search must choose the same permutation — same job order, same
// starts — with the same makespan and the same permutations_tried count,
// because its cuts only skip subtrees holding no leaf that strictly beats
// the incumbent. Random contended windows (W = 2..8) on both machine models
// are decided on both plan implementations: the incremental calendar views
// and the from-scratch reference plans (tests/support/reference_plans.*).
// Shapes are drawn from small sets, so same-shape jobs — the symmetry
// cut's target — are common. A second family builds transposition-heavy
// windows: jobs of distinct shapes that all fit now together beside one
// that does not, so many placement orders reach the same (placed jobs,
// starts, placements) state — the transposition cut's target.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "core/window_alloc.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"
#include "support/reference_plans.hpp"
#include "support/window_search_reference.hpp"
#include "util/rng.hpp"

namespace amjs {
namespace {

enum class MachineKind { kFlat, kPartition };
enum class PlanKind { kCalendar, kReference };

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

/// Decide `window` with the pruned and the reference search, each on a
/// fresh plan of `kind`, and require the same ids, starts, makespan and
/// permutations_tried. Returns the reference's permutations_tried.
std::size_t expect_matches_reference(const Machine& machine, PlanKind kind,
                                     const std::vector<const Job*>& window,
                                     SimTime now, int trial) {
  const WindowAllocator alloc(8);
  const bool reference = kind == PlanKind::kReference;
  const auto expected_plan = test_support::plan_under_test(machine, now, reference);
  const auto actual_plan = test_support::plan_under_test(machine, now, reference);
  const WindowDecision expected =
      test_support::reference_window_decide(*expected_plan.plan, window, now);
  const WindowDecision actual = alloc.decide(*actual_plan.plan, window, now);

  EXPECT_EQ(actual.makespan, expected.makespan) << "trial " << trial;
  EXPECT_EQ(actual.permutations_tried, expected.permutations_tried)
      << "trial " << trial;
  EXPECT_EQ(actual.placements.size(), expected.placements.size()) << "trial " << trial;
  for (std::size_t i = 0;
       i < std::min(actual.placements.size(), expected.placements.size()); ++i) {
    EXPECT_EQ(actual.placements[i].id, expected.placements[i].id)
        << "trial " << trial << " slot " << i;
    EXPECT_EQ(actual.placements[i].start, expected.placements[i].start)
        << "trial " << trial << " slot " << i;
  }
  return expected.permutations_tried;
}

using Param = std::tuple<MachineKind, PlanKind, int>;

class WindowSearchDiffTest : public ::testing::TestWithParam<Param> {};

TEST_P(WindowSearchDiffTest, PrunedSearchMatchesReference) {
  const auto [machine_kind, plan_kind, w] = GetParam();
  const Shapes shapes = shapes_for(machine_kind);
  Rng rng(static_cast<std::uint64_t>(1000 * w + 10 * static_cast<int>(machine_kind) +
                                     static_cast<int>(plan_kind)));
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

    if (expect_matches_reference(*machine, plan_kind, window, now, trial) > 1) ++improved;
  }
  // The cases must exercise the search, not only its skip rules: in some
  // of them (most, for W >= 4) reordering beats priority order.
  EXPECT_GT(improved, 0) << "no window where reordering pays";
}

class WindowSearchTranspositionTest : public ::testing::TestWithParam<Param> {};

TEST_P(WindowSearchTranspositionTest, TranspositionHeavyWindowsMatchReference) {
  // W - 1 jobs of distinct shapes that fit now together, and one job (at a
  // random priority position) that needs more than is free now. Placing
  // the small jobs in any order gives each the same start and, on the
  // partition machine, often the same partition, so most orders of a
  // subset reach a state another order already expanded.
  const auto [machine_kind, plan_kind, w] = GetParam();
  Rng rng(static_cast<std::uint64_t>(7000 + 100 * w + 10 * static_cast<int>(machine_kind) +
                                     static_cast<int>(plan_kind)));
  const bool flat = machine_kind == MachineKind::kFlat;
  // Flat: 100 nodes with 40 held; the small jobs take 2..8 nodes, so all
  // of them (at most 56) fit now together. Partition: 4096 nodes with one
  // 2048-node row held; the small jobs take 512 or 1024 nodes, so up to
  // four fit now together, and which partition each gets depends on the
  // order. The big job needs more than is free now on either machine.
  const std::vector<NodeCount> small_nodes =
      flat ? std::vector<NodeCount>{2, 3, 4, 5, 6, 7, 8} : std::vector<NodeCount>{512, 1024};
  const std::vector<Duration> walltimes = {100, 150, 200, 250, 300, 350, 400, 450};
  const int trials = w <= 6 ? 30 : w == 7 ? 16 : 8;
  int improved = 0;
  for (int trial = 0; trial < trials; ++trial) {
    auto machine = make_machine(machine_kind);
    (void)machine->start(make_job(100, flat ? 40 : 2048, pick(walltimes, rng)), 0);
    const SimTime now = rng.uniform_int(0, 50);

    // Distinct (nodes, walltime) shapes: one walltime per small job.
    std::vector<Duration> walls = walltimes;
    for (std::size_t i = walls.size(); i > 1; --i) {
      std::swap(walls[i - 1], walls[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }
    std::vector<Job> jobs;
    const auto big_at = static_cast<JobId>(rng.uniform_int(0, w - 1));
    for (JobId i = 0; i < w; ++i) {
      if (i == big_at) {
        jobs.push_back(make_job(i, flat ? rng.uniform_int(61, 100) : 4096,
                                pick(walltimes, rng)));
      } else {
        jobs.push_back(make_job(i, pick(small_nodes, rng), walls[static_cast<std::size_t>(i)]));
      }
    }
    std::vector<const Job*> window;
    for (const Job& j : jobs) window.push_back(&j);
    if (expect_matches_reference(*machine, plan_kind, window, now, trial) > 1) ++improved;
  }
  EXPECT_GT(improved, 0) << "no window where reordering pays";
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  const auto [machine_kind, plan_kind, w] = info.param;
  std::string name = machine_kind == MachineKind::kFlat ? "Flat" : "Partition";
  name += plan_kind == PlanKind::kCalendar ? "Calendar" : "Reference";
  return name + "W" + std::to_string(w);
}

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSearchDiffTest,
    ::testing::Combine(::testing::Values(MachineKind::kFlat, MachineKind::kPartition),
                       ::testing::Values(PlanKind::kCalendar, PlanKind::kReference),
                       ::testing::Range(2, 9)),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    Windows, WindowSearchTranspositionTest,
    ::testing::Combine(::testing::Values(MachineKind::kFlat, MachineKind::kPartition),
                       ::testing::Values(PlanKind::kCalendar, PlanKind::kReference),
                       ::testing::Range(3, 9)),
    param_name);

}  // namespace
}  // namespace amjs
