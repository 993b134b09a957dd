// ProbeFilter against the unfiltered probe it replaces. Over random
// backfill passes on both machine models and both plan sources (the
// calendar, and the reference plan of tests/support), admits(j)
// must equal machine.can_start(j) && plan.fits_at(j, now) for every probe,
// while each admitted job is committed and started exactly as backfill()
// does — so the refusals the filter remembers really do face a machine and
// a plan that only lose capacity.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>

#include "obs/registry.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/backfill.hpp"
#include "sched/calendar/calendar.hpp"
#include "support/reference_plans.hpp"
#include "util/rng.hpp"

namespace amjs {
namespace {

enum class MachineKind { kFlat, kPartition };
/// Where a pass's plan comes from: the machine's calendar, or a reference
/// plan rebuilt from the machine.
enum class PlanSource : std::uint8_t { kCalendar, kRebuild };

// Intrepid's topology on the partition side: five 16-midplane rows, so
// the tiers include cross-row blocks and the non-power-of-two full machine.
std::unique_ptr<Machine> make_machine(MachineKind kind) {
  if (kind == MachineKind::kFlat) return std::make_unique<FlatMachine>(4096);
  return std::make_unique<PartitionMachine>(PartitionConfig{});
}

Job random_job(JobId id, NodeCount max_nodes, Rng& rng) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.nodes = rng.uniform_int(1, max_nodes);
  j.walltime = rng.uniform_int(60, 7200);
  j.runtime = j.walltime;
  return j;
}

class ProbeFilterTest
    : public ::testing::TestWithParam<std::tuple<MachineKind, PlanSource>> {};

TEST_P(ProbeFilterTest, AnswersEqualTheUnfilteredProbe) {
  const auto [kind, source] = GetParam();
  Rng rng(kind == MachineKind::kFlat ? 81 : 83);
  const bool was_enabled = obs::Registry::enabled();
  obs::Registry::set_enabled(true);
  obs::Registry::global().reset_values();

  std::size_t admitted = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto machine = make_machine(kind);
    const NodeCount total = machine->total_nodes();
    for (JobId r = 0; r < 4; ++r) (void)machine->start(random_job(r, total / 4, rng), 0);
    const SimTime now = rng.uniform_int(0, 300);
    std::unique_ptr<PlanProvider> provider = make_plan_provider(*machine);
    if (source == PlanSource::kRebuild) {
      provider = std::make_unique<test_support::RebuildPlanProvider>(*machine);
    }
    const auto plan = provider->plan(now);
    // A blocked head's hard reservation and two window-style soft ones.
    for (JobId w = 100; w < 103; ++w) {
      const Job j = random_job(w, total / 2, rng);
      const SimTime start = plan->find_start(j, now + 1);
      if (w == 100) plan->commit(j, start);
      else plan->commit_soft(j, start);
    }

    ProbeFilter filter(*machine, *plan, now);
    for (JobId q = 1000; q < 1060; ++q) {
      // Mostly narrow probes, so passes start some and refuse some.
      const Job j = random_job(q, q % 4 == 0 ? total : total / 8, rng);
      const bool expected = machine->can_start(j) && plan->fits_at(j, now);
      ASSERT_EQ(filter.admits(j), expected)
          << "trial " << trial << " job " << q << " (" << j.nodes << ", "
          << j.walltime << ")";
      if (!expected) continue;
      plan->commit(j, now);
      ASSERT_TRUE(machine->start(j, now, plan->last_placement()));
      ++admitted;
    }
  }
  const auto dominated =
      obs::Registry::global().counter("sched.backfill_dominated").value();
  const auto probes = obs::Registry::global().counter("sched.backfill_probes").value();
  obs::Registry::global().reset_values();
  obs::Registry::set_enabled(was_enabled);

  EXPECT_EQ(probes + dominated, 40u * 60u);
  EXPECT_GE(admitted, 100u);
  EXPECT_GE(dominated, 1000u) << "the filter must actually skip probes here";
}

std::string probe_filter_name(
    const ::testing::TestParamInfo<std::tuple<MachineKind, PlanSource>>& param) {
  const auto [kind, source] = param.param;
  return std::string(kind == MachineKind::kFlat ? "Flat" : "Partition") +
         (source == PlanSource::kCalendar ? "Calendar" : "Rebuild");
}

INSTANTIATE_TEST_SUITE_P(
    Plans, ProbeFilterTest,
    ::testing::Combine(::testing::Values(MachineKind::kFlat, MachineKind::kPartition),
                       ::testing::Values(PlanSource::kCalendar, PlanSource::kRebuild)),
    probe_filter_name);

}  // namespace
}  // namespace amjs
