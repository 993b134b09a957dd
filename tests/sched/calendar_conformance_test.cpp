// A/B conformance of the incremental reservation calendars.
//
// The calendars replaced a per-pass rebuild of the plan from the live
// machine with a persistent, delta-updated plan source. Their contract is
// not "approximately the same schedule" but *the* same schedule: every
// policy, on every machine model, must produce a byte-identical
// write_result_json under the calendar and under the rebuilt reference
// plans (tests/support/reference_plans.*). Each test here runs one policy
// family both ways on both machine models over a contended synthetic
// trace and compares the serialized results verbatim.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <sstream>
#include <string>

#include "core/metric_aware.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/conservative.hpp"
#include "sched/easy.hpp"
#include "sched/lookahead.hpp"
#include "sched/relaxed.hpp"
#include "sched/utility.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "support/reference_plans.hpp"
#include "workload/synthetic.hpp"

namespace amjs {
namespace {

using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

/// A contended trace on a 4096-node machine: enough queueing that
/// backfill, reservations, and window search all engage, plus a burst so
/// the deep-queue regime is covered.
JobTrace contended_trace() {
  SyntheticConfig cfg;
  cfg.seed = 7;
  cfg.horizon = hours(24);
  cfg.base_rate_per_hour = 11.0;
  cfg.sizes = {512, 1024, 2048, 4096};
  cfg.size_weights = {0.50, 0.30, 0.15, 0.05};
  cfg.bursts = {{6.0, 3.0, 3.0}};
  return SyntheticTraceBuilder(cfg).build();
}

/// The serialized result of one run, planned by the machine's calendar or,
/// with `reference`, by a reference plan rebuilt at every pass.
std::string run_json(Machine& machine, Scheduler& sched, const JobTrace& trace,
                     bool reference) {
  std::unique_ptr<PlanProvider> plans = make_plan_provider(machine);
  if (reference) plans = std::make_unique<test_support::RebuildPlanProvider>(machine);
  Simulator sim(machine, sched, {}, std::move(plans));
  const SimResult result = sim.run(trace);
  std::ostringstream out;
  write_result_json(out, result);
  return out.str();
}

/// Runs `make_sched`'s policy under the reference plans and the calendars
/// on both machine models and asserts byte-identical serialized results.
void expect_conforms(const SchedulerFactory& make_sched) {
  const JobTrace trace = contended_trace();

  struct MachineCase {
    const char* label;
    std::function<std::unique_ptr<Machine>()> make;
  };
  PartitionConfig topo;
  topo.leaf_nodes = 512;
  topo.row_leaves = 4;
  topo.rows = 2;  // 4096 nodes
  const MachineCase cases[] = {
      {"flat", [] { return std::make_unique<FlatMachine>(4096); }},
      {"partition", [topo] { return std::make_unique<PartitionMachine>(topo); }},
  };

  for (const auto& mc : cases) {
    auto rebuild_machine = mc.make();
    auto rebuild_sched = make_sched();
    const std::string rebuild =
        run_json(*rebuild_machine, *rebuild_sched, trace, /*reference=*/true);

    auto calendar_machine = mc.make();
    auto calendar_sched = make_sched();
    const std::string calendar =
        run_json(*calendar_machine, *calendar_sched, trace, /*reference=*/false);

    EXPECT_EQ(calendar, rebuild)
        << "calendar diverged from the reference plans on " << mc.label << " under "
        << make_sched()->name();
  }
}

TEST(CalendarConformance, EasyFcfs) {
  expect_conforms([] {
    return std::make_unique<EasyBackfillScheduler>(QueueOrder::kFcfs);
  });
}

TEST(CalendarConformance, EasySjf) {
  expect_conforms([] {
    return std::make_unique<EasyBackfillScheduler>(QueueOrder::kSjf);
  });
}

TEST(CalendarConformance, ConservativeFcfs) {
  expect_conforms([] {
    return std::make_unique<ConservativeBackfillScheduler>(QueueOrder::kFcfs);
  });
}

TEST(CalendarConformance, Relaxed) {
  expect_conforms([] { return std::make_unique<RelaxedBackfillScheduler>(); });
}

TEST(CalendarConformance, Lookahead) {
  expect_conforms([] {
    return std::make_unique<LookaheadBackfillScheduler>();
  });
}

TEST(CalendarConformance, UtilityWfp3) {
  expect_conforms([] {
    return std::make_unique<UtilityScheduler>(UtilityScheduler::wfp3());
  });
}

TEST(CalendarConformance, MetricAwareEasyWindow3) {
  expect_conforms([] {
    MetricAwareConfig cfg;
    cfg.policy.balance_factor = 0.6;
    cfg.policy.window_size = 3;
    cfg.backfill = BackfillMode::kEasy;
    return std::make_unique<MetricAwareScheduler>(cfg);
  });
}

TEST(CalendarConformance, MetricAwareConservativeWindow2) {
  expect_conforms([] {
    MetricAwareConfig cfg;
    cfg.policy.balance_factor = 0.8;
    cfg.policy.window_size = 2;
    cfg.backfill = BackfillMode::kConservative;
    return std::make_unique<MetricAwareScheduler>(cfg);
  });
}

}  // namespace
}  // namespace amjs
