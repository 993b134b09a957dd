// Full-stack invariants under failure injection, swept over policies.
#include <gtest/gtest.h>

#include <memory>

#include "core/balancer.hpp"
#include "metrics/energy.hpp"
#include "metrics/metrics.hpp"
#include "platform/partition.hpp"
#include "sim/simulator.hpp"
#include "workload/synthetic.hpp"

namespace amjs {
namespace {

JobTrace failure_trace() {
  SyntheticConfig cfg;
  cfg.seed = 777;
  cfg.horizon = days(2);
  cfg.base_rate_per_hour = 6.0;
  cfg.sizes = {512, 1024, 2048, 4096};
  cfg.size_weights = {0.4, 0.3, 0.2, 0.1};
  cfg.bursts.clear();
  return SyntheticTraceBuilder(cfg).build();
}

PartitionConfig small_bgp() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 512;
  cfg.row_leaves = 8;
  cfg.rows = 2;
  return cfg;
}

class FailurePipelineTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FailurePipelineTest, EveryJobReachesATerminalState) {
  const auto trace = failure_trace();
  const auto spec = MetricsBalancer::table2_specs()[GetParam()];
  PartitionMachine machine(small_bgp());
  const auto sched = MetricsBalancer::make(spec);
  SimConfig config;
  config.failures.rate_per_node_hour = 2e-4;  // aggressive but survivable
  config.failures.max_restarts = 3;
  Simulator sim(machine, *sched, config);
  const auto result = sim.run(trace);

  for (const auto& e : result.schedule) {
    ASSERT_TRUE(e.started());
    EXPECT_NE(e.end, kNever);      // finished or abandoned — never stuck
    EXPECT_GE(e.attempts, 1);
    EXPECT_LE(e.attempts, 1 + config.failures.max_restarts);
    if (e.abandoned) {
      EXPECT_EQ(e.attempts, 1 + config.failures.max_restarts);
    }
  }
  const auto& stats = result.failure_stats;
  EXPECT_EQ(stats.failures, stats.restarts + stats.abandoned);
  EXPECT_GT(stats.failures, 0u) << "rate chosen to produce failures";
}

TEST_P(FailurePipelineTest, WastedWorkOnlyWithFailures) {
  const auto trace = failure_trace();
  const auto spec = MetricsBalancer::table2_specs()[GetParam()];
  PartitionMachine machine(small_bgp());
  const auto sched = MetricsBalancer::make(spec);
  SimConfig config;
  config.failures.rate_per_node_hour = 2e-4;
  Simulator sim(machine, *sched, config);
  const auto result = sim.run(trace);
  EXPECT_GT(result.failure_stats.wasted_node_seconds, 0.0);

  // Delivered (busy) node-seconds >= useful node-seconds: the busy series
  // includes failed attempts.
  double useful = 0.0;
  for (const auto& e : result.schedule) {
    if (e.abandoned) continue;
    useful += static_cast<double>(e.occupied) *
              static_cast<double>(trace.job(e.job).runtime);
  }
  const auto energy = energy_report(result);
  EXPECT_GE(energy.delivered_node_seconds + 1e-6,
            useful);  // includes wasted attempts on top of useful work
}

TEST_P(FailurePipelineTest, FailuresCannotIncreaseUsefulWork) {
  // Note: failures can *reduce* average first-start wait (killing a long
  // job frees its allocation early), so wait is not a valid monotone
  // property. Useful delivered work is: abandoned jobs deliver nothing,
  // completed jobs deliver exactly their runtime in both runs.
  const auto trace = failure_trace();
  const auto spec = MetricsBalancer::table2_specs()[GetParam()];

  auto useful_work = [&](const SimResult& result) {
    double total = 0.0;
    for (const auto& e : result.schedule) {
      if (e.abandoned || e.end == kNever) continue;
      total += static_cast<double>(e.occupied) *
               static_cast<double>(trace.job(e.job).runtime);
    }
    return total;
  };

  PartitionMachine m1(small_bgp());
  const auto s1 = MetricsBalancer::make(spec);
  Simulator clean(m1, *s1);
  const double useful_clean = useful_work(clean.run(trace));

  PartitionMachine m2(small_bgp());
  const auto s2 = MetricsBalancer::make(spec);
  SimConfig config;
  config.failures.rate_per_node_hour = 5e-4;
  config.failures.max_restarts = 3;
  Simulator faulty(m2, *s2, config);
  const auto result = faulty.run(trace);

  EXPECT_LE(useful_work(result), useful_clean + 1e-6);
  // The faulty run's total allocated node-seconds exceed its useful work
  // by exactly the wasted attempts.
  const double busy_integral = result.busy_nodes.integrate(0, result.end_time);
  EXPECT_NEAR(busy_integral - useful_work(result),
              result.failure_stats.wasted_node_seconds, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Policies, FailurePipelineTest,
                         ::testing::Values(0u, 3u, 6u),  // base, best static, 2D
                         [](const auto& param) {
                           return "spec" + std::to_string(param.param);
                         });

}  // namespace
}  // namespace amjs
