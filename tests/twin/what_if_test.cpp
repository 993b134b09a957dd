// WhatIfTuner: the twin-consulting adaptive policy. Consultations happen
// on the configured cadence, adopted tunables come from the candidate
// grid, overhead accounting is populated, and runs stay deterministic.
#include "core/what_if.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "platform/flat.hpp"
#include "sim/simulator.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime, NodeCount nodes) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = runtime + 600;
  j.nodes = nodes;
  return j;
}

JobTrace contended_trace() {
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i * 400, 1200 + (i % 5) * 900,
                            20 + (i % 4) * 15));
  }
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

WhatIfConfig test_config() {
  WhatIfConfig cfg;
  cfg.base.policy = {1.0, 1};
  cfg.bf_candidates = {0.5, 1.0};
  cfg.w_candidates = {1, 2};
  cfg.twin.horizon = hours(2);
  cfg.twin.threads = 1;
  cfg.machine_factory = [] { return std::make_unique<FlatMachine>(100); };
  cfg.evaluate_every = 2;
  return cfg;
}

TEST(WhatIfTuner, ConsultsTwinOnCadenceAndRecordsOverhead) {
  const auto trace = contended_trace();
  FlatMachine machine(100);
  WhatIfTuner tuner(test_config());
  Simulator sim(machine, tuner);
  const SimResult result = sim.run(trace);

  EXPECT_EQ(result.finished_count(), trace.size());
  const WhatIfStats& stats = tuner.stats();
  EXPECT_GT(stats.evaluations, 0u);
  // Every consultation forks the full 2x2 candidate grid.
  EXPECT_EQ(stats.forks, stats.evaluations * 4u);
  EXPECT_GE(stats.twin_wall_ms, 0.0);
  if (stats.forks > 0) {
    EXPECT_GE(stats.wall_ms_per_fork(), 0.0);
  }

  // Histories are sampled at every metric check, not only consultations.
  EXPECT_EQ(tuner.bf_history().size(), result.queue_depth.size());
  EXPECT_EQ(tuner.w_history().size(), result.queue_depth.size());
}

TEST(WhatIfTuner, AdoptedTunablesComeFromTheCandidateGrid) {
  const auto trace = contended_trace();
  const auto cfg = test_config();
  FlatMachine machine(100);
  WhatIfTuner tuner(cfg);
  Simulator sim(machine, tuner);
  (void)sim.run(trace);

  for (const auto& p : tuner.bf_history().points()) {
    const bool known =
        std::count(cfg.bf_candidates.begin(), cfg.bf_candidates.end(),
                   p.value) > 0 ||
        p.value == cfg.base.policy.balance_factor;
    EXPECT_TRUE(known) << "unexpected BF " << p.value;
  }
  for (const auto& p : tuner.w_history().points()) {
    const int w = static_cast<int>(p.value);
    const bool known =
        std::count(cfg.w_candidates.begin(), cfg.w_candidates.end(), w) > 0 ||
        w == cfg.base.policy.window_size;
    EXPECT_TRUE(known) << "unexpected W " << p.value;
  }
  EXPECT_TRUE(tuner.policy().valid());
}

TEST(WhatIfTuner, RunsAreDeterministic) {
  const auto trace = contended_trace();
  std::vector<SimResult> results;
  std::vector<std::size_t> adoptions;
  for (int r = 0; r < 2; ++r) {
    FlatMachine machine(100);
    WhatIfTuner tuner(test_config());
    Simulator sim(machine, tuner);
    results.push_back(sim.run(trace));
    adoptions.push_back(tuner.stats().adoptions);
  }
  EXPECT_EQ(adoptions[0], adoptions[1]);
  ASSERT_EQ(results[0].schedule.size(), results[1].schedule.size());
  for (std::size_t i = 0; i < results[0].schedule.size(); ++i) {
    EXPECT_EQ(results[0].schedule[i].start, results[1].schedule[i].start);
    EXPECT_EQ(results[0].schedule[i].end, results[1].schedule[i].end);
  }
  ASSERT_EQ(results[0].queue_depth.size(), results[1].queue_depth.size());
  for (std::size_t i = 0; i < results[0].queue_depth.size(); ++i) {
    EXPECT_EQ(results[0].queue_depth.points()[i].value,
              results[1].queue_depth.points()[i].value);
  }
}

TEST(WhatIfTuner, ResetRestoresBasePolicyAndClearsAccounting) {
  const auto trace = contended_trace();
  const auto cfg = test_config();
  FlatMachine machine(100);
  WhatIfTuner tuner(cfg);
  Simulator sim(machine, tuner);
  const SimResult first = sim.run(trace);
  const std::size_t first_evals = tuner.stats().evaluations;

  // Simulator::run resets the scheduler, so a second run must behave as
  // the first: same accounting, same realized schedule, and the tuner
  // starts from the base policy again (not the last adopted one).
  FlatMachine machine2(100);
  Simulator sim2(machine2, tuner);
  const SimResult second = sim2.run(trace);
  EXPECT_EQ(tuner.stats().evaluations, first_evals);
  ASSERT_EQ(first.schedule.size(), second.schedule.size());
  for (std::size_t i = 0; i < first.schedule.size(); ++i) {
    EXPECT_EQ(first.schedule[i].start, second.schedule[i].start);
  }

  tuner.reset();
  EXPECT_EQ(tuner.stats().evaluations, 0u);
  EXPECT_EQ(tuner.stats().forks, 0u);
  EXPECT_TRUE(tuner.bf_history().empty());
  EXPECT_EQ(tuner.policy().balance_factor, cfg.base.policy.balance_factor);
  EXPECT_EQ(tuner.policy().window_size, cfg.base.policy.window_size);
}

TEST(WhatIfTuner, SkipsConsultationsWhileQueueIsEmpty) {
  // A single small job never queues behind anything, so the twin is never
  // consulted — re-planning an idle machine is pure overhead.
  auto t = JobTrace::from_jobs({make_job(0, 600, 10)});
  ASSERT_TRUE(t.ok());
  const auto trace = std::move(t).value();

  FlatMachine machine(100);
  WhatIfTuner tuner(test_config());
  Simulator sim(machine, tuner);
  (void)sim.run(trace);
  EXPECT_EQ(tuner.stats().evaluations, 0u);
  EXPECT_EQ(tuner.stats().forks, 0u);
}

}  // namespace
}  // namespace amjs
