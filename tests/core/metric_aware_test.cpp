#include "core/metric_aware.hpp"

#include <gtest/gtest.h>

#include "core/balancer.hpp"
#include "obs/registry.hpp"
#include "platform/flat.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime, NodeCount nodes,
             Duration walltime = 0) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = walltime > 0 ? walltime : runtime;
  j.nodes = nodes;
  return j;
}

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

MetricAwareConfig config_of(double bf, int w,
                            BackfillMode mode = BackfillMode::kEasy) {
  MetricAwareConfig c;
  c.policy = MetricAwarePolicy{bf, w};
  c.backfill = mode;
  return c;
}

TEST(MetricAwareTest, PolicyLabelMatchesPaperStyle) {
  EXPECT_EQ((MetricAwarePolicy{1.0, 1}).label(), "BF=1/W=1");
  EXPECT_EQ((MetricAwarePolicy{0.5, 4}).label(), "BF=0.5/W=4");
}

TEST(MetricAwareTest, NameIncludesPolicy) {
  MetricAwareScheduler s(config_of(0.5, 4));
  EXPECT_NE(s.name().find("BF=0.5/W=4"), std::string::npos);
}

TEST(MetricAwareTest, DefaultPolicyEqualsFcfsEasy) {
  // BF=1/W=1 must reproduce EASY(FCFS) exactly (the paper's base case).
  const auto trace = trace_of({
      make_job(0, 1000, 60),
      make_job(1, 1000, 60),
      make_job(2, 900, 40),
      make_job(5, 300, 20),
      make_job(700, 500, 80),
      make_job(800, 100, 10),
  });
  FlatMachine m1(100);
  MetricAwareScheduler metric_aware(config_of(1.0, 1));
  Simulator sim1(m1, metric_aware);
  const auto ra = sim1.run(trace);

  FlatMachine m2(100);
  EasyBackfillScheduler easy;
  Simulator sim2(m2, easy);
  const auto rb = sim2.run(trace);

  ASSERT_EQ(ra.schedule.size(), rb.schedule.size());
  for (std::size_t i = 0; i < ra.schedule.size(); ++i) {
    EXPECT_EQ(ra.schedule[i].start, rb.schedule[i].start) << "job " << i;
  }
}

TEST(MetricAwareTest, Bf0PrefersShortJobs) {
  const auto trace = trace_of({
      make_job(0, 1000, 100),  // blocks machine
      make_job(1, 900, 100),   // long
      make_job(2, 100, 100),   // short
  });
  FlatMachine m(100);
  MetricAwareScheduler sched(config_of(0.0, 1));
  Simulator sim(m, sched);
  const auto result = sim.run(trace);
  EXPECT_LT(result.schedule[2].start, result.schedule[1].start);
}

TEST(MetricAwareTest, WindowReorderingImprovesPacking) {
  // 10-node machine; an 8-node job runs until 100. Window of 2:
  //   A (2 nodes, 1000 s), B (10 nodes, 100 s).
  // Identity: A@0 -> B@1000 (makespan 1100). Swapped: B@100, A@200?
  // The allocator picks whichever is least-makespan; assert the sim's
  // realized makespan is no worse than the identity order run by W=1.
  const auto trace = trace_of({
      make_job(0, 100, 8),
      make_job(1, 1000, 2, 1000),
      make_job(1, 100, 10, 100),
  });
  FlatMachine m1(10);
  MetricAwareScheduler w1(config_of(1.0, 1));
  Simulator sim1(m1, w1);
  const auto r1 = sim1.run(trace);

  FlatMachine m2(10);
  MetricAwareScheduler w2(config_of(1.0, 2));
  Simulator sim2(m2, w2);
  const auto r2 = sim2.run(trace);

  EXPECT_LE(r2.end_time, r1.end_time);
}

TEST(MetricAwareTest, SetPolicyTakesEffect) {
  MetricAwareScheduler s(config_of(1.0, 1));
  s.set_policy(MetricAwarePolicy{0.5, 4});
  EXPECT_DOUBLE_EQ(s.policy().balance_factor, 0.5);
  EXPECT_EQ(s.policy().window_size, 4);
}

TEST(MetricAwareTest, StatsCountScheduleCalls) {
  FlatMachine m(100);
  MetricAwareScheduler s(config_of(1.0, 2));
  Simulator sim(m, s);
  (void)sim.run(trace_of({make_job(0, 100, 10), make_job(10, 100, 10)}));
  EXPECT_GT(s.stats().schedule_calls, 0u);
  EXPECT_EQ(s.stats().jobs_started, 2u);
}

TEST(MetricAwareTest, ResetClearsStats) {
  FlatMachine m(100);
  MetricAwareScheduler s(config_of(1.0, 1));
  Simulator sim(m, s);
  (void)sim.run(trace_of({make_job(0, 100, 10)}));
  s.reset();
  EXPECT_EQ(s.stats().schedule_calls, 0u);
  EXPECT_EQ(s.stats().jobs_started, 0u);
}

TEST(MetricAwareTest, ConservativeModeCompletesWorkload) {
  FlatMachine m(128);
  MetricAwareScheduler s(config_of(0.5, 3, BackfillMode::kConservative));
  Simulator sim(m, s);
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i * 40, 200 + (i % 5) * 250, 8 + (i % 6) * 20));
  }
  const auto result = sim.run(trace_of(std::move(jobs)));
  EXPECT_EQ(result.finished_count(), 30u);
}

TEST(MetricAwareTest, BackfillRespectsWindowReservations) {
  // The first window's future reservation must not be delayed by the
  // post-window backfill pass (paper step 6, EASY flavor).
  const auto trace = trace_of({
      make_job(0, 1000, 60),   // running
      make_job(1, 1000, 80),   // head of window: reserved at 1000
      make_job(2, 5000, 30),   // would hold 30 past 1000 -> must not backfill
  });
  FlatMachine m(100);
  MetricAwareScheduler s(config_of(1.0, 1));
  Simulator sim(m, s);
  const auto result = sim.run(trace);
  EXPECT_EQ(result.schedule[1].start, 1000);
  EXPECT_GE(result.schedule[2].start, 1000);
}

TEST(MetricAwareTest, BackfillSkipsProbesAnEarlierRefusalDecides) {
  // One step-6 pass, BF=1/W=1 on 100 flat nodes. J0 (60 nodes) runs on
  // [0, 1000). At t=10 J1..J10 arrive together and rank in id order; J1
  // (70 nodes) is the window and is pinned at 1000 on [1000, 2000), so the
  // plan leaves 40 nodes before 1000 and 30 from 1000 to 2000. Step 6:
  //   J2  (45, 100)  machine refuses (40 idle)           probe 1, min 45
  //   J3  (50, 50)   50 >= 45                            skipped 1
  //   J4  (35, 2000) plan refuses (70 + 35 > 100 at 1000) probe 2
  //   J5  (38, 3000) 38 >= 35 and 3000 >= 2000           skipped 2
  //   J6  (36, 500)  shorter than J4: fits, starts       probe 3, 4 idle
  //   J7  (10, 100)  machine refuses                     probe 4, min 10
  //   J8  (20, 50)   20 >= 10                            skipped 3
  //   J9  (5, 100)   machine refuses                     probe 5, min 5
  //   J10 (2, 100)   fits, starts                        probe 6
  // Six probes reach the machine or the plan and three are skipped; the
  // loop without the filter would make nine.
  const auto trace = trace_of({
      make_job(0, 1000, 60),  make_job(10, 1000, 70), make_job(10, 100, 45),
      make_job(10, 50, 50),   make_job(10, 2000, 35), make_job(10, 3000, 38),
      make_job(10, 500, 36),  make_job(10, 100, 10),  make_job(10, 50, 20),
      make_job(10, 100, 5),   make_job(10, 100, 2),
  });
  const bool was_enabled = obs::Registry::enabled();
  obs::Registry::set_enabled(true);
  obs::Registry::global().reset_values();
  std::uint64_t probes = 0;
  std::uint64_t dominated = 0;
  SimConfig config;
  config.on_instant_end = [&](const SchedContext& ctx) {
    if (ctx.now() != 10) return;
    probes = obs::Registry::global().counter("sched.backfill_probes").value();
    dominated = obs::Registry::global().counter("sched.backfill_dominated").value();
  };
  FlatMachine m(100);
  MetricAwareScheduler s(config_of(1.0, 1));
  Simulator sim(m, s, config);
  const auto result = sim.run(trace);
  obs::Registry::global().reset_values();
  obs::Registry::set_enabled(was_enabled);

  EXPECT_EQ(probes, 6u);
  EXPECT_EQ(dominated, 3u);
  EXPECT_EQ(result.schedule[1].start, 1000);
  EXPECT_EQ(result.schedule[6].start, 10);
  EXPECT_EQ(result.schedule[10].start, 10);
  for (const JobId id : {2, 3, 4, 5, 7, 8, 9}) {
    EXPECT_GT(result.schedule[static_cast<std::size_t>(id)].start, 10) << "job " << id;
  }
}

TEST(MetricAwareTest, OneJobWindowsSkipTheSearch) {
  // BF=1/W=1: every window holds one job, which phases A and B place
  // before phase C would read a decision, so no window is searched. Each
  // still counts its one permutation: permutations_tried is pinned to the
  // value the run counted when every window went through the search.
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    jobs.push_back(make_job(i * 300, 1200 + (i % 5) * 900, 20 + (i % 4) * 15,
                            1800 + (i % 5) * 900));
  }
  const auto trace = trace_of(std::move(jobs));
  const bool was_enabled = obs::Registry::enabled();
  obs::Registry::set_enabled(true);
  obs::Registry::global().reset_values();
  FlatMachine m(100);
  MetricAwareScheduler s(config_of(1.0, 1));
  Simulator sim(m, s);
  const auto result = sim.run(trace);
  const auto decides = obs::Registry::global().timer("core.window_decide").stats().count;
  const auto permutations = obs::Registry::global().counter("core.permutations").value();
  obs::Registry::global().reset_values();
  obs::Registry::set_enabled(was_enabled);

  EXPECT_EQ(result.finished_count(), 40u);
  EXPECT_EQ(decides, 0u);
  EXPECT_EQ(permutations, 0u);
  EXPECT_EQ(s.stats().permutations_tried, 90u);
}

class WindowPastSearchCapTest : public ::testing::TestWithParam<BackfillMode> {};

TEST_P(WindowPastSearchCapTest, EveryJobOfAWideWindowIsScheduled) {
  // A policy window wider than the allocator's cap (8) must still start
  // or reserve every job in it. 100-node machine: job 0 holds 60 nodes
  // until t=1000; at t=1 a blocked 80-node job and eleven 1-node jobs
  // arrive. All eleven fit beside job 0 at once, whatever the window.
  std::vector<Job> jobs = {make_job(0, 1000, 60), make_job(1, 1000, 80)};
  for (int i = 2; i <= 12; ++i) jobs.push_back(make_job(1, 100, 1));
  const auto trace = trace_of(std::move(jobs));
  for (const int w : {8, 12}) {
    FlatMachine m(100);
    const auto sched = MetricsBalancer::make(BalancerSpec::fixed(1.0, w, GetParam()));
    Simulator sim(m, *sched);
    const auto result = sim.run(trace);
    EXPECT_EQ(result.schedule[1].start, 1000) << "W=" << w;
    for (std::size_t i = 2; i <= 12; ++i) {
      EXPECT_EQ(result.schedule[i].start, 1) << "W=" << w << " job " << i;
    }
  }
}

std::string mode_name(const ::testing::TestParamInfo<BackfillMode>& mode) {
  return mode.param == BackfillMode::kEasy ? "Easy" : "Conservative";
}

INSTANTIATE_TEST_SUITE_P(Modes, WindowPastSearchCapTest,
                         ::testing::Values(BackfillMode::kEasy,
                                           BackfillMode::kConservative),
                         mode_name);

class WindowSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowSweepTest, AllJobsFinishForEveryWindowSize) {
  const int w = GetParam();
  FlatMachine m(256);
  MetricAwareScheduler s(config_of(0.5, w));
  Simulator sim(m, s);
  std::vector<Job> jobs;
  for (int i = 0; i < 50; ++i) {
    jobs.push_back(
        make_job(i * 25, 100 + (i % 9) * 200, 8 + (i % 7) * 32, 0));
  }
  const auto result = sim.run(trace_of(std::move(jobs)));
  EXPECT_EQ(result.finished_count(), 50u);
  // No job may start before it was submitted.
  for (const auto& e : result.schedule) {
    EXPECT_GE(e.start, e.submit);
  }
}

INSTANTIATE_TEST_SUITE_P(Windows, WindowSweepTest, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace amjs
