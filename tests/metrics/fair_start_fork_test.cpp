// FairStartEvaluator forks its probes from one full run; the reference in
// tests/support re-simulates each probe's truncated trace from t=0. The
// two must agree on every fair start and every unfair job: for the seven
// Table II rows plus dynP, relaxed and lookahead backfilling, on a flat and
// a partition machine, with failure injection off and on. The evaluator
// also splits its probes into one segment per CPU; the same matrix checks
// that the split changes nothing against the one-segment loop it runs
// inside a parallel_for body.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/balancer.hpp"
#include "metrics/fairness.hpp"
#include "obs/trace.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/dynp.hpp"
#include "sched/easy.hpp"
#include "sched/lookahead.hpp"
#include "sched/relaxed.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "support/fair_start_reference.hpp"
#include "util/parallel.hpp"
#include "workload/synthetic.hpp"

namespace amjs {
namespace {

constexpr Duration kCheckInterval = minutes(30);

/// A contended day with a surge, small enough for the reference's
/// per-probe re-simulations. Two edits guarantee the tie cases: every
/// 7th job shares its predecessor's submit second, and every 11th job is
/// moved onto the metric-check grid (first submit + k x interval).
JobTrace fork_trace() {
  SyntheticConfig cfg;
  cfg.seed = 1307;
  cfg.horizon = hours(20);
  cfg.base_rate_per_hour = 3.0;
  cfg.sizes = {512, 1024, 2048, 4096};
  cfg.size_weights = {0.4, 0.3, 0.2, 0.1};
  cfg.bursts = {{6.0, 4.0, 3.5}};
  const JobTrace base = SyntheticTraceBuilder(cfg).build();

  std::vector<Job> jobs(base.jobs().begin(), base.jobs().end());
  const SimTime first = jobs.front().submit;
  for (std::size_t i = 1; i < jobs.size(); ++i) {
    if (i % 7 == 0) {
      jobs[i].submit = jobs[i - 1].submit;
    } else if (i % 11 == 0) {
      const SimTime k = (jobs[i].submit - first) / kCheckInterval;
      jobs[i].submit = std::max(jobs[i - 1].submit, first + k * kCheckInterval);
    }
  }
  auto trace = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(trace.ok());
  return std::move(trace).value();
}

struct MachineCase {
  std::string name;
  FairStartEvaluator::MachineFactory make;
};

std::vector<MachineCase> machines() {
  return {
      {"flat", [] { return std::make_unique<FlatMachine>(8192); }},
      {"partition",
       [] {
         PartitionConfig cfg;
         cfg.leaf_nodes = 512;
         cfg.row_leaves = 8;
         cfg.rows = 2;  // 8192 nodes
         return std::make_unique<PartitionMachine>(cfg);
       }},
  };
}

struct PolicyCase {
  std::string name;
  FairStartEvaluator::SchedulerFactory make;
};

std::vector<PolicyCase> policies() {
  std::vector<PolicyCase> out;
  auto specs = MetricsBalancer::table2_specs();
  // Thresholds this short trace crosses, so the adaptive rows retune
  // (table2_overall lowers them the same way).
  specs[4] = BalancerSpec::bf_adaptive(60.0);
  specs[6] = BalancerSpec::two_d(60.0);
  for (const BalancerSpec& spec : specs) {
    out.push_back({spec.display_name(), MetricsBalancer::factory(spec)});
  }
  out.push_back({"dynP", [] { return std::make_unique<DynPScheduler>(); }});
  out.push_back({"relaxed", [] { return std::make_unique<RelaxedBackfillScheduler>(); }});
  out.push_back(
      {"lookahead", [] { return std::make_unique<LookaheadBackfillScheduler>(); }});
  return out;
}

SimConfig sim_config(bool failures) {
  SimConfig config;
  config.metric_check_interval = kCheckInterval;
  if (failures) config.failures.rate_per_node_hour = 4e-5;
  return config;
}

/// Fair starts of the forked evaluator and of the reference, for one
/// policy on one machine.
struct Compared {
  SimResult actual;
  FairnessResult forked;
  FairnessResult reference;
};

Compared compare(const JobTrace& trace, const MachineCase& machine,
                 const PolicyCase& policy, bool failures, Duration tolerance) {
  const SimConfig config = sim_config(failures);
  Compared out;
  {
    auto m = machine.make();
    auto s = policy.make();
    out.actual = Simulator(*m, *s, config).run(trace);
  }
  out.forked = FairStartEvaluator(machine.make, policy.make, config)
                   .evaluate(trace, out.actual, tolerance);
  out.reference = test_support::ReferenceFairStart(machine.make, policy.make, config)
                      .evaluate(trace, out.actual, tolerance);
  return out;
}

TEST(FairStartForkTest, MatchesReferenceForEveryPolicyMachineAndFailureProfile) {
  const JobTrace trace = fork_trace();
  for (const MachineCase& machine : machines()) {
    for (const PolicyCase& policy : policies()) {
      for (const bool failures : {false, true}) {
        SCOPED_TRACE(machine.name + " / " + policy.name +
                     (failures ? " / failures" : " / no failures"));
        const Compared c = compare(trace, machine, policy, failures, minutes(10));
        EXPECT_EQ(c.forked.fair_start, c.reference.fair_start);
        EXPECT_EQ(c.forked.unfair_jobs, c.reference.unfair_jobs);
      }
    }
  }
}

/// evaluate() from inside a parallel_for body, where parallel_width() is 1:
/// one segment, the serial loop.
FairnessResult evaluate_in_one_segment(const FairStartEvaluator& evaluator,
                                       const JobTrace& trace, const SimResult& actual,
                                       Duration tolerance) {
  FairnessResult out;
  parallel_for(1, [&](std::size_t) {
    EXPECT_EQ(parallel_width(), 1u);
    out = evaluator.evaluate(trace, actual, tolerance);
  });
  return out;
}

TEST(FairStartForkTest, SplitEqualsOneSegmentForEveryPolicyMachineAndFailureProfile) {
  if (parallel_width() == 1) {
    GTEST_SKIP() << "one CPU in the affinity mask: evaluate() runs one segment "
                    "at top level too, so there is no split to compare";
  }
  const JobTrace trace = fork_trace();
  for (const MachineCase& machine : machines()) {
    for (const PolicyCase& policy : policies()) {
      for (const bool failures : {false, true}) {
        SCOPED_TRACE(machine.name + " / " + policy.name +
                     (failures ? " / failures" : " / no failures"));
        const SimConfig config = sim_config(failures);
        SimResult actual;
        {
          auto m = machine.make();
          auto s = policy.make();
          actual = Simulator(*m, *s, config).run(trace);
        }
        const FairStartEvaluator evaluator(machine.make, policy.make, config);
        const FairnessResult split = evaluator.evaluate(trace, actual, minutes(10));
        const FairnessResult serial =
            evaluate_in_one_segment(evaluator, trace, actual, minutes(10));
        EXPECT_EQ(split.fair_start, serial.fair_start);
        EXPECT_EQ(split.unfair_jobs, serial.unfair_jobs);
      }
    }
  }
}

TEST(FairStartForkTest, SuiteTraceExercisesTiesChecksAndFailures) {
  // Guard the suite's coverage: under the base policy some probed job
  // shares its submit second with another job, some probed job submits
  // at a metric-check instant, failure injection really fires, and some
  // job is unfair.
  const JobTrace trace = fork_trace();
  const MachineCase machine = machines().front();
  const PolicyCase base = policies().front();
  const Compared c = compare(trace, machine, base, /*failures=*/true, 0);

  const SimTime first = trace.jobs().front().submit;
  bool tie = false;
  bool at_check = false;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    const ScheduleEntry& e = c.actual.schedule[i];
    if (e.skipped || !e.started() || e.start == e.submit) continue;  // not probed
    const SimTime submit = trace.job(static_cast<JobId>(i)).submit;
    tie = tie || submit == trace.job(static_cast<JobId>(i - 1)).submit;
    at_check = at_check || (submit > first && (submit - first) % kCheckInterval == 0);
  }
  EXPECT_TRUE(tie);
  EXPECT_TRUE(at_check);
  EXPECT_GT(c.actual.failure_stats.failures, 0u);
  EXPECT_GT(c.reference.unfair_count(), 0u);
}

TEST(FairStartForkTest, CallerHooksAndStopsStayOutOfTheOraclesRuns) {
  // The oracle's own runs (its full run and every probe fork) must not call
  // the caller's per-run hooks or inherit its stop conditions: the hooks
  // passed in are never called, and the fair starts equal those under the
  // plain config. Partition machine, BF=0.5/W=1.
  const JobTrace trace = fork_trace();
  const MachineCase machine = machines().back();
  const PolicyCase policy = policies()[2];
  const SimConfig plain = sim_config(/*failures=*/false);
  SimResult actual;
  {
    auto m = machine.make();
    auto s = policy.make();
    actual = Simulator(*m, *s, plain).run(trace);
  }
  const FairnessResult expected =
      FairStartEvaluator(machine.make, policy.make, plain).evaluate(trace, actual);
  ASSERT_GT(expected.unfair_count(), 0u);

  std::size_t snapshots = 0;
  std::size_t instants = 0;
  obs::TraceRecorder recorder;
  SimConfig hooked = plain;
  hooked.snapshot_sink = [&snapshots](const SimSnapshot&) { ++snapshots; };
  hooked.on_instant_end = [&instants](const SchedContext&) { ++instants; };
  hooked.trace_sink = &recorder;
  hooked.stop_after_passes = 50;
  hooked.stop_once_started = 0;
  const FairnessResult got =
      FairStartEvaluator(machine.make, policy.make, hooked).evaluate(trace, actual);
  EXPECT_EQ(snapshots, 0u);
  EXPECT_EQ(instants, 0u);
  EXPECT_EQ(recorder.size(), 0u);
  EXPECT_EQ(got.fair_start, expected.fair_start);
  EXPECT_EQ(got.unfair_jobs, expected.unfair_jobs);
}

Job make_job(SimTime submit, Duration runtime, NodeCount nodes) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = runtime;
  j.nodes = nodes;
  return j;
}

TEST(FairStartForkTest, SameSecondSubmitsAtAMetricCheckAreForkedOnce) {
  // Jobs 1 and 2 submit in the same second, which is also a metric-check
  // instant (first submit + 30 min); both wait behind job 0. Job 3 arrives
  // later and, under SJF, overtakes job 1.
  auto built = JobTrace::from_jobs({
      make_job(0, hours(1), 100),
      make_job(kCheckInterval, 2000, 60),
      make_job(kCheckInterval, 2000, 60),
      make_job(kCheckInterval + 60, 100, 60),
  });
  ASSERT_TRUE(built.ok());
  const JobTrace trace = std::move(built).value();
  const MachineCase machine{"flat", [] { return std::make_unique<FlatMachine>(100); }};
  const PolicyCase sjf{"sjf", [] {
                         return std::make_unique<EasyBackfillScheduler>(QueueOrder::kSjf);
                       }};
  const Compared c = compare(trace, machine, sjf, /*failures=*/false, 0);
  EXPECT_EQ(c.forked.fair_start, c.reference.fair_start);
  EXPECT_EQ(c.forked.unfair_jobs, c.reference.unfair_jobs);
  EXPECT_EQ(c.forked.fair_start[1], hours(1));
  EXPECT_EQ(c.forked.fair_start[2], hours(1) + 2000);
}

std::size_t probe_count(const SimResult& actual) {
  return static_cast<std::size_t>(std::count_if(
      actual.schedule.begin(), actual.schedule.end(), [](const ScheduleEntry& e) {
        return !e.skipped && e.started() && e.start != e.submit;
      }));
}

TEST(FairStartForkTest, FewerProbesThanCpusAndOneSubmitSecond) {
  // Job 0 holds 90 of 100 nodes for an hour, so every later job wider than
  // 10 nodes waits: a probe. One to three probes at distinct seconds (fewer
  // segments than CPUs), then six probes submitted in one second, with a
  // narrow job after them that backfills on arrival (not a probe).
  const MachineCase machine{"flat", [] { return std::make_unique<FlatMachine>(100); }};
  const PolicyCase easy{"easy", [] { return std::make_unique<EasyBackfillScheduler>(); }};
  std::vector<std::pair<std::vector<Job>, std::size_t>> cases;
  for (std::size_t probes = 1; probes <= 3; ++probes) {
    std::vector<Job> jobs = {make_job(0, hours(1), 90)};
    for (std::size_t i = 0; i < probes; ++i) {
      jobs.push_back(make_job(static_cast<SimTime>(60 * (i + 1)),
                              static_cast<Duration>(600 * (i + 1)),
                              static_cast<NodeCount>(40 + 20 * i)));
    }
    cases.emplace_back(std::move(jobs), probes);
  }
  std::vector<Job> one_second = {make_job(0, hours(1), 90)};
  for (const NodeCount nodes : {60, 30, 100, 20, 50, 40}) {
    one_second.push_back(make_job(60, 300 + 10 * nodes, nodes));
  }
  one_second.push_back(make_job(120, 100, 10));
  cases.emplace_back(std::move(one_second), 6);

  for (auto& [jobs, probes] : cases) {
    SCOPED_TRACE(std::to_string(jobs.size()) + " jobs");
    auto built = JobTrace::from_jobs(jobs);
    ASSERT_TRUE(built.ok());
    const JobTrace trace = std::move(built).value();
    const Compared c = compare(trace, machine, easy, /*failures=*/false, 0);
    ASSERT_EQ(probe_count(c.actual), probes);
    EXPECT_EQ(c.forked.fair_start, c.reference.fair_start);
    EXPECT_EQ(c.forked.unfair_jobs, c.reference.unfair_jobs);
    const FairStartEvaluator evaluator(machine.make, easy.make, sim_config(false));
    const FairnessResult serial = evaluate_in_one_segment(evaluator, trace, c.actual, 0);
    EXPECT_EQ(c.forked.fair_start, serial.fair_start);
    EXPECT_EQ(c.forked.unfair_jobs, serial.unfair_jobs);
  }
}

}  // namespace
}  // namespace amjs
