// Snapshot determinism: resuming a run from a mid-run SimSnapshot must
// reproduce the uninterrupted run's SimResult exactly — for both machine
// models, both snapshot points, and for stateless, reactive-adaptive, and
// twin-consulting schedulers (the snapshot-point contract of
// sim/snapshot.hpp).
#include "sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/metric_aware.hpp"
#include "core/what_if.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/easy.hpp"
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

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Overloaded workload (queue stays deep across many metric checks) so the
/// snapshot always captures non-trivial state: running jobs, a populated
/// queue, and pending end events.
JobTrace contended_trace() {
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i * 400, 1200 + (i % 5) * 900,
                            20 + (i % 4) * 15));
  }
  return trace_of(std::move(jobs));
}

/// Small BG/P-style topology (512 nodes, 16 midplanes) so partition tests
/// stay fast while still exercising contiguity constraints.
PartitionConfig small_partition_config() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 32;
  cfg.row_leaves = 8;
  cfg.rows = 2;
  return cfg;
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].submit, b.schedule[i].submit) << "job " << i;
    EXPECT_EQ(a.schedule[i].start, b.schedule[i].start) << "job " << i;
    EXPECT_EQ(a.schedule[i].end, b.schedule[i].end) << "job " << i;
    EXPECT_EQ(a.schedule[i].requested, b.schedule[i].requested) << "job " << i;
    EXPECT_EQ(a.schedule[i].occupied, b.schedule[i].occupied) << "job " << i;
    EXPECT_EQ(a.schedule[i].skipped, b.schedule[i].skipped) << "job " << i;
    EXPECT_EQ(a.schedule[i].attempts, b.schedule[i].attempts) << "job " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    EXPECT_EQ(a.events[i].idle, b.events[i].idle) << "event " << i;
    EXPECT_EQ(a.events[i].min_waiting_occupancy,
              b.events[i].min_waiting_occupancy)
        << "event " << i;
    EXPECT_EQ(a.events[i].any_waiting, b.events[i].any_waiting) << "event " << i;
  }
  ASSERT_EQ(a.queue_depth.size(), b.queue_depth.size());
  for (std::size_t i = 0; i < a.queue_depth.size(); ++i) {
    EXPECT_EQ(a.queue_depth.points()[i].time, b.queue_depth.points()[i].time);
    // Bitwise-identical, not approximately equal.
    EXPECT_EQ(a.queue_depth.points()[i].value, b.queue_depth.points()[i].value);
  }
  ASSERT_EQ(a.busy_nodes.size(), b.busy_nodes.size());
  for (std::size_t i = 0; i < a.busy_nodes.size(); ++i) {
    EXPECT_EQ(a.busy_nodes.points()[i].time, b.busy_nodes.points()[i].time);
    EXPECT_EQ(a.busy_nodes.points()[i].value, b.busy_nodes.points()[i].value);
  }
  EXPECT_EQ(a.machine_nodes, b.machine_nodes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.skipped_jobs, b.skipped_jobs);
}

/// Run the trace once capturing the snapshot at metric check
/// `check_index`, then resume it on fresh machine/scheduler instances and
/// compare against the uninterrupted run.
template <typename MakeMachine, typename MakeScheduler>
void roundtrip(const JobTrace& trace, const MakeMachine& make_machine,
               const MakeScheduler& make_scheduler, std::size_t check_index) {
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == check_index) snapshot = s;
  };

  auto machine_a = make_machine();
  auto sched_a = make_scheduler();
  Simulator full(*machine_a, *sched_a, config);
  const SimResult baseline = full.run(trace);
  ASSERT_TRUE(snapshot.valid()) << "run never reached check " << check_index;

  auto machine_b = make_machine();
  auto sched_b = make_scheduler();
  Simulator forked(*machine_b, *sched_b);
  const SimResult resumed =
      forked.resume(trace, snapshot, ResumeScheduler::kRestore);
  expect_results_identical(baseline, resumed);
}

TEST(SnapshotRoundtrip, FlatMachineMetricAware) {
  roundtrip(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] {
        MetricAwareConfig cfg;
        cfg.policy = {0.5, 2};
        return std::make_unique<MetricAwareScheduler>(cfg);
      },
      4);
}

TEST(SnapshotRoundtrip, FlatMachineStatelessEasy) {
  roundtrip(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] { return std::make_unique<EasyBackfillScheduler>(); }, 3);
}

TEST(SnapshotRoundtrip, FlatMachineAdaptive) {
  roundtrip(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] {
        // Low threshold so the tuner actually flips BF around the
        // snapshot point (live tunables must survive the roundtrip).
        return std::make_unique<AdaptiveScheduler>(
            MetricAwareConfig{}, std::vector<AdaptiveScheme>{
                                     AdaptiveScheme::bf_queue_depth(100.0)});
      },
      5);
}

TEST(SnapshotRoundtrip, PartitionMachineMetricAware) {
  roundtrip(
      contended_trace(),
      [] { return std::make_unique<PartitionMachine>(small_partition_config()); },
      [] {
        MetricAwareConfig cfg;
        cfg.policy = {0.5, 2};
        return std::make_unique<MetricAwareScheduler>(cfg);
      },
      4);
}

TEST(SnapshotRoundtrip, PartitionMachineAdaptive) {
  roundtrip(
      contended_trace(),
      [] { return std::make_unique<PartitionMachine>(small_partition_config()); },
      [] {
        return std::make_unique<AdaptiveScheduler>(
            MetricAwareConfig{}, std::vector<AdaptiveScheme>{
                                     AdaptiveScheme::bf_queue_depth(100.0)});
      },
      3);
}

TEST(SnapshotRoundtrip, WhatIfTunerRestoresExactly) {
  const auto make_tuner = [] {
    WhatIfConfig cfg;
    cfg.base.policy = {1.0, 1};
    cfg.bf_candidates = {0.5, 1.0};
    cfg.w_candidates = {1, 2};
    cfg.twin.horizon = hours(2);
    cfg.twin.threads = 1;
    cfg.machine_factory = [] { return std::make_unique<FlatMachine>(100); };
    cfg.evaluate_every = 2;
    return std::make_unique<WhatIfTuner>(cfg);
  };
  roundtrip(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      make_tuner, 5);
}

TEST(SnapshotRoundtrip, EveryCheckpointResumesIdentically) {
  const auto trace = contended_trace();
  std::vector<SimSnapshot> snapshots;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) { snapshots.push_back(s); };

  MetricAwareConfig sched_cfg;
  sched_cfg.policy = {0.5, 2};
  FlatMachine machine(100);
  MetricAwareScheduler sched(sched_cfg);
  const SimResult baseline = Simulator(machine, sched, config).run(trace);
  ASSERT_GE(snapshots.size(), 6u);

  for (const std::size_t pick : {std::size_t{0}, snapshots.size() / 2,
                                 snapshots.size() - 1}) {
    FlatMachine machine2(100);
    MetricAwareScheduler sched2(sched_cfg);
    Simulator forked(machine2, sched2);
    const SimResult resumed =
        forked.resume(trace, snapshots[pick], ResumeScheduler::kRestore);
    expect_results_identical(baseline, resumed);
  }
}

std::string result_json(const SimResult& result) {
  std::ostringstream out;
  write_result_json(out, result);
  return out.str();
}

/// Capture kInstantEnd snapshots at the end of the given instants
/// (1-based) through SimConfig::on_instant_end, resume each on fresh
/// instances with nothing truncated, and require the uninterrupted run's
/// result JSON byte for byte.
template <typename MakeMachine, typename MakeScheduler>
void instant_end_roundtrip(const JobTrace& trace, const MakeMachine& make_machine,
                           const MakeScheduler& make_scheduler,
                           const std::vector<std::size_t>& instants) {
  std::vector<SimSnapshot> snapshots;
  std::size_t instant = 0;
  SimConfig config;
  config.on_instant_end = [&](const SchedContext& ctx) {
    ++instant;
    for (const std::size_t pick : instants) {
      if (pick == instant) snapshots.push_back(ctx.capture());
    }
  };
  auto machine_a = make_machine();
  auto sched_a = make_scheduler();
  const std::string baseline =
      result_json(Simulator(*machine_a, *sched_a, config).run(trace));
  ASSERT_EQ(snapshots.size(), instants.size()) << "run has only " << instant
                                               << " instants";

  for (const SimSnapshot& snapshot : snapshots) {
    SCOPED_TRACE("instant at t=" + std::to_string(snapshot.now));
    EXPECT_EQ(snapshot.point, SnapshotPoint::kInstantEnd);
    auto machine_b = make_machine();
    auto sched_b = make_scheduler();
    Simulator forked(*machine_b, *sched_b);
    EXPECT_EQ(result_json(forked.resume(trace, snapshot, ResumeScheduler::kRestore)),
              baseline);
  }
}

std::unique_ptr<Scheduler> retuning_adaptive() {
  return std::make_unique<AdaptiveScheduler>(
      MetricAwareConfig{},
      std::vector<AdaptiveScheme>{AdaptiveScheme::bf_queue_depth(100.0)});
}

TEST(SnapshotRoundtrip, InstantEndFlatMachineResumesByteIdentically) {
  instant_end_roundtrip(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      retuning_adaptive, {1, 9, 25, 40});
}

TEST(SnapshotRoundtrip, InstantEndPartitionMachineResumesByteIdentically) {
  instant_end_roundtrip(
      contended_trace(),
      [] { return std::make_unique<PartitionMachine>(small_partition_config()); },
      retuning_adaptive, {1, 9, 25, 40});
}

/// The fair-start fork: at the end of job `id`'s submit instant, a
/// snapshot of the full run cut by truncate_snapshot holds the state a run
/// of trace.truncated_at(submit) holds there, and resuming it against the
/// truncated trace finishes that run byte for byte.
template <typename MakeMachine, typename MakeScheduler>
void truncated_fork_roundtrip(const JobTrace& trace, const MakeMachine& make_machine,
                              const MakeScheduler& make_scheduler, JobId id,
                              const SimConfig& base = {}) {
  const SimTime t = trace.job(id).submit;
  const JobTrace truncated = trace.truncated_at(t);
  ASSERT_LT(truncated.size(), trace.size());
  const auto run_capturing = [&](const JobTrace& run_trace, SimSnapshot& snapshot) {
    SimConfig config = base;
    config.on_instant_end = [&](const SchedContext& ctx) {
      if (ctx.now() == t) snapshot = ctx.capture();
    };
    auto machine = make_machine();
    auto sched = make_scheduler();
    return result_json(Simulator(*machine, *sched, config).run(run_trace));
  };
  SimSnapshot fork;
  SimSnapshot want;
  (void)run_capturing(trace, fork);
  const std::string truncated_run = run_capturing(truncated, want);
  ASSERT_TRUE(fork.valid() && want.valid());

  truncate_snapshot(fork, truncated.size());
  ASSERT_EQ(fork.unfinished, want.unfinished);
  EXPECT_EQ(fork.states, want.states);
  EXPECT_EQ(fork.queue, want.queue);
  EXPECT_EQ(fork.attempts, want.attempts);
  EXPECT_EQ(fork.attempt_start, want.attempt_start);
  // Same pending events in the same pop order; seq numbers differ by the
  // dropped submits pushed at the start of the full run.
  const auto pending = [](const SimSnapshot& s) {
    std::vector<std::pair<SimTime, JobId>> out;
    for (const Event& e : s.events.sorted()) out.emplace_back(e.time, e.job);
    return out;
  };
  EXPECT_EQ(pending(fork), pending(want));

  auto machine = make_machine();
  auto sched = make_scheduler();
  SimConfig config = base;
  EXPECT_EQ(result_json(Simulator(*machine, *sched, config).resume(truncated, fork)),
            truncated_run);
}

TEST(SnapshotRoundtrip, TruncatedForkContinuesTheTruncatedRun) {
  const auto trace = contended_trace();
  SimConfig failures;
  failures.failures.rate_per_node_hour = 1e-2;
  {
    FlatMachine machine(100);
    const auto sched = retuning_adaptive();
    ASSERT_GT(Simulator(machine, *sched, failures).run(trace).failure_stats.failures, 0u)
        << "the failure profile must fire on this trace";
  }
  for (const JobId id : {3, 11, 20, 28}) {
    SCOPED_TRACE("cut at job " + std::to_string(id));
    truncated_fork_roundtrip(
        trace, [] { return std::make_unique<FlatMachine>(100); }, retuning_adaptive, id);
    truncated_fork_roundtrip(
        trace,
        [] { return std::make_unique<PartitionMachine>(small_partition_config()); },
        retuning_adaptive, id);
    truncated_fork_roundtrip(
        trace, [] { return std::make_unique<FlatMachine>(100); }, retuning_adaptive, id,
        failures);
  }
}

TEST(SnapshotRoundtrip, SnapshotSurvivesOriginalRunEnding) {
  // The snapshot must be self-contained: restoring after the source
  // simulator is gone (and its machine reused) still reproduces the run.
  const auto trace = contended_trace();
  SimSnapshot snapshot;
  SimResult baseline;
  {
    SimConfig config;
    config.snapshot_sink = [&](const SimSnapshot& s) {
      if (s.check_index == 2) snapshot = s;
    };
    FlatMachine machine(100);
    EasyBackfillScheduler sched;
    baseline = Simulator(machine, sched, config).run(trace);
  }
  ASSERT_TRUE(snapshot.valid());
  FlatMachine machine(100);
  EasyBackfillScheduler sched;
  Simulator forked(machine, sched);
  const SimResult resumed =
      forked.resume(trace, snapshot, ResumeScheduler::kRestore);
  expect_results_identical(baseline, resumed);
}

}  // namespace
}  // namespace amjs
