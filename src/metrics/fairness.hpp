// Fair-start fairness (§IV-A, after Sabin et al., ICPP 2004).
//
// Each job's "fair start time" is the start it would get if *no job
// arrived after it*, under the same scheduling policy. A job that actually
// started later than that was pushed back by later arrivals — it was
// treated unfairly.
//
// By definition a fair start is the probe job's start in a simulation of
// trace.truncated_at(submit). The evaluator does not re-run that from
// t=0 per job: it runs the full trace once, and at the end of each probed
// job's submit instant it forks the run (a kInstantEnd snapshot, see
// sim/snapshot.hpp) with the later submits dropped, then resumes the fork
// until the probe job starts. Up to that instant the truncated run and the
// full run have processed the same events, so the fork's state is the
// truncated run's state and its start is the fair start.
//
// The probes fan out over parallel_width() threads (util/parallel.hpp) in
// contiguous segments of equal probe count. Each segment replays the full
// run up to its own last probe and forks its own probes, with its own
// machine/scheduler instances and at most one snapshot in flight. Every
// segment replays the same deterministic run, so the result does not
// depend on the cut. Called from inside a parallel_for body (a sweep
// that already runs its cells in parallel) the width is 1: one segment,
// the serial loop.
//
// Precondition: the policy's decisions at time t depend only on the jobs
// submitted by t. Every policy in src/sched and src/core meets it except
// WhatIfTuner, whose twin replays later arrivals from ctx.trace(): forked
// from the full run it sees arrivals the truncated run never has, so its
// fair starts are not the definition's. No caller evaluates its fairness.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "platform/machine.hpp"
#include "sim/simulator.hpp"
#include "workload/trace.hpp"

namespace amjs {

struct FairnessResult {
  /// Per-job fair start time (kNever where not evaluated/skipped).
  std::vector<SimTime> fair_start;

  /// Jobs whose actual start exceeded fair start by more than the
  /// tolerance.
  std::vector<JobId> unfair_jobs;

  [[nodiscard]] std::size_t unfair_count() const { return unfair_jobs.size(); }
};

class FairStartEvaluator {
 public:
  using MachineFactory = std::function<std::unique_ptr<Machine>()>;
  using SchedulerFactory = std::function<std::unique_ptr<Scheduler>()>;

  /// Factories must reproduce the machine/policy of the run being judged;
  /// evaluate() builds, on the calling thread, two instance pairs per
  /// segment: one for the segment's full run and one for its forks.
  FairStartEvaluator(MachineFactory machine_factory,
                     SchedulerFactory scheduler_factory,
                     SimConfig sim_config = {});

  /// Compare `actual` (the full-trace run) against per-job fair starts.
  /// `tolerance`: slack before a late start counts as unfair (the paper
  /// counts any delay; 0 by default).
  /// `stride`: evaluate every job (1) or a systematic sample (>1); must be
  /// at least 1. The sampled unfair count is scaled by the stride in
  /// reports, not here.
  /// Cost: per segment, a full-trace simulation up to its last probe
  /// (about (width+1)/2 full runs in all); per probed submit instant, an
  /// O(n) snapshot; per probed job (started, but not on arrival), an O(n)
  /// restore and a fork that runs until the job starts. A segment forks
  /// one probe at a time, so memory is at most width x (one full run, one
  /// fork and one snapshot); width is 1 under a one-CPU affinity mask or
  /// inside a parallel_for body.
  [[nodiscard]] FairnessResult evaluate(const JobTrace& trace, const SimResult& actual,
                                        Duration tolerance = 0,
                                        std::size_t stride = 1) const;

 private:
  MachineFactory machine_factory_;
  SchedulerFactory scheduler_factory_;
  SimConfig sim_config_;
};

}  // namespace amjs
