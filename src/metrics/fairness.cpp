#include "metrics/fairness.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "sim/snapshot.hpp"

namespace amjs {

FairStartEvaluator::FairStartEvaluator(MachineFactory machine_factory,
                                       SchedulerFactory scheduler_factory,
                                       SimConfig sim_config)
    : machine_factory_(std::move(machine_factory)),
      scheduler_factory_(std::move(scheduler_factory)),
      sim_config_(std::move(sim_config)) {
  assert(machine_factory_ && scheduler_factory_);
}

FairnessResult FairStartEvaluator::evaluate(const JobTrace& trace,
                                            const SimResult& actual,
                                            Duration tolerance,
                                            std::size_t stride) const {
  assert(stride >= 1);
  assert(actual.schedule.size() == trace.size());
  FairnessResult result;
  result.fair_start.assign(trace.size(), kNever);

  // Probed jobs in id order, which is submission order.
  std::vector<JobId> probes;
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    const auto& entry = actual.schedule[i];
    if (entry.skipped || !entry.started()) continue;
    if (entry.start == entry.submit) {
      // Started instantly: fair start cannot be earlier than submission,
      // so the job is fair by construction — skip the probe.
      result.fair_start[i] = entry.submit;
      continue;
    }
    probes.push_back(static_cast<JobId>(i));
  }
  if (probes.empty()) return result;

  // The oracle's runs keep the fields that shape the schedule (check
  // interval, failures, plan mode, stop_at) and drop the caller's per-run
  // hooks and stop conditions, which belong to the run being judged.
  SimConfig fork_config = sim_config_;
  fork_config.record_events = false;  // no run here needs the LoC log
  fork_config.snapshot_sink = nullptr;
  fork_config.on_instant_end = nullptr;
  fork_config.trace_sink = nullptr;
  fork_config.stop_after_passes = 0;
  fork_config.stop_once_started = kInvalidJob;
  const auto fork_machine = machine_factory_();
  const auto fork_scheduler = scheduler_factory_();

  // The full run, forked at the end of every probed submit instant and
  // cut off after the last one.
  std::size_t next = 0;  // first probe not forked yet
  SimConfig full_config = fork_config;
  full_config.stop_at = std::min(full_config.stop_at, trace.job(probes.back()).submit);
  full_config.on_instant_end = [&](const SchedContext& ctx) {
    const SimTime now = ctx.now();
    if (next == probes.size() || trace.job(probes[next]).submit != now) return;
    const JobTrace truncated = trace.truncated_at(now);
    SimSnapshot fork = ctx.capture();
    truncate_snapshot(fork, truncated.size());
    for (; next < probes.size() && trace.job(probes[next]).submit == now; ++next) {
      const JobId id = probes[next];
      fork_config.stop_once_started = id;
      Simulator sim(*fork_machine, *fork_scheduler, fork_config);
      result.fair_start[static_cast<std::size_t>(id)] =
          sim.resume(truncated, fork).schedule[static_cast<std::size_t>(id)].start;
    }
  };
  {
    const auto machine = machine_factory_();
    const auto scheduler = scheduler_factory_();
    Simulator full(*machine, *scheduler, full_config);
    (void)full.run(trace);
  }

  for (const JobId id : probes) {
    const SimTime fair = result.fair_start[static_cast<std::size_t>(id)];
    if (fair == kNever) continue;  // the fork could not place the job
    if (actual.schedule[static_cast<std::size_t>(id)].start > fair + tolerance) {
      result.unfair_jobs.push_back(id);
    }
  }
  return result;
}

}  // namespace amjs
