#include "metrics/fairness.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/registry.hpp"
#include "sim/snapshot.hpp"
#include "util/parallel.hpp"

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

  // Contiguous segments of probes with equal counts (to within one), each
  // with its own full run and fork instances, all built here on the
  // calling thread: factories need not be thread-safe.
  struct Segment {
    std::size_t begin = 0;
    std::size_t end = 0;  // one past the segment's last probe
    std::unique_ptr<Machine> full_machine;
    std::unique_ptr<Scheduler> full_scheduler;
    std::unique_ptr<Machine> fork_machine;
    std::unique_ptr<Scheduler> fork_scheduler;
  };
  const std::size_t width = std::min<std::size_t>(parallel_width(), probes.size());
  std::vector<Segment> segments(width);
  for (std::size_t s = 0; s < width; ++s) {
    Segment& segment = segments[s];
    segment.begin = s * probes.size() / width;
    segment.end = (s + 1) * probes.size() / width;
    segment.full_machine = machine_factory_();
    segment.full_scheduler = scheduler_factory_();
    segment.fork_machine = machine_factory_();
    segment.fork_scheduler = scheduler_factory_();
  }
  if (obs::Registry::enabled()) {
    static obs::Counter& probe_counter =
        obs::Registry::global().counter("fairness.probes");
    static obs::Counter& segment_counter =
        obs::Registry::global().counter("fairness.segments");
    probe_counter.add(probes.size());
    segment_counter.add(width);
  }

  // A segment's full run, forked at the end of each of its probed submit
  // instants and cut off after its last one. Every segment replays the
  // same deterministic run up to its own stop, so a fork's state does not
  // depend on which segment took it; a segment writes only its own probes'
  // fair_start slots.
  parallel_for(
      width,
      [&](std::size_t s) {
        Segment& segment = segments[s];
        SimConfig probe_config = fork_config;
        std::size_t next = segment.begin;  // first probe not forked yet
        SimConfig full_config = fork_config;
        full_config.stop_at =
            std::min(full_config.stop_at, trace.job(probes[segment.end - 1]).submit);
        full_config.on_instant_end = [&](const SchedContext& ctx) {
          const SimTime now = ctx.now();
          if (next == segment.end || trace.job(probes[next]).submit != now) return;
          const JobTrace truncated = trace.truncated_at(now);
          SimSnapshot fork = ctx.capture();
          truncate_snapshot(fork, truncated.size());
          for (; next < segment.end && trace.job(probes[next]).submit == now; ++next) {
            const JobId id = probes[next];
            probe_config.stop_once_started = id;
            Simulator sim(*segment.fork_machine, *segment.fork_scheduler, probe_config);
            result.fair_start[static_cast<std::size_t>(id)] =
                sim.resume(truncated, fork).schedule[static_cast<std::size_t>(id)].start;
          }
        };
        Simulator full(*segment.full_machine, *segment.full_scheduler, full_config);
        (void)full.run(trace);
      },
      static_cast<unsigned>(width));

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
