#include "support/fair_start_reference.hpp"

#include <cassert>
#include <utility>

namespace amjs::test_support {

ReferenceFairStart::ReferenceFairStart(
    FairStartEvaluator::MachineFactory machine_factory,
    FairStartEvaluator::SchedulerFactory scheduler_factory, SimConfig sim_config)
    : machine_factory_(std::move(machine_factory)),
      scheduler_factory_(std::move(scheduler_factory)),
      sim_config_(std::move(sim_config)) {}

SimTime ReferenceFairStart::fair_start_of(const JobTrace& trace, JobId id) const {
  const JobTrace truncated = trace.truncated_at(trace.job(id).submit);
  auto machine = machine_factory_();
  auto scheduler = scheduler_factory_();
  SimConfig config = sim_config_;
  config.record_events = false;
  config.stop_once_started = id;
  Simulator sim(*machine, *scheduler, config);
  return sim.run(truncated).schedule[static_cast<std::size_t>(id)].start;
}

FairnessResult ReferenceFairStart::evaluate(const JobTrace& trace,
                                            const SimResult& actual,
                                            Duration tolerance,
                                            std::size_t stride) const {
  assert(stride >= 1);
  assert(actual.schedule.size() == trace.size());
  FairnessResult result;
  result.fair_start.assign(trace.size(), kNever);
  for (std::size_t i = 0; i < trace.size(); i += stride) {
    const auto& entry = actual.schedule[i];
    if (entry.skipped || !entry.started()) continue;
    if (entry.start == entry.submit) {
      result.fair_start[i] = entry.submit;
      continue;
    }
    const auto id = static_cast<JobId>(i);
    const SimTime fair = fair_start_of(trace, id);
    result.fair_start[i] = fair;
    if (fair != kNever && entry.start > fair + tolerance) {
      result.unfair_jobs.push_back(id);
    }
  }
  return result;
}

}  // namespace amjs::test_support
