#include "svc/facade.hpp"

#include <algorithm>
#include <utility>

#include "core/metric_aware.hpp"
#include "sim/simulator.hpp"
#include "util/fmt.hpp"

namespace amjs::svc {

Result<Dataset> make_dataset(const DatasetSpec& spec) {
  if (!spec.machine.valid()) {
    return Error{format("dataset {}: invalid machine spec", spec.label)};
  }
  if (spec.snapshot_check == 0) {
    return Error{format("dataset {}: snapshot_check must be >= 1", spec.label)};
  }
  SyntheticConfig synthetic;
  synthetic.seed = spec.seed;
  synthetic.horizon = spec.horizon;
  synthetic.base_rate_per_hour = spec.base_rate_per_hour;

  Dataset dataset;
  dataset.label = spec.label;
  dataset.machine = spec.machine;
  dataset.twin = spec.twin;
  dataset.trace = SyntheticTraceBuilder(synthetic).build();

  SimConfig sim_config;
  sim_config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == spec.snapshot_check) dataset.snapshot = s;
  };
  auto machine = spec.machine.make();
  MetricAwareScheduler scheduler;
  Simulator sim(*machine, scheduler, sim_config);
  (void)sim.run(dataset.trace);
  if (!dataset.snapshot.valid()) {
    return Error{format(
        "dataset {}: run ended before metric check {} (no snapshot captured)",
        spec.label, spec.snapshot_check)};
  }
  return dataset;
}

Result<std::shared_ptr<const World>> World::build(Dataset dataset,
                                                  std::uint64_t version) {
  if (!dataset.machine.valid()) {
    return Error{format("world {}: invalid machine spec", dataset.label)};
  }
  if (!dataset.snapshot.valid()) {
    return Error{format("world {}: dataset carries no snapshot", dataset.label)};
  }
  auto world = std::shared_ptr<World>(new World());
  world->dataset_ = std::move(dataset);
  world->version_ = version;
  world->machine_ = world->dataset_.machine.make();
  world->machine_->restore_state(*world->dataset_.snapshot.machine);
  world->provider_ = make_plan_provider(*world->machine_);
  world->plan_ = world->provider_->plan(world->dataset_.snapshot.now);
  return std::shared_ptr<const World>(std::move(world));
}

Result<StartProjection> World::project_start(const Job& job) const {
  if (job.nodes <= 0 || job.walltime <= 0) {
    return Error{format("job {}: nodes and walltime must be positive", job.id)};
  }
  if (job.nodes > machine_->total_nodes()) {
    return Error{format("job {}: {} nodes exceed the machine's {}", job.id,
                        job.nodes, machine_->total_nodes())};
  }
  const SimTime now = dataset_.snapshot.now;
  const SimTime earliest = std::max(job.submit, now);
  const std::lock_guard<std::mutex> lock(plan_mutex_);
  StartProjection projection;
  projection.start = plan_->find_start(job, earliest);
  projection.wait = projection.start - earliest;
  return projection;
}

DataFacade::DataFacade(std::shared_ptr<const World> initial)
    : world_(std::move(initial)), next_version_(world_->version() + 1) {}

std::shared_ptr<const World> DataFacade::world() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return world_;
}

void DataFacade::swap(std::shared_ptr<const World> next) {
  const std::lock_guard<std::mutex> lock(mutex_);
  world_ = std::move(next);
}

std::uint64_t DataFacade::version() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return world_->version();
}

std::uint64_t DataFacade::next_version() {
  const std::lock_guard<std::mutex> lock(mutex_);
  return next_version_++;
}

}  // namespace amjs::svc
