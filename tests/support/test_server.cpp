#include "support/test_server.hpp"

#include <utility>

#include "core/metric_aware.hpp"
#include "sim/simulator.hpp"

namespace amjs::test_support {

svc::DatasetSpec small_dataset_spec() {
  svc::DatasetSpec spec;
  spec.machine = MachineSpec::flat(100);
  spec.horizon = days(1);
  spec.snapshot_check = 4;
  spec.twin.horizon = hours(2);
  return spec;
}

// Setup failures surface as the std::bad_variant_access that Result's
// value() throws, which gtest reports as a failed test.
std::unique_ptr<svc::SchedServer> start_server(svc::ServerConfig config,
                                               const svc::DatasetSpec& spec) {
  auto world =
      svc::World::build(svc::make_dataset(spec).value(), /*version=*/1).value();
  config.threads = 1;
  auto server = std::make_unique<svc::SchedServer>(
      twinsvc::Listener::bind(twinsvc::Endpoint::tcp("127.0.0.1", 0)).value(),
      std::move(world), config);
  server->start();
  return server;
}

JobTrace contended_trace() {
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    Job j;
    j.submit = i * 350;
    j.runtime = 1200 + (i % 5) * 900;
    j.walltime = j.runtime + 600;
    j.nodes = 20 + (i % 4) * 15;
    jobs.push_back(j);
  }
  return JobTrace::from_jobs(std::move(jobs)).value();
}

SimSnapshot snapshot_at(const MachineSpec& machine, const JobTrace& trace,
                        std::size_t check_index) {
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == check_index) snapshot = s;
  };
  auto live = machine.make();
  MetricAwareScheduler sched;
  Simulator sim(*live, sched, config);
  (void)sim.run(trace);
  return snapshot;
}

std::vector<TwinCandidateSpec> grid_candidates(std::initializer_list<double> bfs,
                                               std::initializer_list<int> windows) {
  std::vector<TwinCandidateSpec> candidates;
  for (const double bf : bfs) {
    for (const int w : windows) {
      MetricAwareConfig cfg;
      cfg.policy = {bf, w};
      candidates.push_back({cfg.policy.label(), cfg});
    }
  }
  return candidates;
}

TwinConfig twin_config() {
  TwinConfig twin;
  twin.horizon = hours(2);
  twin.threads = 1;
  return twin;
}

bool same_verdicts(const std::vector<TwinForkResult>& a,
                   const std::vector<TwinForkResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label ||
        a[i].avg_queue_depth_min != b[i].avg_queue_depth_min ||
        a[i].utilization != b[i].utilization ||
        a[i].objective != b[i].objective ||
        a[i].jobs_started != b[i].jobs_started) {
      return false;
    }
  }
  return true;
}

}  // namespace amjs::test_support
