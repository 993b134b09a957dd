// Allocation guard for the service's resident World. A sched_server answers
// submit-job projections against one World for as long as it runs, so a
// projection must keep nothing per request. This binary replaces the
// global operator new and delete with counting ones (counting_new.cpp),
// builds a World from a 2-day dataset on each machine model, warms it up
// with one projection per job shape, and then requires that projections
// for fresh job ids make no heap allocation at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perf/counting_new.hpp"
#include "platform/machine_spec.hpp"
#include "svc/facade.hpp"

namespace amjs::svc {
namespace {

constexpr int kFreshIds = 1000;

std::shared_ptr<const World> two_day_world(MachineSpec machine) {
  DatasetSpec spec;  // a 2-day horizon by default
  spec.machine = std::move(machine);
  auto dataset = make_dataset(spec);
  EXPECT_TRUE(dataset.ok());
  auto world = World::build(std::move(dataset).value(), 1);
  EXPECT_TRUE(world.ok());
  return std::move(world).value();
}

/// Sizes from one node to the whole machine, each short, medium and long.
std::vector<Job> job_shapes(NodeCount total) {
  std::vector<Job> shapes;
  for (const NodeCount nodes : {NodeCount{1}, total / 64, total / 8, total / 2, total}) {
    for (const Duration walltime : {minutes(10), hours(2), hours(24)}) {
      Job j;
      j.nodes = nodes;
      j.walltime = walltime;
      j.runtime = walltime;
      shapes.push_back(j);
    }
  }
  return shapes;
}

class WorldAllocationTest : public ::testing::TestWithParam<MachineSpec> {};

TEST_P(WorldAllocationTest, FreshJobIdsAllocateNothing) {
  const auto world = two_day_world(GetParam());
  std::vector<Job> shapes = job_shapes(GetParam().make()->total_nodes());
  std::vector<SimTime> warm_starts;
  for (std::size_t s = 0; s < shapes.size(); ++s) {
    shapes[s].id = static_cast<JobId>(s);
    warm_starts.push_back(world->project_start(shapes[s]).value().start);
  }

  std::vector<SimTime> starts(kFreshIds);
  const std::uint64_t before = test_support::allocation_count();
  for (int i = 0; i < kFreshIds; ++i) {
    Job job = shapes[static_cast<std::size_t>(i) % shapes.size()];
    job.id = static_cast<JobId>(shapes.size()) + i;
    const auto projection = world->project_start(job);
    starts[static_cast<std::size_t>(i)] = projection.ok() ? projection.value().start : -1;
  }
  const std::uint64_t allocations = test_support::allocation_count() - before;

  EXPECT_EQ(allocations, 0u);
  for (int i = 0; i < kFreshIds; ++i) {
    // A job's id never moves its projection: each equals its shape's.
    ASSERT_EQ(starts[static_cast<std::size_t>(i)],
              warm_starts[static_cast<std::size_t>(i) % shapes.size()])
        << "fresh id " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Models, WorldAllocationTest,
                         ::testing::Values(MachineSpec::flat(512), MachineSpec::partitioned()),
                         [](const ::testing::TestParamInfo<MachineSpec>& spec) {
                           return spec.index == 0 ? std::string("Flat512")
                                                  : std::string("Intrepid");
                         });

}  // namespace
}  // namespace amjs::svc
