#include "platform/flat.hpp"

#include <gtest/gtest.h>

#include "sched/calendar/calendar.hpp"

namespace amjs {
namespace {

Job make_job(JobId id, NodeCount nodes, Duration walltime, SimTime submit = 0) {
  Job j;
  j.id = id;
  j.submit = submit;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

TEST(FlatMachineTest, StartAndFinishTrackBusyNodes) {
  FlatMachine m(100);
  EXPECT_EQ(m.total_nodes(), 100);
  EXPECT_EQ(m.idle_nodes(), 100);

  const Job j = make_job(0, 40, 600);
  ASSERT_TRUE(m.start(j, 0));
  EXPECT_EQ(m.busy_nodes(), 40);
  EXPECT_EQ(m.idle_nodes(), 60);

  m.finish(0, 300);
  EXPECT_EQ(m.busy_nodes(), 0);
}

TEST(FlatMachineTest, RejectsOverCapacity) {
  FlatMachine m(100);
  const Job big = make_job(0, 101, 600);
  EXPECT_FALSE(m.fits(big));
  EXPECT_FALSE(m.can_start(big));
  EXPECT_FALSE(m.start(big, 0));
}

TEST(FlatMachineTest, RejectsWhenIdleInsufficient) {
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(0, 70, 600), 0));
  const Job j = make_job(1, 40, 600);
  EXPECT_TRUE(m.fits(j));
  EXPECT_FALSE(m.can_start(j));
  EXPECT_FALSE(m.start(j, 0));
  EXPECT_EQ(m.busy_nodes(), 70);  // failed start leaves no residue
}

TEST(FlatMachineTest, OccupancyEqualsRequest) {
  FlatMachine m(100);
  EXPECT_EQ(m.occupancy(make_job(0, 33, 60)), 33);
}

TEST(FlatMachineTest, RunningSnapshot) {
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(3, 10, 500), 100));
  const auto running = m.running();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].job, 3);
  EXPECT_EQ(running[0].occupied, 10);
  EXPECT_EQ(running[0].start, 100);
  EXPECT_EQ(running[0].predicted_end, 600);
}

TEST(FlatMachineTest, ResetClearsState) {
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(0, 50, 600), 0));
  m.reset();
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_TRUE(m.running().empty());
}

TEST(FlatPlanTest, EmptyMachineStartsNow) {
  FlatMachine m(100);
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(1000);
  EXPECT_EQ(plan->find_start(make_job(0, 100, 600), 1000), 1000);
}

TEST(FlatPlanTest, WaitsForPredictedRelease) {
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(0, 80, 500), 0));  // ends (predicted) at 500
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(100);
  // 30 nodes free now; a 50-node job must wait until 500.
  EXPECT_EQ(plan->find_start(make_job(1, 50, 600), 100), 500);
  // A 20-node job fits immediately.
  EXPECT_EQ(plan->find_start(make_job(2, 20, 600), 100), 100);
}

TEST(FlatPlanTest, CommitConsumesCapacity) {
  FlatMachine m(100);
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit(make_job(0, 60, 1000), 0);
  // Another 60-node job cannot overlap; it must wait until 1000.
  EXPECT_EQ(plan->find_start(make_job(1, 60, 500), 0), 1000);
  // A 40-node job still fits alongside.
  EXPECT_EQ(plan->find_start(make_job(2, 40, 500), 0), 0);
}

TEST(FlatPlanTest, FindsGapBetweenReservations) {
  FlatMachine m(100);
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit(make_job(0, 100, 100), 0);     // [0, 100) full machine
  plan->commit(make_job(1, 100, 100), 500);   // [500, 600) full machine
  // A 200-second job fits in the [100, 500) gap.
  EXPECT_EQ(plan->find_start(make_job(2, 100, 200), 0), 100);
  // A 600-second job does not fit the gap; it must start after 600.
  EXPECT_EQ(plan->find_start(make_job(3, 100, 600), 0), 600);
}

TEST(FlatPlanTest, EarliestParameterRespected) {
  FlatMachine m(100);
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  EXPECT_EQ(plan->find_start(make_job(0, 10, 60), 700), 700);
}

TEST(FlatPlanTest, CloneIsIndependent) {
  FlatMachine m(100);
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  auto copy = plan->clone();
  copy->commit(make_job(0, 100, 1000), 0);
  // Original is unaffected.
  EXPECT_EQ(plan->find_start(make_job(1, 100, 10), 0), 0);
  EXPECT_EQ(copy->find_start(make_job(1, 100, 10), 0), 1000);
}

TEST(FlatPlanTest, FreeAtReflectsRunningJobs) {
  // Free capacity is 70 nodes on [0, 400) and the whole machine after.
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(0, 30, 400), 0));
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(0);
  for (const SimTime t : {0, 399}) {
    EXPECT_TRUE(plan->fits_at(make_job(1, 70, 1), t)) << "t=" << t;
    EXPECT_FALSE(plan->fits_at(make_job(1, 71, 1), t)) << "t=" << t;
  }
  EXPECT_TRUE(plan->fits_at(make_job(1, 100, 1), 400));
}

TEST(FlatPlanTest, StalePredictedEndTreatedAsImmediate) {
  // A job past its predicted end (running longer than walltime predicts in
  // the plan's frame) should not block the plan forever.
  FlatMachine m(100);
  ASSERT_TRUE(m.start(make_job(0, 100, 100), 0));  // predicted end 100
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(200);  // now past prediction
  EXPECT_EQ(plan->find_start(make_job(1, 100, 50), 200), 200);
}

}  // namespace
}  // namespace amjs
