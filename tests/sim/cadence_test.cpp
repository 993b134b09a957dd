// Metric-check cadence and event-ordering behaviour of the Simulator.
#include <gtest/gtest.h>

#include <algorithm>

#include "platform/flat.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime, NodeCount nodes) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = runtime;
  j.nodes = nodes;
  return j;
}

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

class CountingScheduler final : public Scheduler {
 public:
  void schedule(SchedContext& ctx) override {
    ++schedule_calls;
    inner_.schedule(ctx);
  }
  void on_metric_check(SchedContext&, double qd) override {
    ++checks;
    last_qd = qd;
    max_qd = std::max(max_qd, qd);
  }
  [[nodiscard]] std::string name() const override { return "counting"; }
  void reset() override {
    schedule_calls = 0;
    checks = 0;
    last_qd = 0.0;
    max_qd = 0.0;
  }

  int schedule_calls = 0;
  int checks = 0;
  double last_qd = 0.0;
  double max_qd = 0.0;

 private:
  EasyBackfillScheduler inner_;
};

TEST(CadenceTest, ChecksEveryInterval) {
  FlatMachine machine(100);
  CountingScheduler sched;
  SimConfig config;
  config.metric_check_interval = minutes(30);
  Simulator sim(machine, sched, config);
  // One 3-hour job: checks at 0:30, 1:00, ..., until the job ends at 3:00.
  (void)sim.run(trace_of({make_job(0, hours(3), 10)}));
  // Checks fire at 30,60,...,180 min BUT the run may end at the 3h job-end
  // event before the 180-min check is processed (job end sorts first).
  EXPECT_GE(sched.checks, 5);
  EXPECT_LE(sched.checks, 6);
}

TEST(CadenceTest, CustomIntervalRespected) {
  FlatMachine machine(100);
  CountingScheduler sched;
  SimConfig config;
  config.metric_check_interval = hours(1);
  Simulator sim(machine, sched, config);
  (void)sim.run(trace_of({make_job(0, hours(3), 10)}));
  EXPECT_GE(sched.checks, 2);
  EXPECT_LE(sched.checks, 3);
}

TEST(CadenceTest, SchedulerInvokedOnEveryEventBatch) {
  FlatMachine machine(100);
  CountingScheduler sched;
  Simulator sim(machine, sched);
  // Two submits at distinct times + two ends + checks -> at least 4 passes.
  (void)sim.run(trace_of({make_job(0, 600, 10), make_job(100, 600, 10)}));
  EXPECT_GE(sched.schedule_calls, 4);
}

TEST(CadenceTest, SimultaneousEventsBatchIntoOnePass) {
  FlatMachine machine(100);
  CountingScheduler sched;
  Simulator sim(machine, sched);
  // Five submits at the same instant: one scheduling pass serves them all.
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) jobs.push_back(make_job(500, 600, 10));
  (void)sim.run(trace_of(std::move(jobs)));
  // Passes: t=500 batch (1) + end batch at t=1100 (1) + checks in between.
  // The submit batch must NOT have produced five separate passes.
  EXPECT_LE(sched.schedule_calls, 4);
}

TEST(CadenceTest, QueueDepthReportedToChecks) {
  FlatMachine machine(10);
  CountingScheduler sched;
  Simulator sim(machine, sched);
  // Job 1 waits behind job 0 (both need the whole machine).
  (void)sim.run(trace_of({make_job(0, hours(2), 10), make_job(0, hours(1), 10)}));
  EXPECT_GT(sched.max_qd, 0.0);
}

TEST(CadenceTest, ChecksStopAfterLastJob) {
  FlatMachine machine(100);
  CountingScheduler sched;
  SimConfig config;
  config.metric_check_interval = minutes(30);
  Simulator sim(machine, sched, config);
  (void)sim.run(trace_of({make_job(0, minutes(10), 10)}));
  // Job ends at minute 10; at most the minute-30 check may fire before the
  // event queue notices the run is done.
  EXPECT_LE(sched.checks, 1);
}

}  // namespace
}  // namespace amjs
