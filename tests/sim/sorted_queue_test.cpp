// sorted_queue: the five queue orders, sorted afresh at every pass, equal
// a stable_sort of the submission-order queue under each order's written-
// out comparator, pass by pass inside a real simulation. Plus
// SimConfig::stop_after_passes, the bench harness's iteration pin.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/metric_aware.hpp"
#include "platform/flat.hpp"
#include "sched/queue_policies.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration walltime, NodeCount nodes) {
  Job j;
  j.submit = submit;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// A trace with deliberate key collisions (equal walltimes, equal node
/// counts, equal submits) so every tie-break path is exercised.
JobTrace collision_trace(Rng& rng, int n) {
  std::vector<Job> jobs;
  for (int i = 0; i < n; ++i) {
    jobs.push_back(make_job(rng.uniform_int(0, 5) * 100,
                            rng.uniform_int(1, 4) * 60,
                            static_cast<NodeCount>(rng.uniform_int(1, 4) * 8)));
  }
  return trace_of(std::move(jobs));
}

constexpr QueueOrder kAllOrders[] = {
    QueueOrder::kFcfs, QueueOrder::kSjf, QueueOrder::kLjf,
    QueueOrder::kSmallestFirst, QueueOrder::kLargestFirst};

/// Each order spelled out on its own: the primary field in the order's
/// direction, then submit, then id.
bool reference_less(QueueOrder order, const Job& a, const Job& b) {
  switch (order) {
    case QueueOrder::kFcfs: break;
    case QueueOrder::kSjf:
      if (a.walltime != b.walltime) return a.walltime < b.walltime;
      break;
    case QueueOrder::kLjf:
      if (a.walltime != b.walltime) return a.walltime > b.walltime;
      break;
    case QueueOrder::kSmallestFirst:
      if (a.nodes != b.nodes) return a.nodes < b.nodes;
      break;
    case QueueOrder::kLargestFirst:
      if (a.nodes != b.nodes) return a.nodes > b.nodes;
      break;
  }
  if (a.submit != b.submit) return a.submit < b.submit;
  return a.id < b.id;
}

/// Starts nothing, so the queue only grows; at every pass it checks
/// sorted_queue under each order against a stable_sort of ctx.queue().
class SortProbe final : public Scheduler {
 public:
  void schedule(SchedContext& ctx) override {
    ++passes_;
    deepest_ = std::max(deepest_, ctx.queue().size());
    for (const QueueOrder order : kAllOrders) {
      std::vector<JobId> expected = ctx.queue();
      std::stable_sort(expected.begin(), expected.end(), [&](JobId a, JobId b) {
        return reference_less(order, ctx.job(a), ctx.job(b));
      });
      EXPECT_EQ(sorted_queue(ctx, order), expected)
          << "t=" << ctx.now() << " order " << to_string(order);
    }
  }
  [[nodiscard]] std::string name() const override { return "sort-probe"; }

  [[nodiscard]] int passes() const { return passes_; }
  [[nodiscard]] std::size_t deepest() const { return deepest_; }

 private:
  int passes_ = 0;
  std::size_t deepest_ = 0;
};

TEST(SortedQueueTest, MatchesStableSortUnderEveryOrder) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const JobTrace trace = collision_trace(rng, 40);
    FlatMachine machine(64);
    SortProbe probe;
    SimConfig config;
    // Nothing ever finishes, so only the horizon ends the run: just past
    // the last submit instant, before the first metric check.
    config.stop_at = 600;
    Simulator sim(machine, probe, config);
    (void)sim.run(trace);
    EXPECT_GE(probe.passes(), 2) << "trial " << trial;
    EXPECT_EQ(probe.deepest(), trace.size()) << "trial " << trial;
  }
}

TEST(StopAfterPassesTest, PinsSchedulerPassCount) {
  // Ten spaced arrivals on an uncontended machine: every submit triggers
  // its own scheduler pass, so an unpinned run makes at least ten.
  std::vector<Job> jobs;
  for (int i = 0; i < 10; ++i) jobs.push_back(make_job(i * 100, 50, 10));
  const JobTrace trace = trace_of(std::move(jobs));

  const auto passes_with = [&](std::size_t cap) {
    FlatMachine machine(100);
    MetricAwareScheduler sched;  // exposes schedule_calls via stats()
    SimConfig config;
    config.stop_after_passes = cap;
    Simulator sim(machine, sched, config);
    (void)sim.run(trace);
    return sched.stats().schedule_calls;
  };

  EXPECT_EQ(passes_with(3), 3u);
  EXPECT_EQ(passes_with(7), 7u);
  EXPECT_GE(passes_with(0), 10u);  // 0 = unlimited (run to completion)
}

TEST(StopAfterPassesTest, GenerousCapDoesNotChangeTheRun) {
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back(make_job(i * 10, 200, 40));
  const JobTrace trace = trace_of(std::move(jobs));

  const auto run_with = [&](std::size_t cap) {
    FlatMachine machine(100);
    MetricAwareScheduler sched;
    SimConfig config;
    config.stop_after_passes = cap;
    Simulator sim(machine, sched, config);
    return sim.run(trace);
  };

  const auto unlimited = run_with(0);
  const auto capped = run_with(100000);
  ASSERT_EQ(capped.schedule.size(), unlimited.schedule.size());
  for (std::size_t i = 0; i < unlimited.schedule.size(); ++i) {
    EXPECT_EQ(capped.schedule[i].start, unlimited.schedule[i].start) << i;
  }
}

}  // namespace
}  // namespace amjs
