#include "util/parallel.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <numeric>
#include <set>
#include <thread>

#include "core/balancer.hpp"
#include "platform/flat.hpp"
#include "sim/simulator.hpp"

namespace amjs {
namespace {

TEST(ParallelForTest, ZeroCountIsNoOp) {
  parallel_for(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForTest, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_for(kCount, [&](std::size_t i) { ++hits[i]; }, 4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, SingleThreadFallback) {
  std::vector<int> order;
  parallel_for(5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); }, 1);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));  // sequential & in order
}

TEST(ParallelForTest, MoreThreadsThanWorkIsSafe) {
  std::atomic<int> total{0};
  parallel_for(3, [&](std::size_t) { ++total; }, 64);
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelForTest, NestedLoopRunsInlineOnTheCallingWorker) {
  // Every index of an inner parallel_for runs on the outer body's thread,
  // in order, whatever thread count the inner call asks for.
  constexpr std::size_t kOuter = 4;
  constexpr std::size_t kInner = 16;
  std::vector<std::thread::id> outer_thread(kOuter);
  std::vector<std::vector<std::thread::id>> inner_thread(kOuter);
  std::vector<std::vector<std::size_t>> inner_order(kOuter);
  parallel_for(
      kOuter,
      [&](std::size_t o) {
        outer_thread[o] = std::this_thread::get_id();
        parallel_for(
            kInner,
            [&](std::size_t i) {
              inner_thread[o].push_back(std::this_thread::get_id());
              inner_order[o].push_back(i);
            },
            4);
      },
      4);
  std::vector<std::size_t> in_order(kInner);
  std::iota(in_order.begin(), in_order.end(), 0);
  for (std::size_t o = 0; o < kOuter; ++o) {
    ASSERT_EQ(inner_thread[o].size(), kInner);
    for (const std::thread::id id : inner_thread[o]) EXPECT_EQ(id, outer_thread[o]);
    EXPECT_EQ(inner_order[o], in_order);
  }
}

TEST(ParallelWidthTest, IsTheAffinityMaskOutsideABodyAndOneInside) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  const auto cpus = static_cast<unsigned>(CPU_COUNT(&mask));
  EXPECT_EQ(parallel_width(), cpus);

  // Inside a body, threaded or inline (one index, or threads = 1).
  for (const auto& [count, threads] : {std::pair{std::size_t{4}, 4u},
                                       std::pair{std::size_t{1}, 0u},
                                       std::pair{std::size_t{3}, 1u}}) {
    std::vector<unsigned> widths(count);
    parallel_for(count, [&](std::size_t i) { widths[i] = parallel_width(); }, threads);
    for (const unsigned w : widths) EXPECT_EQ(w, 1u);
  }
  EXPECT_EQ(parallel_width(), cpus);  // restored once the loop returns
}

TEST(ParallelMapTest, ProducesAllResultsInOrder) {
  const auto squares = parallel_map<std::size_t>(
      100, [](std::size_t i) { return i * i; }, 4);
  ASSERT_EQ(squares.size(), 100u);
  for (std::size_t i = 0; i < squares.size(); ++i) EXPECT_EQ(squares[i], i * i);
}

TEST(ParallelMapTest, SupportsNonDefaultConstructibleResults) {
  // Results build in optional slots, so T needs no default constructor —
  // and the output is identical for any thread count.
  struct Score {
    explicit Score(double v) : value(v) {}
    double value;
  };
  std::vector<std::vector<double>> runs;
  for (const unsigned threads : {1u, 2u, 0u}) {
    const auto scores = parallel_map<Score>(
        50, [](std::size_t i) { return Score(static_cast<double>(i) * 1.5); },
        threads);
    ASSERT_EQ(scores.size(), 50u);
    std::vector<double> values;
    for (const auto& s : scores) values.push_back(s.value);
    runs.push_back(std::move(values));
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_EQ(runs[0], runs[2]);
}

TEST(ParallelMapTest, ConcurrentSimulationsMatchSequential) {
  // The real use case: independent simulations in parallel must produce
  // bit-identical results to running them one by one.
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) {
    Job j;
    j.submit = i * 120;
    j.runtime = 300 + (i % 5) * 600;
    j.walltime = j.runtime * 2;
    j.nodes = 8 + (i % 4) * 24;
    jobs.push_back(j);
  }
  auto trace = JobTrace::from_jobs(std::move(jobs));
  ASSERT_TRUE(trace.ok());

  const std::vector<double> bfs = {1.0, 0.75, 0.5, 0.25, 0.0};
  auto run_one = [&](std::size_t i) {
    FlatMachine machine(128);
    const auto sched = MetricsBalancer::make(BalancerSpec::fixed(bfs[i], 2));
    Simulator sim(machine, *sched);
    const auto result = sim.run(trace.value());
    double total_wait = 0;
    for (const auto& e : result.schedule) total_wait += static_cast<double>(e.wait());
    return total_wait;
  };

  const auto parallel = parallel_map<double>(bfs.size(), run_one, 4);
  std::vector<double> sequential;
  for (std::size_t i = 0; i < bfs.size(); ++i) sequential.push_back(run_one(i));
  EXPECT_EQ(parallel, sequential);
}

}  // namespace
}  // namespace amjs
