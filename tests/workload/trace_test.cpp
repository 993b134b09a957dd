#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>
#include <vector>

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime = 600, NodeCount nodes = 64) {
  Job j;
  j.id = 0;  // reassigned by from_jobs
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = runtime * 2;
  j.nodes = nodes;
  return j;
}

TEST(JobTraceTest, SortsBySubmitAndAssignsDenseIds) {
  auto trace = JobTrace::from_jobs({make_job(300), make_job(100), make_job(200)});
  ASSERT_TRUE(trace.ok());
  const auto& t = trace.value();
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t.job(0).submit, 100);
  EXPECT_EQ(t.job(1).submit, 200);
  EXPECT_EQ(t.job(2).submit, 300);
  for (JobId id = 0; id < 3; ++id) EXPECT_EQ(t.job(id).id, id);
}

TEST(JobTraceTest, StableOrderForEqualSubmits) {
  Job a = make_job(100, 10);
  Job b = make_job(100, 20);
  auto trace = JobTrace::from_jobs({a, b});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().job(0).runtime, 10);
  EXPECT_EQ(trace.value().job(1).runtime, 20);
}

TEST(JobTraceTest, RejectsInvalidJob) {
  Job bad = make_job(100);
  bad.nodes = 0;
  const auto trace = JobTrace::from_jobs({bad});
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.error().message.find("invalid"), std::string::npos);
}

TEST(JobTraceTest, EmptyTrace) {
  auto trace = JobTrace::from_jobs({});
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace.value().empty());
  EXPECT_EQ(trace.value().stats().job_count, 0u);
}

TEST(JobTraceTest, StatsAggregation) {
  auto trace = JobTrace::from_jobs({
      make_job(0, 100, 10),
      make_job(50, 300, 30),
      make_job(100, 200, 20),
  });
  ASSERT_TRUE(trace.ok());
  const auto s = trace.value().stats();
  EXPECT_EQ(s.job_count, 3u);
  EXPECT_EQ(s.first_submit, 0);
  EXPECT_EQ(s.last_submit, 100);
  EXPECT_EQ(s.min_runtime, 100);
  EXPECT_EQ(s.max_runtime, 300);
  EXPECT_DOUBLE_EQ(s.mean_runtime, 200.0);
  EXPECT_EQ(s.min_nodes, 10);
  EXPECT_EQ(s.max_nodes, 30);
  EXPECT_DOUBLE_EQ(s.mean_nodes, 20.0);
  EXPECT_DOUBLE_EQ(s.total_node_seconds, 100.0 * 10 + 300.0 * 30 + 200.0 * 20);
}

TEST(JobTraceTest, OfferedLoad) {
  auto trace = JobTrace::from_jobs({make_job(0, 100, 10), make_job(100, 100, 10)});
  ASSERT_TRUE(trace.ok());
  const auto s = trace.value().stats();
  // 2000 node-seconds over a 100 s horizon on 100 nodes -> load 0.2.
  EXPECT_DOUBLE_EQ(s.offered_load(100), 0.2);
  EXPECT_DOUBLE_EQ(s.offered_load(0), 0.0);
}

TEST(JobTraceTest, TruncatedAtKeepsPrefix) {
  auto trace = JobTrace::from_jobs({make_job(0), make_job(100), make_job(200)});
  ASSERT_TRUE(trace.ok());
  const auto cut = trace.value().truncated_at(100);
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.job(0).submit, 0);
  EXPECT_EQ(cut.job(1).submit, 100);
}

TEST(JobTraceTest, TruncatedAtIncludesTies) {
  auto trace = JobTrace::from_jobs({make_job(0), make_job(100), make_job(100)});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().truncated_at(100).size(), 3u);
}

TEST(JobTraceTest, TruncatedAtMatchesTheSubmitFilter) {
  // truncated_at(cutoff) is by definition every job with submit <= cutoff,
  // in trace order. Cutoffs before the first submit, on a tie, between
  // submits, on the last submit and after it.
  auto built = JobTrace::from_jobs({make_job(10, 1), make_job(20, 2), make_job(20, 3),
                                    make_job(20, 4), make_job(35, 5), make_job(50, 6)});
  ASSERT_TRUE(built.ok());
  const JobTrace& trace = built.value();
  for (const SimTime cutoff : {SimTime{0}, SimTime{9}, SimTime{10}, SimTime{20},
                               SimTime{21}, SimTime{34}, SimTime{50}, SimTime{1000}}) {
    std::vector<Job> expected;
    for (const Job& j : trace.jobs()) {
      if (j.submit <= cutoff) expected.push_back(j);
    }
    const JobTrace cut = trace.truncated_at(cutoff);
    ASSERT_EQ(cut.size(), expected.size()) << "cutoff " << cutoff;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(cut.jobs()[i].id, expected[i].id) << "cutoff " << cutoff;
      EXPECT_EQ(cut.jobs()[i].submit, expected[i].submit) << "cutoff " << cutoff;
      EXPECT_EQ(cut.jobs()[i].runtime, expected[i].runtime) << "cutoff " << cutoff;
    }
  }
  EXPECT_TRUE(JobTrace().truncated_at(100).empty());
}

TEST(JobTraceTest, PrefixClampsToSize) {
  auto trace = JobTrace::from_jobs({make_job(0), make_job(100)});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().prefix(1).size(), 1u);
  EXPECT_EQ(trace.value().prefix(99).size(), 2u);
  EXPECT_EQ(trace.value().prefix(0).size(), 0u);
}

TEST(JobTraceTest, PrefixAndTruncationAreViewsOfOneStorage) {
  auto built = JobTrace::from_jobs({make_job(0), make_job(100), make_job(200)});
  ASSERT_TRUE(built.ok());
  const JobTrace& trace = built.value();
  const JobTrace copy = trace;
  const JobTrace head = trace.prefix(2);
  const JobTrace cut = trace.truncated_at(100);
  const JobTrace nested = cut.prefix(1);
  EXPECT_EQ(copy.jobs().data(), trace.jobs().data());
  EXPECT_EQ(head.jobs().data(), trace.jobs().data());
  EXPECT_EQ(cut.jobs().data(), trace.jobs().data());
  EXPECT_EQ(nested.jobs().data(), trace.jobs().data());
  EXPECT_EQ(&cut.job(1), &trace.job(1));
  EXPECT_EQ(nested.size(), 1u);
}

TEST(JobTraceTest, JobThrowsPastTheEndOfAView) {
  auto built = JobTrace::from_jobs({make_job(0), make_job(100), make_job(200)});
  ASSERT_TRUE(built.ok());
  const JobTrace cut = built.value().truncated_at(100);
  EXPECT_EQ(cut.job(1).submit, 100);
  EXPECT_THROW((void)cut.job(2), std::out_of_range);  // in the storage, not the view
  EXPECT_THROW((void)cut.job(-1), std::out_of_range);
  EXPECT_THROW((void)built.value().prefix(0).job(0), std::out_of_range);
  EXPECT_THROW((void)JobTrace().job(0), std::out_of_range);
}

TEST(JobTraceTest, ViewOutlivesTheTraceItCameFrom) {
  JobTrace cut;
  {
    auto built =
        JobTrace::from_jobs({make_job(0, 10), make_job(100, 20), make_job(200, 30)});
    ASSERT_TRUE(built.ok());
    cut = built.value().truncated_at(100);
  }
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.job(0).runtime, 10);
  EXPECT_EQ(cut.job(1).runtime, 20);
}

TEST(JobTraceTest, MovedFromTraceIsEmpty) {
  auto built = JobTrace::from_jobs({make_job(0), make_job(100)});
  ASSERT_TRUE(built.ok());
  JobTrace source = built.value();
  const JobTrace moved = std::move(source);
  EXPECT_EQ(moved.size(), 2u);
  EXPECT_TRUE(source.empty());
  source = moved.prefix(1);
  EXPECT_EQ(source.size(), 1u);
}

}  // namespace
}  // namespace amjs
