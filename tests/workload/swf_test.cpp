#include "workload/swf.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace amjs {
namespace {

// job submit wait run alloc cpu mem reqprocs reqtime reqmem status user
// group exe queue partition preceding think
constexpr const char* kTwoJobLog =
    "; Comment header\n"
    "; UnixStartTime: 0\n"
    "1 100 -1 600 64 -1 -1 64 1200 -1 1 7 -1 -1 2 -1 -1 -1\n"
    "2 200 -1 300 -1 -1 -1 128 900 -1 1 8 -1 -1 0 -1 -1 -1\n";

TEST(SwfReadTest, ParsesBasicFields) {
  std::istringstream in(kTwoJobLog);
  SwfReadOptions opts;
  opts.rebase_to_zero = false;
  const auto trace = read_swf(in, opts);
  ASSERT_TRUE(trace.ok()) << trace.error().to_string();
  const auto& t = trace.value();
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t.job(0).submit, 100);
  EXPECT_EQ(t.job(0).runtime, 600);
  EXPECT_EQ(t.job(0).walltime, 1200);
  EXPECT_EQ(t.job(0).nodes, 64);
  EXPECT_EQ(t.job(0).user, "u7");
  EXPECT_EQ(t.job(0).queue, 2);
  EXPECT_EQ(t.job(1).nodes, 128);
}

TEST(SwfReadTest, RebaseToZero) {
  std::istringstream in(kTwoJobLog);
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().job(0).submit, 0);
  EXPECT_EQ(trace.value().job(1).submit, 100);
}

TEST(SwfReadTest, ProcsPerNodeRoundsUp) {
  std::istringstream in("1 0 -1 60 -1 -1 -1 9 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  SwfReadOptions opts;
  opts.procs_per_node = 4;
  const auto trace = read_swf(in, opts);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().job(0).nodes, 3);  // ceil(9/4)
}

TEST(SwfReadTest, MissingRequestedTimeUsesFallback) {
  std::istringstream in("1 0 -1 1000 8 -1 -1 8 -1 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  SwfReadOptions opts;
  opts.fallback_walltime_factor = 2.0;
  const auto trace = read_swf(in, opts);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().job(0).walltime, 2000);
}

TEST(SwfReadTest, WalltimeNeverBelowRuntime) {
  // Requested 100 s but ran 500 s (an overrun record): keep it schedulable.
  std::istringstream in("1 0 -1 500 8 -1 -1 8 100 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_GE(trace.value().job(0).walltime, 500);
}

TEST(SwfReadTest, DropsCancelledJobs) {
  std::istringstream in(
      "1 0 -1 0 8 -1 -1 8 600 -1 5 -1 -1 -1 0 -1 -1 -1\n"
      "2 10 -1 60 8 -1 -1 8 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().size(), 1u);
}

TEST(SwfReadTest, KeepsFailedJobsThatRan) {
  std::istringstream in("1 0 -1 120 8 -1 -1 8 600 -1 0 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().size(), 1u);
  EXPECT_EQ(trace.value().job(0).runtime, 120);
}

TEST(SwfReadTest, DropsPartiallyRunCancelledJobs) {
  // A status-5 job that ran for a while before cancellation is still
  // cancelled: drop_cancelled removes it regardless of runtime.
  std::istringstream in(
      "1 0 -1 300 8 -1 -1 8 600 -1 5 -1 -1 -1 0 -1 -1 -1\n"
      "2 10 -1 60 8 -1 -1 8 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().size(), 1u);
  EXPECT_EQ(trace.value().job(0).runtime, 60);
}

TEST(SwfReadTest, KeepPartialCancelledOptIn) {
  // keep_partial_cancelled retains cancelled jobs that consumed machine
  // time (they occupied nodes and matter for utilization studies) while
  // still dropping the zero-runtime ones that never ran.
  std::istringstream in(
      "1 0 -1 300 8 -1 -1 8 600 -1 5 -1 -1 -1 0 -1 -1 -1\n"
      "2 10 -1 0 8 -1 -1 8 600 -1 5 -1 -1 -1 0 -1 -1 -1\n");
  SwfReadOptions opts;
  opts.keep_partial_cancelled = true;
  const auto trace = read_swf(in, opts);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().size(), 1u);
  EXPECT_EQ(trace.value().job(0).runtime, 300);
}

TEST(SwfReadTest, SkipsRecordsWithoutSize) {
  std::istringstream in("1 0 -1 60 -1 -1 -1 -1 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_TRUE(trace.value().empty());
}

TEST(SwfReadTest, MalformedLineReportsLineNumber) {
  std::istringstream in("; header\n1 2 3\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.error().context.find("line 2"), std::string::npos);
}

TEST(SwfReadTest, NonNumericFieldFails) {
  std::istringstream in("1 abc -1 60 8 -1 -1 8 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  EXPECT_FALSE(read_swf(in, SwfReadOptions{}).ok());
}

TEST(SwfReadTest, FractionalRuntimeAccepted) {
  std::istringstream in("1 0 -1 59.5 8 -1 -1 8 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace.value().job(0).runtime, 59);
}

// A runtime (field 4) that is not a finite value in int64 range cannot be
// truncated to whole seconds; the record is an error naming its line and
// field, not a silently accepted 0 s job.
TEST(SwfReadTest, NonFiniteOrHugeRuntimeFails) {
  for (const char* runtime : {"nan", "inf", "-inf", "1e300", "-1e300"}) {
    std::istringstream in(std::string("; header\n1 0 -1 ") + runtime +
                          " 8 -1 -1 8 600 -1 1 -1 -1 -1 0 -1 -1 -1\n");
    const auto trace = read_swf(in, SwfReadOptions{});
    ASSERT_FALSE(trace.ok()) << "runtime " << runtime;
    EXPECT_NE(trace.error().context.find("line 2"), std::string::npos) << runtime;
    EXPECT_NE(trace.error().message.find("field 4"), std::string::npos) << runtime;
  }
}

// Without a requested time the walltime falls back to ceil(factor *
// runtime); at the default factor 1.5 a runtime of 7e18 s (castable on its
// own) gives 1.05e19 s, past INT64_MAX.
TEST(SwfReadTest, FallbackWalltimePastInt64Fails) {
  std::istringstream in("1 0 -1 7e18 8 -1 -1 8 -1 -1 1 -1 -1 -1 0 -1 -1 -1\n");
  const auto trace = read_swf(in, SwfReadOptions{});
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.error().context.find("line 1"), std::string::npos);
  EXPECT_NE(trace.error().message.find("field 4"), std::string::npos);
}

TEST(SwfRoundTripTest, WriteThenReadIsIdentity) {
  std::vector<Job> jobs;
  for (int i = 0; i < 20; ++i) {
    Job j;
    j.submit = i * 137;
    j.runtime = 60 + i * 13;
    j.walltime = j.runtime * 2;
    j.nodes = 1 + i * 7;
    j.user = "u" + std::to_string(i % 3);
    j.queue = i % 2;
    jobs.push_back(j);
  }
  auto original = JobTrace::from_jobs(std::move(jobs));
  ASSERT_TRUE(original.ok());

  std::stringstream buffer;
  write_swf(buffer, original.value(), "round-trip test");

  SwfReadOptions opts;
  opts.rebase_to_zero = false;
  const auto reread = read_swf(buffer, opts);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  ASSERT_EQ(reread.value().size(), original.value().size());
  for (JobId id = 0; id < static_cast<JobId>(original.value().size()); ++id) {
    const Job& a = original.value().job(id);
    const Job& b = reread.value().job(id);
    EXPECT_EQ(a.submit, b.submit);
    EXPECT_EQ(a.runtime, b.runtime);
    EXPECT_EQ(a.walltime, b.walltime);
    EXPECT_EQ(a.nodes, b.nodes);
    EXPECT_EQ(a.user, b.user);
    EXPECT_EQ(a.queue, b.queue);
  }
}

TEST(SwfRoundTripTest, ProcsPerNodeRoundTrips) {
  // Regression: write_swf used to emit the *node* count into the processor
  // fields, so a read-with-divisor pass over its own output shrank every
  // job by procs_per_node. Writing with a matching multiplier must be the
  // exact inverse of reading with the divisor.
  std::vector<Job> jobs;
  for (int i = 0; i < 8; ++i) {
    Job j;
    j.submit = i * 100;
    j.runtime = 120;
    j.walltime = 600;
    j.nodes = 1 + i * 3;
    jobs.push_back(j);
  }
  auto original = JobTrace::from_jobs(std::move(jobs));
  ASSERT_TRUE(original.ok());

  SwfWriteOptions write_opts;
  write_opts.procs_per_node = 4;
  std::stringstream buffer;
  write_swf(buffer, original.value(), write_opts);

  SwfReadOptions read_opts;
  read_opts.procs_per_node = 4;
  read_opts.rebase_to_zero = false;
  const auto reread = read_swf(buffer, read_opts);
  ASSERT_TRUE(reread.ok()) << reread.error().to_string();
  ASSERT_EQ(reread.value().size(), original.value().size());
  for (JobId id = 0; id < static_cast<JobId>(original.value().size()); ++id) {
    EXPECT_EQ(reread.value().job(id).nodes, original.value().job(id).nodes)
        << "job " << id;
  }
}

TEST(SwfFileTest, MissingFileFails) {
  const auto trace = read_swf_file("/nonexistent/path.swf");
  ASSERT_FALSE(trace.ok());
  EXPECT_NE(trace.error().context.find("/nonexistent"), std::string::npos);
}

}  // namespace
}  // namespace amjs
