#include "core/score.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace amjs {
namespace {

QueuedJob qj(JobId id, Duration wait, Duration walltime, SimTime submit = 0) {
  return QueuedJob{id, wait, walltime, submit};
}

TEST(ScoreTest, EmptyQueue) {
  EXPECT_TRUE(score_jobs({}, ScoreParams{}).empty());
}

TEST(ScoreTest, WaitScoreMapsToHundred) {
  const auto scored = score_jobs({qj(0, 100, 600), qj(1, 50, 600), qj(2, 0, 600)},
                                 ScoreParams{1.0, false});
  EXPECT_DOUBLE_EQ(scored[0].s_wait, 100.0);
  EXPECT_DOUBLE_EQ(scored[1].s_wait, 50.0);
  EXPECT_DOUBLE_EQ(scored[2].s_wait, 0.0);
}

TEST(ScoreTest, ZeroMaxWaitGivesZeroScores) {
  // Paper: "If the maximum value is 0, S_w is set to 0" (fresh queue).
  const auto scored = score_jobs({qj(0, 0, 600), qj(1, 0, 300)}, ScoreParams{1.0, false});
  EXPECT_DOUBLE_EQ(scored[0].s_wait, 0.0);
  EXPECT_DOUBLE_EQ(scored[1].s_wait, 0.0);
}

TEST(ScoreTest, RuntimeScoreFavorsShortJobs) {
  const auto scored = score_jobs({qj(0, 0, 3600), qj(1, 0, 600), qj(2, 0, 1800)},
                                 ScoreParams{0.0, false});
  EXPECT_DOUBLE_EQ(scored[0].s_runtime, 0.0);    // longest
  EXPECT_DOUBLE_EQ(scored[1].s_runtime, 100.0);  // shortest
  EXPECT_GT(scored[2].s_runtime, 0.0);
  EXPECT_LT(scored[2].s_runtime, 100.0);
}

TEST(ScoreTest, SingleJobRuntimeScoreIsZero) {
  const auto scored = score_jobs({qj(0, 10, 600)}, ScoreParams{0.5, false});
  EXPECT_DOUBLE_EQ(scored[0].s_runtime, 0.0);
}

TEST(ScoreTest, EqualWalltimesRuntimeScoreIsZero) {
  // Eq. (2) is 0/0 when all walltimes match; defined as 0.
  const auto scored = score_jobs({qj(0, 10, 600), qj(1, 20, 600)}, ScoreParams{0.0, false});
  EXPECT_DOUBLE_EQ(scored[0].s_runtime, 0.0);
  EXPECT_DOUBLE_EQ(scored[1].s_runtime, 0.0);
}

TEST(ScoreTest, BalancedPriorityIsConvexCombination) {
  const std::vector<QueuedJob> queue = {qj(0, 100, 600), qj(1, 40, 1200)};
  for (const double bf : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    const auto scored = score_jobs(queue, ScoreParams{bf, false});
    for (const auto& s : scored) {
      EXPECT_NEAR(s.s_priority, bf * s.s_wait + (1.0 - bf) * s.s_runtime, 1e-12);
      EXPECT_GE(s.s_priority, 0.0);
      EXPECT_LE(s.s_priority, 100.0);
    }
  }
}

TEST(RankTest, Bf1IsFcfsOrder) {
  // Longest-waiting first == earliest submit first.
  const auto ranked = rank_jobs(
      {qj(2, 10, 100, 300), qj(0, 100, 900, 100), qj(1, 50, 50, 200)},
      ScoreParams{1.0, false});
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_EQ(ranked[0].id, 0);
  EXPECT_EQ(ranked[1].id, 1);
  EXPECT_EQ(ranked[2].id, 2);
}

TEST(RankTest, Bf0IsSjfOrder) {
  const auto ranked = rank_jobs(
      {qj(0, 100, 900, 100), qj(1, 50, 50, 200), qj(2, 10, 500, 300)},
      ScoreParams{0.0, false});
  EXPECT_EQ(ranked[0].id, 1);  // shortest walltime
  EXPECT_EQ(ranked[1].id, 2);
  EXPECT_EQ(ranked[2].id, 0);
}

TEST(RankTest, TiesFallBackToSubmitOrder) {
  // All scores zero (no waits, equal walltimes) -> FCFS by submit.
  const auto ranked = rank_jobs(
      {qj(5, 0, 600, 500), qj(3, 0, 600, 300), qj(9, 0, 600, 900)},
      ScoreParams{0.5, false});
  EXPECT_EQ(ranked[0].id, 3);
  EXPECT_EQ(ranked[1].id, 5);
  EXPECT_EQ(ranked[2].id, 9);
}

TEST(RankTest, MidBalanceTradesOff) {
  // Job 0: waited long, long walltime. Job 1: fresh, short walltime.
  const std::vector<QueuedJob> queue = {qj(0, 1000, 7200, 0), qj(1, 0, 60, 1000)};
  const auto fair = rank_jobs(queue, ScoreParams{1.0, false});
  const auto eff = rank_jobs(queue, ScoreParams{0.0, false});
  EXPECT_EQ(fair[0].id, 0);
  EXPECT_EQ(eff[0].id, 1);
}

TEST(ScoreTest, LiteralEq1InvertsPreference) {
  // The printed eq. (1) gives the *least*-waited job the highest S_w
  // (documented erratum, kept for the ablation bench).
  const auto scored = score_jobs({qj(0, 100, 600), qj(1, 25, 600)},
                                 ScoreParams{1.0, true});
  EXPECT_DOUBLE_EQ(scored[0].s_wait, 100.0);        // wait_max/wait_0 = 1
  EXPECT_DOUBLE_EQ(scored[1].s_wait, 400.0);        // unbounded beyond 100
  EXPECT_GT(scored[1].s_wait, scored[0].s_wait);
}

TEST(ScoreTest, LiteralEq1GuardsZeroWait) {
  const auto scored = score_jobs({qj(0, 100, 600), qj(1, 0, 600)},
                                 ScoreParams{1.0, true});
  EXPECT_DOUBLE_EQ(scored[1].s_wait, 0.0);
}

class BalanceMonotonicityTest : public ::testing::TestWithParam<double> {};

TEST_P(BalanceMonotonicityTest, ShortJobNeverLosesRankAsBfDrops) {
  const double bf = GetParam();
  const std::vector<QueuedJob> queue = {
      qj(0, 500, 7200, 0), qj(1, 400, 600, 100), qj(2, 300, 3600, 200),
      qj(3, 200, 120, 300), qj(4, 100, 1800, 400)};
  const auto at_bf = rank_jobs(queue, ScoreParams{bf, false});
  const auto at_lower = rank_jobs(queue, ScoreParams{bf * 0.5, false});
  auto rank_of = [](const std::vector<ScoredJob>& ranked, JobId id) {
    for (std::size_t i = 0; i < ranked.size(); ++i) {
      if (ranked[i].id == id) return i;
    }
    return ranked.size();
  };
  // Job 3 is the shortest; lowering BF must not worsen its rank.
  EXPECT_LE(rank_of(at_lower, 3), rank_of(at_bf, 3));
}

INSTANTIATE_TEST_SUITE_P(Sweep, BalanceMonotonicityTest,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0));

TEST(RankTest, MatchesStableSortReference) {
  // rank_jobs sorts with std::sort into a reused buffer. Its comparator is
  // total over distinct ids, so it must give the order of a stable sort by
  // priority alone of the queue in FCFS (submit, id) order. Random queues
  // of 0-64 jobs draw their waits, walltimes and submits from a few values
  // each, so priorities and submits tie often.
  Rng rng(2012);
  std::vector<ScoredJob> ranked;  // reused across queues, as by a scheduler
  for (int round = 0; round < 400; ++round) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 64));
    std::vector<JobId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<JobId>(i);
    rng.shuffle(ids);
    std::vector<QueuedJob> queue;
    for (const JobId id : ids) {
      queue.push_back(qj(id, 600 * rng.uniform_int(0, 3), 1800 * rng.uniform_int(1, 3),
                         300 * rng.uniform_int(0, 4)));
    }
    for (const double bf : {0.0, 0.25, 0.5, 1.0}) {
      for (const bool literal : {false, true}) {
        const ScoreParams params{bf, literal};
        std::vector<QueuedJob> fcfs = queue;
        std::sort(fcfs.begin(), fcfs.end(), [](const QueuedJob& a, const QueuedJob& b) {
          return std::pair(a.submit, a.id) < std::pair(b.submit, b.id);
        });
        auto reference = score_jobs(fcfs, params);
        std::stable_sort(reference.begin(), reference.end(),
                         [](const ScoredJob& a, const ScoredJob& b) {
                           return a.s_priority > b.s_priority;
                         });
        rank_jobs(queue, params, ranked);
        ASSERT_EQ(ranked.size(), reference.size());
        for (std::size_t i = 0; i < ranked.size(); ++i) {
          ASSERT_EQ(ranked[i].id, reference[i].id)
              << "round " << round << " BF " << bf << " literal " << literal
              << " rank " << i;
          EXPECT_EQ(ranked[i].s_priority, reference[i].s_priority);
          EXPECT_EQ(ranked[i].submit, reference[i].submit);
        }
      }
    }
  }
}

}  // namespace
}  // namespace amjs
