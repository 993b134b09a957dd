// Property tests shared by both machine models: the planning abstraction
// must agree with the live machine and never oversubscribe, and every Plan
// implementation (the calendar views and the reference plans of
// tests/support/reference_plans.*) must keep the Plan contract
// (platform/machine.hpp): the find_start properties (a) and (b),
// order-independence (c), refusals that extend to dominating jobs (d), and
// an exact undo_last_commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"
#include "support/reference_plans.hpp"
#include "util/rng.hpp"

namespace amjs {
namespace {

enum class MachineKind { kFlat, kPartition };

std::unique_ptr<Machine> make_machine(MachineKind kind) {
  if (kind == MachineKind::kFlat) return std::make_unique<FlatMachine>(4096);
  PartitionConfig cfg;
  cfg.leaf_nodes = 512;
  cfg.row_leaves = 4;
  cfg.rows = 2;
  return std::make_unique<PartitionMachine>(cfg);
}

Job random_job(JobId id, Rng& rng) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.nodes = rng.uniform_int(1, 4096);
  j.walltime = rng.uniform_int(60, 7200);
  j.runtime = j.walltime;
  return j;
}

class PlanPropertyTest : public ::testing::TestWithParam<MachineKind> {};

TEST_P(PlanPropertyTest, CanStartAgreesWithPlanFindStart) {
  auto machine = make_machine(GetParam());
  Rng rng(GetParam() == MachineKind::kFlat ? 101 : 202);

  // Load the machine with a random running set, then check agreement for a
  // batch of probe jobs.
  JobId next_id = 0;
  for (int i = 0; i < 6; ++i) {
    const Job j = random_job(next_id, rng);
    if (machine->start(j, 0)) ++next_id;
  }
  const auto plan = test_support::reference_plan(*machine, 0);
  for (int i = 0; i < 200; ++i) {
    const Job probe = random_job(1000 + i, rng);
    if (!machine->fits(probe)) continue;
    const bool now_live = machine->can_start(probe);
    const bool now_plan = plan->find_start(probe, 0) == 0;
    EXPECT_EQ(now_live, now_plan) << "nodes=" << probe.nodes;
  }
}

TEST_P(PlanPropertyTest, FindStartIsMonotoneInEarliest) {
  auto machine = make_machine(GetParam());
  Rng rng(7);
  JobId next_id = 0;
  for (int i = 0; i < 5; ++i) {
    const Job j = random_job(next_id, rng);
    if (machine->start(j, 0)) ++next_id;
  }
  const auto plan = test_support::reference_plan(*machine, 0);
  for (int i = 0; i < 100; ++i) {
    const Job probe = random_job(2000 + i, rng);
    if (!machine->fits(probe)) continue;
    const SimTime s0 = plan->find_start(probe, 0);
    const SimTime s1 = plan->find_start(probe, s0 + 10);
    EXPECT_GE(s1, s0 + 10);
    EXPECT_GE(s0, 0);
  }
}

TEST_P(PlanPropertyTest, FindStartResultIsCommittable) {
  auto machine = make_machine(GetParam());
  Rng rng(13);
  auto plan = test_support::reference_plan(*machine, 0);
  // Commit a random chain of jobs at their found starts; commit asserts
  // feasibility internally, and capacity must never go negative (FlatPlan
  // asserts in occupy()).
  for (int i = 0; i < 40; ++i) {
    Job j = random_job(i, rng);
    if (!machine->fits(j)) continue;
    const SimTime start = plan->find_start(j, 0);
    plan->commit(j, start);
  }
  SUCCEED();
}

TEST_P(PlanPropertyTest, SequentialCommitsNeverOverlapCapacity) {
  auto machine = make_machine(GetParam());
  Rng rng(17);
  auto plan = test_support::reference_plan(*machine, 0);
  struct Placed {
    SimTime start, end;
    NodeCount occ;
  };
  std::vector<Placed> placed;
  const NodeCount total = machine->total_nodes();
  for (int i = 0; i < 30; ++i) {
    Job j = random_job(i, rng);
    if (!machine->fits(j)) continue;
    const SimTime start = plan->find_start(j, 0);
    plan->commit(j, start);
    placed.push_back({start, start + j.walltime, machine->occupancy(j)});
  }
  // Check capacity at every placement boundary.
  for (const auto& at : placed) {
    NodeCount used = 0;
    for (const auto& p : placed) {
      if (p.start <= at.start && at.start < p.end) used += p.occ;
    }
    EXPECT_LE(used, total);
  }
}

TEST_P(PlanPropertyTest, FitsAtAgreesWithFindStart) {
  // fits_at is the fast-path admission test; it must match
  // find_start(job, t) == t exactly, including around commitments.
  auto machine = make_machine(GetParam());
  Rng rng(31);
  for (int i = 0; i < 4; ++i) {
    const Job j = random_job(i, rng);
    (void)machine->start(j, 0);
  }
  auto plan = test_support::reference_plan(*machine, 0);
  // Mix in future commitments.
  for (int i = 10; i < 13; ++i) {
    Job j = random_job(i, rng);
    if (!machine->fits(j)) continue;
    plan->commit(j, plan->find_start(j, 0));
  }
  for (int i = 0; i < 300; ++i) {
    const Job probe = random_job(100 + i, rng);
    if (!machine->fits(probe)) continue;
    const SimTime t = rng.uniform_int(0, 5000);
    EXPECT_EQ(plan->fits_at(probe, t), plan->find_start(probe, t) == t)
        << "t=" << t << " nodes=" << probe.nodes << " wall=" << probe.walltime;
  }
}

TEST_P(PlanPropertyTest, SoftCommitReservesCapacity) {
  auto machine = make_machine(GetParam());
  auto plan = test_support::reference_plan(*machine, 0);
  // Soft-commit a full-machine job on [0, 1000): nothing else fits inside
  // that window, everything fits after.
  Job full;
  full.id = 0;
  full.submit = 0;
  full.nodes = machine->total_nodes();
  full.walltime = full.runtime = 1000;
  plan->commit_soft(full, 0);

  Job probe;
  probe.id = 1;
  probe.submit = 0;
  probe.nodes = 1;
  probe.walltime = probe.runtime = 100;
  EXPECT_FALSE(plan->fits_at(probe, 0));
  EXPECT_EQ(plan->find_start(probe, 0), 1000);
}

TEST_P(PlanPropertyTest, CanStartRefusalsAreMonotoneInOccupancy) {
  // Machine::can_start: once the machine refuses a job, it refuses every
  // job at least as wide, and further starts keep it refused — the machine
  // half of the backfill probe filter's premise (sched/backfill.hpp).
  auto machine = make_machine(GetParam());
  Rng rng(GetParam() == MachineKind::kFlat ? 71 : 73);
  const NodeCount total = machine->total_nodes();
  std::vector<Job> refused;
  for (JobId step = 0; step < 12; ++step) {
    Job j = random_job(step, rng);
    j.nodes = rng.uniform_int(1, total / 4);
    (void)machine->start(j, 0);
    for (JobId q = 0; q < 20; ++q) {
      const Job probe = random_job(1000 + q, rng);
      if (!machine->can_start(probe)) refused.push_back(probe);
    }
    for (const Job& r : refused) {
      Job wider = r;
      for (int d = 0; d < 3; ++d) {
        wider.nodes = rng.uniform_int(r.nodes, total);
        EXPECT_FALSE(machine->can_start(wider))
            << "step " << step << ": refused " << r.nodes << " nodes, admitted "
            << wider.nodes;
      }
    }
  }
  EXPECT_GE(refused.size(), 100u);
}

TEST_P(PlanPropertyTest, StartFinishRoundTripRestoresIdle) {
  auto machine = make_machine(GetParam());
  Rng rng(23);
  std::vector<JobId> started;
  for (int i = 0; i < 20; ++i) {
    const Job j = random_job(i, rng);
    if (machine->start(j, 0)) started.push_back(j.id);
  }
  for (const JobId id : started) machine->finish(id, 100);
  EXPECT_EQ(machine->busy_nodes(), 0);
  EXPECT_EQ(machine->idle_nodes(), machine->total_nodes());
}

INSTANTIATE_TEST_SUITE_P(Machines, PlanPropertyTest,
                         ::testing::Values(MachineKind::kFlat,
                                           MachineKind::kPartition),
                         [](const auto& param) {
                           return param.param == MachineKind::kFlat ? "Flat"
                                                                    : "Partition";
                         });

enum class PlanSource { kReference, kCalendar };

class PlanContractTest
    : public ::testing::TestWithParam<std::tuple<MachineKind, PlanSource>> {};

TEST_P(PlanContractTest, CommitsNeverMoveFindStartEarlierAndAnswersHoldBackToTheFloor) {
  // Plan::find_start's two properties, after every commit of random commit
  // sequences (hard and soft) over a random running set:
  //   (a) a commit never makes find_start(job, e) earlier;
  //   (b) find_start(job, e') == find_start(job, e) for every e' in
  //       [e, find_start(job, e)] (sampled: both ends, the midpoint, the
  //       point just before the answer and a random point).
  // On the calendars, the checks before the first commit scan the bare
  // base; later ones scan the base and the overlay together.
  const auto [kind, source] = GetParam();
  Rng rng(kind == MachineKind::kFlat ? 41 : 43);
  for (int trial = 0; trial < 8; ++trial) {
    auto machine = make_machine(kind);
    for (JobId r = 0; r < 5; ++r) (void)machine->start(random_job(500 + r, rng), 0);
    const SimTime now = rng.uniform_int(0, 300);
    const auto sourced =
        test_support::plan_under_test(*machine, now, source == PlanSource::kReference);
    Plan* const plan = sourced.plan.get();

    std::vector<Job> probes;
    for (JobId q = 0; q < 6; ++q) probes.push_back(random_job(900 + q, rng));
    const std::vector<SimTime> floors = {now, now + 500, now + 4000};
    std::vector<SimTime> last(probes.size() * floors.size(), now);

    for (int step = 0; step <= 12; ++step) {
      if (step > 0) {
        const Job j = random_job(step, rng);
        const SimTime start = plan->find_start(j, now + rng.uniform_int(0, 3000));
        if (step % 3 == 0) plan->commit_soft(j, start);
        else plan->commit(j, start);
      }
      for (std::size_t p = 0; p < probes.size(); ++p) {
        for (std::size_t f = 0; f < floors.size(); ++f) {
          const Job& probe = probes[p];
          const SimTime e = floors[f];
          const SimTime s = plan->find_start(probe, e);
          ASSERT_GE(s, e);
          EXPECT_GE(s, last[p * floors.size() + f])
              << "(a) trial " << trial << " step " << step << " probe " << p;
          last[p * floors.size() + f] = s;
          const std::vector<SimTime> inside = {e, e + (s - e) / 2, std::max(e, s - 1), s,
                                               rng.uniform_int(e, s)};
          for (const SimTime e2 : inside) {
            EXPECT_EQ(plan->find_start(probe, e2), s)
                << "(b) trial " << trial << " step " << step << " probe " << p
                << " e=" << e << " e'=" << e2;
          }
        }
      }
    }
  }
}

TEST_P(PlanContractTest, AnswersDependOnlyOnTheMultisetOfHardCommits) {
  // Property (c): commit one random set of jobs, each at find_start from
  // its own floor, in two orders on two copies of one plan. When every job
  // gets the same start and last_placement() in both orders, the two plans
  // hold the same hard commitments and must answer every find_start and
  // fits_at probe identically.
  const auto [kind, source] = GetParam();
  Rng rng(kind == MachineKind::kFlat ? 51 : 53);
  const NodeCount total = make_machine(kind)->total_nodes();
  int compared = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    auto machine = make_machine(kind);
    for (JobId r = 0; r < 4; ++r) (void)machine->start(random_job(500 + r, rng), 0);
    const SimTime now = rng.uniform_int(0, 300);
    const auto sourced =
        test_support::plan_under_test(*machine, now, source == PlanSource::kReference);
    Plan* const first = sourced.plan.get();
    const std::unique_ptr<Plan> second = first->clone();

    struct Commit {
      Job job;
      SimTime floor;
    };
    std::vector<Commit> commits;
    const auto count = rng.uniform_int(2, 6);
    for (JobId i = 0; i < count; ++i) {
      Job j = random_job(i, rng);
      j.nodes = rng.uniform_int(1, total / 4);
      commits.push_back({j, now + rng.uniform_int(0, 4000)});
    }
    std::vector<std::size_t> order(commits.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = order.size() - 1 - i;
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[static_cast<std::size_t>(
                                  rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
    }

    // (start, placement) of every job, committed in index order on `first`
    // and in `order` on `second`.
    std::vector<std::pair<SimTime, int>> in_first(commits.size());
    std::vector<std::pair<SimTime, int>> in_second(commits.size());
    for (std::size_t i = 0; i < commits.size(); ++i) {
      const SimTime start = first->find_start(commits[i].job, commits[i].floor);
      first->commit(commits[i].job, start);
      in_first[i] = {start, first->last_placement()};
    }
    for (const std::size_t i : order) {
      const SimTime start = second->find_start(commits[i].job, commits[i].floor);
      second->commit(commits[i].job, start);
      in_second[i] = {start, second->last_placement()};
    }
    if (in_first != in_second) continue;
    ++compared;

    for (JobId q = 0; q < 8; ++q) {
      const Job probe = random_job(900 + q, rng);
      for (const SimTime e : {now, now + rng.uniform_int(0, 3000), now + 6000}) {
        const SimTime s = first->find_start(probe, e);
        EXPECT_EQ(second->find_start(probe, e), s)
            << "trial " << trial << " probe " << q << " e=" << e;
        for (const SimTime t : {e, std::max(e, s - 1), s, s + rng.uniform_int(1, 2000)}) {
          EXPECT_EQ(second->fits_at(probe, t), first->fits_at(probe, t))
              << "trial " << trial << " probe " << q << " t=" << t;
        }
      }
    }
  }
  // Orders often move a job to another partition, but enough sets must
  // agree for the check to mean something (160 of 200 flat, 44 partition).
  EXPECT_GE(compared, trials / 10) << "only " << compared << " sets agreed";
}

TEST_P(PlanContractTest, RefusalsExtendToDominatingJobsAcrossCommits) {
  // Property (d) together with (a): once fits_at(j, t) is false, fits_at
  // stays false at t for every job at least as wide (occupancy) and at
  // least as long (walltime), after any further hard and soft commits —
  // the plan half of the backfill probe filter's premise.
  const auto [kind, source] = GetParam();
  Rng rng(kind == MachineKind::kFlat ? 61 : 63);
  const NodeCount total = make_machine(kind)->total_nodes();
  std::size_t refusals = 0;
  for (int trial = 0; trial < 8; ++trial) {
    auto machine = make_machine(kind);
    for (JobId r = 0; r < 5; ++r) (void)machine->start(random_job(500 + r, rng), 0);
    const SimTime now = rng.uniform_int(0, 300);
    const auto sourced =
        test_support::plan_under_test(*machine, now, source == PlanSource::kReference);
    Plan* const plan = sourced.plan.get();

    struct Refused {
      Job job;
      SimTime t;
    };
    std::vector<Refused> refused;
    for (int step = 0; step <= 10; ++step) {
      if (step > 0) {
        Job j = random_job(step, rng);
        j.nodes = rng.uniform_int(1, total / 2);
        const SimTime start = plan->find_start(j, now + rng.uniform_int(0, 3000));
        if (step % 3 == 0) plan->commit_soft(j, start);
        else plan->commit(j, start);
      }
      for (JobId q = 0; q < 10; ++q) {
        const Job probe = random_job(900 + q, rng);
        const SimTime t = q % 2 == 0 ? now : now + rng.uniform_int(0, 4000);
        if (!plan->fits_at(probe, t)) refused.push_back({probe, t});
      }
      for (const Refused& r : refused) {
        Job dominating = r.job;
        for (int d = 0; d < 3; ++d) {
          dominating.nodes = rng.uniform_int(r.job.nodes, total);
          dominating.walltime = r.job.walltime + rng.uniform_int(0, 3600);
          EXPECT_FALSE(plan->fits_at(dominating, r.t))
              << "trial " << trial << " step " << step << " t=" << r.t << ": refused ("
              << r.job.nodes << ", " << r.job.walltime << "), admitted ("
              << dominating.nodes << ", " << dominating.walltime << ")";
        }
      }
    }
    refusals += refused.size();
  }
  EXPECT_GE(refusals, 100u);
}

TEST_P(PlanContractTest, UndoRestoresEveryAnswerAndTheNextPlacement) {
  // undo_last_commit: random hard commits, interleaved with probes, undone
  // in LIFO order. After each undo the plan must answer every find_start
  // and fits_at probe exactly as a clone taken before that commit does,
  // and the next commit must pick the same start and last_placement().
  // Probes sit at the committed spans' ends, where a commit leaves its
  // breakpoints. Odd trials first add a soft and a hard commit that stay.
  const auto [kind, source] = GetParam();
  Rng rng(kind == MachineKind::kFlat ? 91 : 93);
  const NodeCount total = make_machine(kind)->total_nodes();
  int undone = 0;
  for (int trial = 0; trial < 24; ++trial) {
    auto machine = make_machine(kind);
    for (JobId r = 0; r < 4; ++r) (void)machine->start(random_job(500 + r, rng), 0);
    const SimTime now = rng.uniform_int(0, 300);
    const auto sourced =
        test_support::plan_under_test(*machine, now, source == PlanSource::kReference);
    Plan& plan = *sourced.plan;
    const auto random_commit_job = [&](JobId id) {
      Job j = random_job(id, rng);
      j.nodes = rng.uniform_int(1, total / 2);
      return j;
    };

    std::vector<Job> probes;
    for (JobId q = 0; q < 8; ++q) probes.push_back(random_job(900 + q, rng));
    std::vector<SimTime> times = {now, now + 1000, now + 5000};
    if (trial % 2 == 1) {
      const Job soft = random_commit_job(50);
      plan.commit_soft(soft, plan.find_start(soft, now + rng.uniform_int(0, 2000)));
      const Job hard = random_commit_job(51);
      plan.commit(hard, plan.find_start(hard, now + rng.uniform_int(0, 2000)));
    }

    // before[i]: a clone of the plan taken just before commit i.
    std::vector<std::unique_ptr<Plan>> before;
    const auto commits = rng.uniform_int(1, 6);
    for (JobId i = 0; i < commits; ++i) {
      const Job j = random_commit_job(i);
      const SimTime start = plan.find_start(j, now + rng.uniform_int(0, 3000));
      before.push_back(plan.clone());
      plan.commit(j, start);
      times.push_back(start);
      times.push_back(start + j.walltime);
      for (const Job& probe : probes) {
        (void)plan.find_start(probe, now);
        (void)plan.fits_at(probe, start);
      }
    }
    const Job next = random_commit_job(99);
    while (!before.empty()) {
      plan.undo_last_commit();
      ++undone;
      const Plan& expected = *before.back();
      const auto depth = before.size() - 1;
      for (const Job& probe : probes) {
        for (const SimTime t : times) {
          EXPECT_EQ(plan.find_start(probe, t), expected.find_start(probe, t))
              << "trial " << trial << " depth " << depth << " probe " << probe.id
              << " e=" << t;
          EXPECT_EQ(plan.fits_at(probe, t), expected.fits_at(probe, t))
              << "trial " << trial << " depth " << depth << " probe " << probe.id
              << " t=" << t;
        }
      }
      const auto undone_copy = plan.clone();
      const auto expected_copy = expected.clone();
      const SimTime start = expected_copy->find_start(next, now);
      ASSERT_EQ(undone_copy->find_start(next, now), start)
          << "trial " << trial << " depth " << depth;
      undone_copy->commit(next, start);
      expected_copy->commit(next, start);
      EXPECT_EQ(undone_copy->last_placement(), expected_copy->last_placement())
          << "trial " << trial << " depth " << depth;
      before.pop_back();
    }
  }
  EXPECT_GE(undone, 60);
}

std::string contract_name(
    const ::testing::TestParamInfo<std::tuple<MachineKind, PlanSource>>& param) {
  const auto [kind, source] = param.param;
  return std::string(kind == MachineKind::kFlat ? "Flat" : "Partition") +
         (source == PlanSource::kReference ? "Plan" : "CalendarPlan");
}

INSTANTIATE_TEST_SUITE_P(
    Plans, PlanContractTest,
    ::testing::Combine(::testing::Values(MachineKind::kFlat, MachineKind::kPartition),
                       ::testing::Values(PlanSource::kReference, PlanSource::kCalendar)),
    contract_name);

}  // namespace
}  // namespace amjs
