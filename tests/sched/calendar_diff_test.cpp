// Randomized differential suite: the incremental calendars vs the
// from-scratch reference plans they replaced
// (tests/support/reference_plans.*).
//
// The conformance suite proves whole-run equivalence; this one attacks the
// query layer directly. Random event streams (starts, early finishes, time
// advances) are applied to a machine and mirrored into its calendar as
// deltas; at every step a calendar view and a from-scratch machine plan
// answer the same find_start / fits_at / commit sequences and must agree
// exactly — including the partition placement choice, which pins live
// allocations. Probe jobs keep stable shapes across steps, so each one
// asks the same question of a profile the deltas keep moving. Each
// step then stacks a random mix of hard and soft commits on both views and
// compares them at every overlay boundary, before and after undoing the
// trailing hard commits: the calendar's shortcuts (timeline indices
// recorded at commit, the capacity check skipped while no soft commit is
// present) live exactly there.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"
#include "sched/calendar/flat_calendar.hpp"
#include "sched/calendar/partition_calendar.hpp"
#include "support/reference_plans.hpp"
#include "util/rng.hpp"

namespace amjs {
namespace {

Job make_job(JobId id, NodeCount nodes, Duration walltime) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

PartitionConfig small_topology() {
  PartitionConfig topo;
  topo.leaf_nodes = 512;
  topo.row_leaves = 4;
  topo.rows = 2;  // 4096 nodes, tiers 512..4096
  return topo;
}

/// One running job in the driver's bookkeeping: when it *actually* ends
/// (runtime <= walltime, so early completions exercise finish deltas that
/// release holds before their predicted ends).
struct Live {
  JobId id;
  SimTime actual_end;
};

/// A random job size in [1, max_nodes], spread over the machine's scales
/// rather than clustered near its top.
NodeCount random_nodes(Rng& rng, NodeCount max_nodes) {
  const auto nodes = rng.uniform_int(1, max_nodes) >> rng.uniform_int(0, 4);
  return static_cast<NodeCount>(std::max<std::int64_t>(1, nodes));
}

/// Compares both views' find_start and fits_at for every probe at every
/// time in `times`; false (after one failed expectation) at the first
/// disagreement.
bool views_agree(const Plan& a, const Plan& b, const std::vector<Job>& probes,
                 const std::vector<SimTime>& times, int step, const char* when) {
  for (const Job& probe : probes) {
    for (const SimTime t : times) {
      const SimTime sa = a.find_start(probe, t);
      const SimTime sb = b.find_start(probe, t);
      const bool fa = a.fits_at(probe, t);
      const bool fb = b.fits_at(probe, t);
      if (sa != sb || fa != fb) {
        ADD_FAILURE() << "step " << step << " " << when << ": probe " << probe.id
                      << " (" << probe.nodes << " nodes, " << probe.walltime
                      << " s) at " << t << ": find_start " << sa << " vs " << sb
                      << ", fits_at " << fa << " vs " << fb;
        return false;
      }
    }
  }
  return true;
}

/// Drives `machine` + `cal` through a random event stream, comparing the
/// calendar view against a fresh machine plan at every step.
template <typename MachineT>
void run_differential(MachineT& machine, PlanProvider& cal, Rng& rng,
                      NodeCount max_nodes, bool compare_placement) {
  SimTime now = 0;
  std::vector<Live> running;
  JobId next_id = 1;

  // Stable probe shapes: reusing (id, nodes, walltime) across steps asks
  // each delta-moved profile the same questions.
  std::vector<Job> probes;
  for (JobId q = 0; q < 6; ++q) {
    probes.push_back(make_job(9000 + q,
                              static_cast<NodeCount>(rng.uniform_int(1, static_cast<int>(max_nodes))),
                              rng.uniform_int(60, 3000)));
  }

  for (int step = 0; step < 30; ++step) {
    now += rng.uniform_int(0, 400);

    // Deliver due completions (actual end <= now).
    for (std::size_t i = 0; i < running.size();) {
      if (running[i].actual_end <= now) {
        machine.finish(running[i].id, now);
        cal.on_job_finish(running[i].id, now);
        running[i] = running.back();
        running.pop_back();
      } else {
        ++i;
      }
    }

    // Start up to two random jobs.
    const int starts = static_cast<int>(rng.uniform_int(0, 2));
    for (int s = 0; s < starts; ++s) {
      const Duration walltime = rng.uniform_int(120, 2500);
      const Duration runtime =
          std::max<Duration>(1, walltime * rng.uniform_int(50, 100) / 100);
      Job j = make_job(next_id++,
                       static_cast<NodeCount>(rng.uniform_int(1, static_cast<int>(max_nodes))),
                       walltime);
      j.runtime = runtime;
      if (machine.start(j, now)) {
        cal.on_job_start(j, now);
        running.push_back({j.id, now + runtime});
      }
    }

    auto a = cal.plan(now);
    auto b = test_support::reference_plan(machine, now);

    for (const Job& probe : probes) {
      const SimTime earliest = now + rng.uniform_int(0, 500);
      EXPECT_EQ(a->find_start(probe, earliest), b->find_start(probe, earliest))
          << "step " << step << " probe " << probe.id;
      const SimTime t = now + rng.uniform_int(0, 2500);
      EXPECT_EQ(a->fits_at(probe, t), b->fits_at(probe, t))
          << "step " << step << " probe " << probe.id;
    }

    // Deep, mixed overlays: both views absorb the same 2-8 commitments,
    // each hard or soft, each where find_start puts it from a random floor.
    // After every commit they must agree at now, at every overlay start and
    // end, and at a random time; then again after each LIFO undo of the
    // trailing hard commits (soft commits are not undoable).
    std::vector<SimTime> times = {now};
    std::vector<bool> hard;
    const auto commits = rng.uniform_int(2, 8);
    for (std::int64_t c = 0; c < commits; ++c) {
      const Job job = make_job(next_id++, random_nodes(rng, max_nodes),
                               rng.uniform_int(60, 3000));
      const SimTime floor = now + rng.uniform_int(0, 2500);
      const SimTime start = a->find_start(job, floor);
      ASSERT_EQ(start, b->find_start(job, floor)) << "step " << step << " commit " << c;
      hard.push_back(rng.uniform_int(0, 1) == 1);
      if (hard.back()) {
        a->commit(job, start);
        b->commit(job, start);
        if (compare_placement) {
          EXPECT_EQ(a->last_placement(), b->last_placement())
              << "step " << step << " commit " << c;
        }
      } else {
        a->commit_soft(job, start);
        b->commit_soft(job, start);
      }
      times.push_back(start);
      times.push_back(start + job.walltime);
      times.push_back(now + rng.uniform_int(0, 5000));
      if (!views_agree(*a, *b, probes, times, step, "after a commit")) return;
      times.pop_back();
    }
    while (!hard.empty() && hard.back()) {
      a->undo_last_commit();
      b->undo_last_commit();
      hard.pop_back();
      times.resize(times.size() - 2);
      times.push_back(now + rng.uniform_int(0, 5000));
      if (!views_agree(*a, *b, probes, times, step, "after an undo")) return;
      times.pop_back();
    }
  }
}

TEST(CalendarDiffTest, FlatRandomDifferential) {
  for (int trial = 0; trial < 6; ++trial) {
    FlatMachine machine(256);
    FlatCalendar cal(machine);
    Rng rng(1000 + static_cast<std::uint64_t>(trial));
    run_differential(machine, cal, rng, 256, /*compare_placement=*/false);
  }
}

TEST(CalendarDiffTest, PartitionRandomDifferential) {
  for (int trial = 0; trial < 6; ++trial) {
    PartitionMachine machine(small_topology());
    PartitionCalendar cal(machine);
    Rng rng(2000 + static_cast<std::uint64_t>(trial));
    run_differential(machine, cal, rng, 4096, /*compare_placement=*/true);
  }
}

TEST(CalendarDiffTest, IntrepidRandomDifferential) {
  // The default machine: 80 leaves in 5 rows of 16, with cross-row tiers
  // (2 and 4 rows) and the full machine.
  for (int trial = 0; trial < 6; ++trial) {
    PartitionMachine machine;
    PartitionCalendar cal(machine);
    Rng rng(3000 + static_cast<std::uint64_t>(trial));
    run_differential(machine, cal, rng, machine.total_nodes(), /*compare_placement=*/true);
  }
}

TEST(CalendarDiffTest, FlatFinishDeltaMovesTheAnswer) {
  FlatMachine machine(100);
  FlatCalendar cal(machine);
  const Job blocker = make_job(1, 100, 500);
  ASSERT_TRUE(machine.start(blocker, 0));
  cal.on_job_start(blocker, 0);

  const Job probe = make_job(2, 100, 100);
  {
    auto p = cal.plan(0);
    EXPECT_EQ(p->find_start(probe, 0), 500);
    EXPECT_EQ(p->find_start(probe, 0), 500);  // a repeat answers the same
  }

  machine.finish(1, 200);  // early completion frees the machine at 200
  cal.on_job_finish(1, 200);
  auto p2 = cal.plan(200);
  EXPECT_EQ(p2->find_start(probe, 200), 200);
}

TEST(CalendarDiffTest, PartitionFinishDeltaMovesTheAnswer) {
  PartitionMachine machine(small_topology());
  PartitionCalendar cal(machine);
  const Job blocker = make_job(1, 4096, 500);
  ASSERT_TRUE(machine.start(blocker, 0));
  cal.on_job_start(blocker, 0);

  const Job probe = make_job(2, 4096, 100);
  {
    auto p = cal.plan(0);
    EXPECT_EQ(p->find_start(probe, 0), 500);
    EXPECT_EQ(p->find_start(probe, 0), 500);
  }

  machine.finish(1, 150);
  cal.on_job_finish(1, 150);
  auto p2 = cal.plan(150);
  EXPECT_EQ(p2->find_start(probe, 150), 150);
}

TEST(CalendarDiffTest, ResyncRebuildsFromLiveMachine) {
  FlatMachine machine(100);
  FlatCalendar cal(machine);
  const Job j = make_job(1, 60, 1000);
  ASSERT_TRUE(machine.start(j, 0));
  cal.on_job_start(j, 0);
  (void)cal.plan(0);

  // Wholesale machine change the calendar never saw deltas for.
  machine.reset();
  const Job k = make_job(2, 40, 300);
  ASSERT_TRUE(machine.start(k, 50));
  cal.resync();

  auto a = cal.plan(50);
  auto b = test_support::reference_plan(machine, 50);
  const Job probe = make_job(3, 80, 200);
  EXPECT_EQ(a->find_start(probe, 50), b->find_start(probe, 50));
  EXPECT_EQ(a->fits_at(probe, 50), b->fits_at(probe, 50));
}

/// A machine model with no calendar (a flat pool under another name).
class UncalendaredMachine final : public Machine {
 public:
  [[nodiscard]] NodeCount total_nodes() const override { return inner_.total_nodes(); }
  [[nodiscard]] NodeCount busy_nodes() const override { return inner_.busy_nodes(); }
  [[nodiscard]] bool fits(const Job& job) const override { return inner_.fits(job); }
  [[nodiscard]] NodeCount occupancy(const Job& job) const override { return job.nodes; }
  [[nodiscard]] bool can_start(const Job& job) const override { return inner_.can_start(job); }
  [[nodiscard]] bool start(const Job& job, SimTime now, int placement) override {
    return inner_.start(job, now, placement);
  }
  void finish(JobId job, SimTime now) override { inner_.finish(job, now); }
  [[nodiscard]] std::vector<RunningAlloc> running() const override { return inner_.running(); }
  [[nodiscard]] std::unique_ptr<MachineState> save_state() const override {
    return inner_.save_state();
  }
  void restore_state(const MachineState& state) override { inner_.restore_state(state); }
  void reset() override { inner_.reset(); }

 private:
  FlatMachine inner_{64};
};

TEST(CalendarDiffTest, FactorySelectsCalendarByModel) {
  FlatMachine flat(64);
  PartitionMachine part(small_topology());

  auto flat_cal = make_plan_provider(flat);
  EXPECT_NE(dynamic_cast<FlatCalendar*>(flat_cal.get()), nullptr);

  auto part_cal = make_plan_provider(part);
  EXPECT_NE(dynamic_cast<PartitionCalendar*>(part_cal.get()), nullptr);

  // No silent fallback: a model without a calendar has no plans.
  const UncalendaredMachine other;
  EXPECT_DEATH((void)make_plan_provider(other), "no calendar for machine model");
}

}  // namespace
}  // namespace amjs
