#include "sched/conservative.hpp"

#include <gtest/gtest.h>

#include "platform/flat.hpp"
#include "sched/calendar/flat_calendar.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime, NodeCount nodes,
             Duration walltime = 0) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = walltime > 0 ? walltime : runtime;
  j.nodes = nodes;
  return j;
}

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

TEST(ConservativeTest, Name) {
  EXPECT_EQ(ConservativeBackfillScheduler().name(), "Conservative(FCFS)");
}

TEST(ConservativeTest, BehavesLikeEasyOnSimpleBackfill) {
  FlatMachine machine(100);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched);
  const auto result = sim.run(trace_of({
      make_job(0, 1000, 60),
      make_job(1, 1000, 60),  // reserved at 1000
      make_job(2, 900, 40),   // fits hole before the reservation
  }));
  EXPECT_EQ(result.schedule[1].start, 1000);
  EXPECT_EQ(result.schedule[2].start, 2);
}

TEST(ConservativeTest, ProtectsNonHeadReservations) {
  // The distinguishing case versus EASY: a backfill (D) that would not
  // delay the *head* reservation (B) but would delay the *second* queued
  // job (C) must be rejected by conservative backfilling.
  FlatMachine machine(100);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched);
  const auto result = sim.run(trace_of({
      make_job(0, 1000, 50),   // A: 50 nodes until 1000
      make_job(1, 100, 60),    // B: blocked (only 50 free); reserved [1000,1100)
      make_job(2, 100, 70),    // C: reserved [1100, 1200)
      make_job(3, 1500, 40),   // D: fits beside A and B the whole way, but
                               //    would squeeze C (70 + 40 > 100).
  }));
  EXPECT_EQ(result.schedule[1].start, 1000);
  EXPECT_EQ(result.schedule[2].start, 1100);
  EXPECT_EQ(result.schedule[3].start, 1200);
}

TEST(ConservativeTest, EasyWouldAcceptThatBackfill) {
  // Companion check: EASY (head-only protection) runs D immediately and
  // thereby delays C — documenting the semantic difference, not a bug.
  FlatMachine machine(100);
  EasyBackfillScheduler easy;
  Simulator sim(machine, easy);
  const auto result = sim.run(trace_of({
      make_job(0, 1000, 50),
      make_job(1, 100, 60),
      make_job(2, 100, 70),
      make_job(3, 1500, 40),
  }));
  EXPECT_EQ(result.schedule[3].start, 3);     // D backfilled at submit
  EXPECT_EQ(result.schedule[1].start, 1000);  // head unharmed
  EXPECT_GT(result.schedule[2].start, 1100);  // C pushed past its fair slot
}

TEST(ConservativeTest, EveryQueuedJobGetsReservation) {
  FlatMachine machine(100);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched);
  (void)sim.run(trace_of({
      make_job(0, hours(2), 100),
      make_job(1, 100, 50),
      make_job(2, 100, 50),
      make_job(3, 100, 50),
  }));
  // Inspect reservations from the *last* pass with a non-empty queue is
  // not observable post-run; instead verify the realized starts respect
  // FCFS spacing.
  // (Starts are checked in the property suite; here: completion.)
  SUCCEED();
}

TEST(ConservativeTest, StartsNeverRegressAcrossPasses) {
  // Reservation stability: re-run the same trace and check that realized
  // starts obey the first reservations (no job ends up later than the
  // initial promise when estimates are exact).
  FlatMachine machine(64);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched);
  const auto result = sim.run(trace_of({
      make_job(0, 500, 64),
      make_job(10, 500, 32),
      make_job(20, 500, 32),
      make_job(30, 500, 64),
  }));
  // With exact estimates, realized schedule == planned reservations:
  EXPECT_EQ(result.schedule[0].start, 0);
  EXPECT_EQ(result.schedule[1].start, 500);
  EXPECT_EQ(result.schedule[2].start, 500);
  EXPECT_EQ(result.schedule[3].start, 1000);
}

TEST(ConservativeTest, EarlyCompletionPullsWorkForward) {
  // Overestimated walltimes: when jobs end early, queued jobs start
  // earlier than reserved (reservations may improve, never worsen).
  FlatMachine machine(100);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched);
  const auto result = sim.run(trace_of({
      make_job(0, 300, 100, 1000),  // predicted until 1000, actually 300
      make_job(1, 100, 100, 200),
  }));
  EXPECT_EQ(result.schedule[1].start, 300);
}

/// Machine whose can_start/start veto one job a fixed number of times:
/// manufactures the plan/machine divergence (plan says "fits now", live
/// machine refuses) that real partition fragmentation produces rarely.
class VetoMachine final : public Machine {
 public:
  VetoMachine(NodeCount nodes, JobId veto, int refusals)
      : inner_(nodes), veto_(veto), refusals_left_(refusals) {}

  [[nodiscard]] NodeCount total_nodes() const override { return inner_.total_nodes(); }
  [[nodiscard]] NodeCount busy_nodes() const override { return inner_.busy_nodes(); }
  [[nodiscard]] bool fits(const Job& job) const override { return inner_.fits(job); }
  [[nodiscard]] NodeCount occupancy(const Job& job) const override {
    return inner_.occupancy(job);
  }
  [[nodiscard]] bool can_start(const Job& job) const override {
    if (job.id == veto_ && refusals_left_ > 0) {
      --refusals_left_;
      return false;
    }
    return inner_.can_start(job);
  }
  [[nodiscard]] bool start(const Job& job, SimTime now, int placement) override {
    if (job.id == veto_ && refusals_left_ > 0) return false;
    return inner_.start(job, now, placement);
  }
  void finish(JobId job, SimTime now) override { inner_.finish(job, now); }
  [[nodiscard]] std::vector<RunningAlloc> running() const override {
    return inner_.running();
  }
  [[nodiscard]] std::unique_ptr<MachineState> save_state() const override {
    return inner_.save_state();
  }
  void restore_state(const MachineState& state) override {
    inner_.restore_state(state);
  }
  void reset() override { inner_.reset(); }

  /// The pool behind the veto: plans come from its calendar.
  [[nodiscard]] const FlatMachine& inner() const { return inner_; }

 private:
  FlatMachine inner_;
  JobId veto_;
  /// Mutable: can_start is const but the veto budget must tick down, or
  /// the refused job would never start and the run would not terminate.
  mutable int refusals_left_;
};

TEST(ConservativeTest, MachineRefusalConvertsToReservationNotSilentDrop) {
  // Regression: when the plan admits a job at `now` but the live machine
  // refuses the start, conservative must fall back to a reservation at the
  // next instant (and keep the job in the pass) instead of asserting /
  // silently dropping it from reservations. Job 0 is vetoed twice — at the
  // t=0 pass and the t=10 pass — then starts normally at the t=20 pass.
  VetoMachine machine(100, /*veto=*/0, /*refusals=*/2);
  ConservativeBackfillScheduler sched;
  Simulator sim(machine, sched, {}, std::make_unique<FlatCalendar>(machine.inner()));
  const auto result = sim.run(trace_of({
      make_job(0, 100, 60),    // vetoed at t=0 and t=10
      make_job(0, 50, 10),     // starts immediately
      make_job(10, 50, 10),    // its submit triggers the second vetoed pass
      make_job(20, 50, 10),    // its submit triggers the pass that succeeds
  }));
  EXPECT_EQ(result.schedule[1].start, 0);
  EXPECT_EQ(result.schedule[0].start, 20);  // started once the veto expired
  // The small jobs were never blocked by the divergence handling.
  EXPECT_EQ(result.schedule[2].start, 10);
  EXPECT_EQ(result.schedule[3].start, 20);
}

}  // namespace
}  // namespace amjs
