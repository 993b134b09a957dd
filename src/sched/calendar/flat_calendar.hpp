// Incremental calendar over a FlatMachine: a persistent free-capacity step
// profile updated by job start/end deltas instead of rebuilt from the
// running set every pass.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "sched/calendar/calendar.hpp"

namespace amjs {

class FlatMachine;
class FlatCalendarPlan;

class FlatCalendar final : public PlanProvider {
 public:
  explicit FlatCalendar(const FlatMachine& machine);

  [[nodiscard]] std::unique_ptr<Plan> plan(SimTime now) override;
  void on_job_start(const Job& job, SimTime now) override;
  void on_job_finish(JobId job, SimTime now) override;
  void resync() override;

  /// One breakpoint of the free-capacity step function (value holds until
  /// the next breakpoint; the last segment extends forever).
  struct Step {
    SimTime time;
    NodeCount free;
  };

 private:
  friend class FlatCalendarPlan;

  struct Delta {
    enum class Kind : std::uint8_t { kStart, kFinish } kind;
    JobId job;
    SimTime at;
    // kStart only: the capacity hold being added.
    SimTime end = 0;
    NodeCount nodes = 0;
  };

  void apply_pending();
  void trim(SimTime now);
  void rebuild(SimTime now);
  /// Add (negative `nodes`: release) capacity usage over [from, to).
  void occupy(SimTime from, SimTime to, NodeCount nodes);

  const FlatMachine* machine_;
  bool synced_ = false;
  std::vector<Step> steps_;
  /// Live holds mirrored from applied start deltas: job -> (end, nodes).
  std::map<JobId, std::pair<SimTime, NodeCount>> holds_;
  std::vector<Delta> pending_;
  /// Bumps on any structural change incl. trims (view invalidation).
  std::uint64_t gen_ = 0;
};

/// Plan view over a FlatCalendar: shared immutable base profile plus a
/// private overlay step function of this pass's commitments, with an undo
/// log. clone() copies the overlay and the log only.
class FlatCalendarPlan final : public Plan {
 public:
  FlatCalendarPlan(const FlatCalendar& base, SimTime now);

  [[nodiscard]] std::unique_ptr<Plan> clone() const override;
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override;
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override;
  void commit(const Job& job, SimTime start) override;
  void undo_last_commit() override;

 private:
  /// One commit: its span and nodes, and which of its two breakpoints it
  /// inserted into the overlay (the others were there already).
  struct Commit {
    SimTime start;
    SimTime end;
    NodeCount nodes;
    bool inserted_start;
    bool inserted_end;
  };

  /// Add `nodes` (negative: remove) to the overlay on [from, to).
  void add_usage(SimTime from, SimTime to, NodeCount nodes);

  const FlatCalendar* base_;  // non-owning; outlives the view
  SimTime origin_;
  NodeCount total_;
  std::uint64_t base_gen_;  // staleness check (debug)
  /// Committed usage step function over [origin, inf); starts flat zero.
  std::vector<FlatCalendar::Step> overlay_;
  /// Commits in order; empty exactly when the overlay is flat zero.
  std::vector<Commit> log_;
};

}  // namespace amjs
