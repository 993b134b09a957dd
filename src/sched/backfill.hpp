// EASY backfill's admission loop, shared by every backfilling policy
// (EASY, relaxed, utility, lookahead and the metric-aware step 6), with an
// exact filter that skips probes an earlier refusal in the same pass
// already answers.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "sim/simulator.hpp"

namespace amjs {

/// Admission probes of one backfill pass: "could this job start now?",
/// asked of the live machine (can_start) and then of the pass's plan
/// (fits_at). Commits only remove capacity within a pass, so a refusal
/// stands for the rest of it, and by Plan property (d) and can_start's
/// monotonicity (platform/machine.hpp) it extends to every job that needs
/// at least as much. The filter skips a job whose occupancy is no smaller
/// than one the machine refused, or whose occupancy and walltime are both
/// no smaller than one the plan refused; it never changes an answer.
///
/// Counts of probes asked and probes skipped are added to the obs
/// registry (sched.backfill_probes / sched.backfill_dominated) when the
/// filter is destroyed while the registry is on.
class ProbeFilter {
 public:
  ProbeFilter(const Machine& machine, const Plan& plan, SimTime now)
      : machine_(&machine), plan_(&plan), now_(now) {}
  ProbeFilter(const ProbeFilter&) = delete;
  ProbeFilter& operator=(const ProbeFilter&) = delete;
  ~ProbeFilter();

  /// machine.can_start(job) && plan.fits_at(job, now), answered from the
  /// refusals seen so far when they already decide it. Valid while the
  /// pass only starts jobs and commits to the plan.
  [[nodiscard]] bool admits(const Job& job);

 private:
  struct Refusal {
    NodeCount occupancy;
    Duration walltime;
  };

  const Machine* machine_;
  const Plan* plan_;
  SimTime now_;
  /// Least occupancy the machine refused in this pass.
  NodeCount machine_refused_ = std::numeric_limits<NodeCount>::max();
  /// Plan refusals, none dominating another (a Pareto front).
  std::vector<Refusal> plan_refused_;
  std::uint64_t probes_ = 0;
  std::uint64_t dominated_ = 0;
};

/// EASY backfill of `candidates`, in order: start every job the machine
/// can start now and `plan` fits now, committing it to `plan` at ctx.now()
/// first and pinning the live start to the plan's placement so no
/// reservation in `plan` is ever physically violated. Each start records a
/// "backfill" trace event. Returns the number of jobs started.
std::size_t backfill(SchedContext& ctx, Plan& plan, std::span<const JobId> candidates);

}  // namespace amjs
