#include "sched/backfill.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace amjs {

ProbeFilter::~ProbeFilter() {
  if (!obs::Registry::enabled()) return;
  static obs::Counter& probes = obs::Registry::global().counter("sched.backfill_probes");
  static obs::Counter& dominated =
      obs::Registry::global().counter("sched.backfill_dominated");
  probes.add(probes_);
  dominated.add(dominated_);
}

bool ProbeFilter::admits(const Job& job) {
  const NodeCount occ = machine_->occupancy(job);
  const bool dominated =
      occ >= machine_refused_ ||
      std::any_of(plan_refused_.begin(), plan_refused_.end(), [&](const Refusal& r) {
        return occ >= r.occupancy && job.walltime >= r.walltime;
      });
  if (dominated) {
    ++dominated_;
    return false;
  }
  ++probes_;
  if (!machine_->can_start(job)) {
    machine_refused_ = occ;  // not dominated, so below the previous minimum
    return false;
  }
  if (!plan_->fits_at(job, now_)) {
    std::erase_if(plan_refused_, [&](const Refusal& r) {
      return r.occupancy >= occ && r.walltime >= job.walltime;
    });
    plan_refused_.push_back({occ, job.walltime});
    return false;
  }
  return true;
}

std::size_t backfill(SchedContext& ctx, Plan& plan, std::span<const JobId> candidates) {
  const SimTime now = ctx.now();
  ProbeFilter filter(ctx.machine(), plan, now);
  std::size_t started = 0;
  for (const JobId id : candidates) {
    const Job& j = ctx.job(id);
    if (!filter.admits(j)) continue;
    plan.commit(j, now);
    const bool ok = ctx.start_job(id, plan.last_placement());
    assert(ok && "plan admitted a backfill the machine refused");
    if (!ok) continue;
    ++started;
    if (auto* tr = ctx.recorder()) {
      tr->record(obs::TraceCategory::kBackfill, "backfill", now, {obs::arg("job", id)});
    }
  }
  return started;
}

}  // namespace amjs
