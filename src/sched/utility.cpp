#include "sched/utility.hpp"

#include <algorithm>
#include <map>
#include <cassert>
#include <cmath>

#include "sched/backfill.hpp"

namespace amjs {

UtilityScheduler::UtilityScheduler(UtilityFn utility, std::string name)
    : utility_(std::move(utility)), name_(std::move(name)) {
  assert(utility_);
}

UtilityScheduler UtilityScheduler::wfp3() {
  return UtilityScheduler(
      [](const Job& job, Duration wait) {
        const double ratio = static_cast<double>(wait) /
                             static_cast<double>(std::max<Duration>(job.walltime, 1));
        return ratio * ratio * ratio * static_cast<double>(job.nodes);
      },
      "Utility(WFP3)");
}

UtilityScheduler UtilityScheduler::unicef() {
  return UtilityScheduler(
      [](const Job& job, Duration wait) {
        const double denom =
            std::log2(static_cast<double>(std::max<NodeCount>(job.nodes, 2))) *
            static_cast<double>(std::max<Duration>(job.walltime, 1));
        return static_cast<double>(wait) / denom;
      },
      "Utility(UNICEF)");
}

UtilityScheduler UtilityScheduler::fcfs_utility() {
  return UtilityScheduler(
      [](const Job& /*job*/, Duration wait) { return static_cast<double>(wait); },
      "Utility(FCFS)");
}

void UtilityScheduler::schedule(SchedContext& ctx) {
  if (ctx.queue().empty()) return;
  const SimTime now = ctx.now();

  // Rank by utility (computed once per job), ties by (submit, id).
  std::vector<JobId> ids = ctx.queue();
  std::map<JobId, double> score;
  for (const JobId id : ids) score[id] = utility_(ctx.job(id), ctx.waited(id));
  std::stable_sort(ids.begin(), ids.end(), [&](JobId a, JobId b) {
    if (score[a] != score[b]) return score[a] > score[b];
    const Job& ja = ctx.job(a);
    const Job& jb = ctx.job(b);
    if (ja.submit != jb.submit) return ja.submit < jb.submit;
    return a < b;
  });

  // EASY service: start in rank order until blocked; reserve; backfill.
  std::size_t head = 0;
  while (head < ids.size()) {
    const Job& j = ctx.job(ids[head]);
    if (!ctx.machine().can_start(j)) break;
    (void)ctx.start_job(ids[head]);
    ++head;
  }
  if (head >= ids.size()) return;

  auto plan = ctx.plan();
  const Job& blocked = ctx.job(ids[head]);
  plan->commit(blocked, plan->find_start(blocked, now));

  backfill(ctx, *plan, std::span(ids).subspan(head + 1));
}

}  // namespace amjs
