#include "sched/relaxed.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sched/backfill.hpp"
#include "util/fmt.hpp"

namespace amjs {

RelaxedBackfillScheduler::RelaxedBackfillScheduler(RelaxedConfig config)
    : config_(config) {
  assert(config_.slack_factor >= 0.0);
}

std::string RelaxedBackfillScheduler::name() const {
  return format("Relaxed({}, slack={:.2f})", to_string(config_.order),
                config_.slack_factor);
}

void RelaxedBackfillScheduler::schedule(SchedContext& ctx) {
  if (ctx.queue().empty()) return;
  const SimTime now = ctx.now();

  // Phase 1: start in priority order until blocked (as EASY).
  auto ids = sorted_queue(ctx, config_.order);
  std::size_t head = 0;
  while (head < ids.size()) {
    const Job& j = ctx.job(ids[head]);
    if (!ctx.machine().can_start(j)) break;
    (void)ctx.start_job(ids[head]);
    ++head;
  }
  if (head >= ids.size()) return;

  // Phase 2: the head's reservation — but committed at a RELAXED time:
  // its earliest start plus the tolerated slack. Backfill candidates only
  // have to clear the relaxed deadline, so more of them fit; the head can
  // end up starting anywhere in [earliest, earliest + slack].
  const Job& blocked = ctx.job(ids[head]);
  auto plan = ctx.plan();
  const SimTime earliest = plan->find_start(blocked, now);
  const auto slack = static_cast<Duration>(
      std::llround(config_.slack_factor * static_cast<double>(blocked.walltime)));
  const SimTime relaxed = plan->find_start(blocked, earliest + slack);
  plan->commit(blocked, relaxed);

  // Phase 3: backfill against the relaxed reservation.
  backfill(ctx, *plan, std::span(ids).subspan(head + 1));
}

}  // namespace amjs
