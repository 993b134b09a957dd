#include "sched/easy.hpp"

#include <memory>

#include "obs/trace.hpp"
#include "sched/backfill.hpp"
#include "util/fmt.hpp"

namespace amjs {

EasyBackfillScheduler::EasyBackfillScheduler(QueueOrder order) : order_(order) {}

std::string EasyBackfillScheduler::name() const {
  return amjs::format("EASY({})", to_string(order_));
}

void EasyBackfillScheduler::schedule(SchedContext& ctx) {
  last_reservation_ = kNever;
  last_reserved_job_ = kInvalidJob;

  // Phase 1: start jobs in priority order until one does not fit now.
  auto ids = sorted_queue(ctx, order_);
  std::size_t head = 0;
  while (head < ids.size()) {
    const Job& j = ctx.job(ids[head]);
    if (!ctx.machine().can_start(j)) break;
    const bool ok = ctx.start_job(ids[head]);
    (void)ok;  // can_start() was true; Machine guarantees start succeeds
    ++head;
  }
  if (head >= ids.size()) return;  // queue drained

  // Phase 2: reserve the blocked head at its earliest feasible start.
  const SimTime now = ctx.now();
  auto plan = ctx.plan();
  const Job& blocked = ctx.job(ids[head]);
  const SimTime reservation = plan->find_start(blocked, now);
  plan->commit(blocked, reservation);
  last_reservation_ = reservation;
  last_reserved_job_ = blocked.id;
  if (auto* tr = ctx.recorder()) {
    tr->record(obs::TraceCategory::kBackfill, "reservation", now,
               {obs::arg("job", blocked.id), obs::arg("start", reservation)});
  }

  // Phase 3: backfill the rest, in priority order, wherever the plan says
  // they can run *now* without disturbing the head reservation. The plan
  // chooses the placement and the live start is pinned to it, so the
  // reservation can never be physically violated.
  backfill(ctx, *plan, std::span(ids).subspan(head + 1));
}

}  // namespace amjs
