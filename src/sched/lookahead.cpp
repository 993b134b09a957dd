#include "sched/lookahead.hpp"

#include <algorithm>
#include <cassert>
#include <vector>

#include "sched/backfill.hpp"
#include "util/fmt.hpp"

namespace amjs {

LookaheadBackfillScheduler::LookaheadBackfillScheduler(LookaheadConfig config)
    : config_(config) {
  assert(config_.capacity_buckets > 0);
  assert(config_.max_candidates > 0);
}

std::string LookaheadBackfillScheduler::name() const {
  return format("Lookahead({})", to_string(config_.order));
}

void LookaheadBackfillScheduler::schedule(SchedContext& ctx) {
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

  // Phase 2: protect the head reservation.
  auto plan = ctx.plan();
  const Job& blocked = ctx.job(ids[head]);
  plan->commit(blocked, plan->find_start(blocked, now));

  // Phase 3: collect backfill-eligible candidates — jobs that could start
  // now without disturbing the reservation (checked individually; joint
  // feasibility is enforced by the knapsack capacity + re-check below).
  struct Candidate {
    JobId id;
    NodeCount occupancy;
    std::size_t rank;  // position in priority order (lower = higher prio)
  };
  std::vector<Candidate> candidates;
  ProbeFilter filter(ctx.machine(), *plan, now);
  for (std::size_t i = head + 1;
       i < ids.size() && candidates.size() < config_.max_candidates; ++i) {
    const Job& j = ctx.job(ids[i]);
    if (!filter.admits(j)) continue;
    candidates.push_back({ids[i], ctx.machine().occupancy(j), i});
  }
  if (candidates.empty()) return;

  // Phase 4: 0/1 knapsack maximizing occupied nodes within the free
  // capacity. Weights are discretized onto `capacity_buckets`.
  const NodeCount free = ctx.machine().idle_nodes();
  const NodeCount unit = std::max<NodeCount>(
      1, ctx.machine().total_nodes() / config_.capacity_buckets);
  const auto cap = static_cast<std::size_t>(free / unit);
  // dp[c] = best value using capacity c; choice tracking for backtrace.
  std::vector<NodeCount> dp(cap + 1, 0);
  std::vector<std::vector<bool>> take(candidates.size(),
                                      std::vector<bool>(cap + 1, false));
  for (std::size_t k = 0; k < candidates.size(); ++k) {
    const auto weight =
        static_cast<std::size_t>((candidates[k].occupancy + unit - 1) / unit);
    if (weight > cap) continue;
    for (std::size_t c = cap; c >= weight; --c) {
      const NodeCount with = dp[c - weight] + candidates[k].occupancy;
      // Strict '>' keeps earlier (higher-priority) picks on value ties.
      if (with > dp[c]) {
        dp[c] = with;
        take[k][c] = true;
      }
      if (c == weight) break;  // size_t underflow guard
    }
  }

  // Backtrace the chosen set.
  std::vector<JobId> chosen;
  {
    std::size_t c = cap;
    for (std::size_t k = candidates.size(); k-- > 0;) {
      if (!take[k][c]) continue;
      chosen.push_back(candidates[k].id);
      c -= static_cast<std::size_t>((candidates[k].occupancy + unit - 1) / unit);
    }
    std::reverse(chosen.begin(), chosen.end());  // priority order
  }

  // Phase 5: start the chosen set, re-validating each against the plan
  // (discretization or partition shape can make a knapsack-feasible set
  // jointly infeasible; the re-check degrades gracefully to a subset).
  backfill(ctx, *plan, chosen);
}

}  // namespace amjs
