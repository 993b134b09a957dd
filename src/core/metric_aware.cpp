#include "core/metric_aware.hpp"

#include <algorithm>
#include <cassert>

#include "obs/trace.hpp"
#include "sched/backfill.hpp"
#include "util/fmt.hpp"

namespace amjs {

std::string MetricAwarePolicy::label() const {
  // Match the paper's Table II row labels ("BF=0.5/W=4").
  const bool integral = balance_factor == static_cast<int>(balance_factor);
  return integral ? amjs::format("BF={}/W={}", static_cast<int>(balance_factor),
                                window_size)
                  : amjs::format("BF={}/W={}", balance_factor, window_size);
}

MetricAwareScheduler::MetricAwareScheduler(MetricAwareConfig config)
    : config_(std::move(config)), allocator_(config_.max_window) {
  assert(config_.policy.valid());
  allocator_.set_exhaustive(config_.exhaustive_window_search);
}

std::string MetricAwareScheduler::name() const {
  return amjs::format("MetricAware({}, {})", config_.policy.label(),
                     config_.backfill == BackfillMode::kEasy ? "EASY" : "conservative");
}

void MetricAwareScheduler::reset() { stats_ = MetricAwareStats{}; }

std::unique_ptr<SchedulerState> MetricAwareScheduler::save_state() const {
  auto state = std::make_unique<MetricAwareState>();
  state->policy = config_.policy;
  state->stats = stats_;
  return state;
}

void MetricAwareScheduler::restore_state(const SchedulerState& state) {
  const auto* saved = dynamic_cast<const MetricAwareState*>(&state);
  assert(saved != nullptr && "restore_state: not a MetricAwareScheduler state");
  config_.policy = saved->policy;
  stats_ = saved->stats;
}

void MetricAwareScheduler::set_policy(const MetricAwarePolicy& policy) {
  assert(policy.valid());
  config_.policy = policy;
}

void MetricAwareScheduler::rank_queue(const SchedContext& ctx) {
  queued_.clear();
  for (const JobId id : ctx.queue()) {
    const Job& j = ctx.job(id);
    queued_.push_back(QueuedJob{id, ctx.waited(id), j.walltime, j.submit});
  }
  ScoreParams params;
  params.balance_factor = config_.policy.balance_factor;
  params.literal_eq1 = config_.literal_eq1;
  rank_jobs(queued_, params, scored_);
  ranked_.clear();
  for (const ScoredJob& s : scored_) ranked_.push_back(s.id);
}

int MetricAwareScheduler::window_size() const {
  return std::min(config_.policy.window_size, allocator_.max_window());
}

void MetricAwareScheduler::fill_window(const SchedContext& ctx, std::size_t begin,
                                       std::size_t end) {
  window_.clear();
  for (std::size_t i = begin; i < end; ++i) window_.push_back(&ctx.job(ranked_[i]));
}

std::size_t MetricAwareScheduler::apply_window(SchedContext& ctx, Plan& plan,
                                               bool pin_all_reservations) {
  const SimTime now = ctx.now();
  // A one-job window has one permutation, and phases A and B below place
  // its job before phase C would read a decision, so it skips the search
  // (and its plan clone) and counts that permutation here.
  WindowDecision decision;
  if (window_.size() > 1) {
    decision = allocator_.decide(plan, window_, now);
    stats_.permutations_tried += decision.permutations_tried;
  } else {
    stats_.permutations_tried += window_.size();
  }

  // Realize the decision with EASY's protection structure (the window
  // variant of phases 1-3, see sched/easy.cpp):
  //
  //   A. In PRIORITY order, start window jobs until the first one that
  //      cannot start — exactly classical phase 1, so higher-priority
  //      jobs are never gated by lower-priority plans.
  //   B. Pin that first blocked job's reservation at its earliest
  //      feasible time, computed against running jobs and phase-A starts
  //      only. Lower-priority window work can never delay it; without
  //      this, full-machine jobs starve for days (long-walltime window
  //      peers keep landing inside their partitions).
  //   C. Walk the remaining placements in the DECISION's permutation
  //      order: start those that still fit *now* without disturbing the
  //      reservation; the rest become reservations too — capacity
  //      shadows under EASY, hard commitments under conservative
  //      (`pin_all_reservations`).
  std::size_t started = 0;
  handled_.clear();
  auto mark_handled = [this](JobId id) { handled_.push_back(id); };
  auto is_handled = [this](JobId id) {
    return std::find(handled_.begin(), handled_.end(), id) != handled_.end();
  };

  // Phase A.
  JobId pin_job = kInvalidJob;
  for (const Job* j : window_) {
    if (!plan.fits_at(*j, now)) {
      pin_job = j->id;
      break;
    }
    plan.commit(*j, now);
    mark_handled(j->id);
    const bool ok = ctx.start_job(j->id, plan.last_placement());
    assert(ok && "plan admitted a window start the machine refused");
    if (ok) {
      ++started;
      ++stats_.jobs_started;
    }
  }

  // Phase B.
  if (pin_job != kInvalidJob) {
    const Job& j = ctx.job(pin_job);
    const SimTime slot = plan.find_start(j, now);
    plan.commit(j, slot);
    mark_handled(pin_job);
    if (auto* tr = ctx.recorder()) {
      tr->record(obs::TraceCategory::kBackfill, "reservation", now,
                 {obs::arg("job", pin_job), obs::arg("start", slot)});
    }
  }

  // Phase C.
  for (const auto& placement : decision.placements) {
    if (is_handled(placement.id)) continue;
    const Job& j = ctx.job(placement.id);
    if (plan.fits_at(j, now)) {
      plan.commit(j, now);
      const bool ok = ctx.start_job(placement.id, plan.last_placement());
      assert(ok && "plan admitted a window start the machine refused");
      if (ok) {
        ++started;
        ++stats_.jobs_started;
        continue;
      }
    }
    // Step 5: every window job that cannot run now is reserved at its
    // earliest time. Under conservative semantics the reservation pins a
    // partition; under EASY it is a capacity shadow (a specific partition
    // cannot be promised hours ahead — see DESIGN.md D5) that backfill
    // plans around until the next pass re-derives it.
    const SimTime slot = plan.find_start(j, std::max(placement.start, now));
    if (pin_all_reservations) plan.commit(j, slot);
    else plan.commit_soft(j, slot);
  }
  return started;
}

void MetricAwareScheduler::schedule(SchedContext& ctx) {
  ++stats_.schedule_calls;
  if (ctx.queue().empty()) return;

  rank_queue(ctx);
  if (config_.backfill == BackfillMode::kEasy) {
    schedule_easy(ctx);
  } else {
    schedule_conservative(ctx);
  }
}

void MetricAwareScheduler::schedule_easy(SchedContext& ctx) {
  auto plan = ctx.plan();

  // Step 5 on the first window only: its placements (including future
  // reservations) are the protected set.
  const auto window_len =
      std::min<std::size_t>(ranked_.size(), static_cast<std::size_t>(window_size()));
  fill_window(ctx, 0, window_len);
  apply_window(ctx, *plan, /*pin_all_reservations=*/false);

  // Step 6: EASY-style backfill of the remaining queue in priority order —
  // start only where the plan (which carries the window's reservations)
  // has room right now.
  const std::size_t backfilled =
      backfill(ctx, *plan, std::span(ranked_).subspan(window_len));
  stats_.jobs_started += backfilled;
  stats_.jobs_backfilled += backfilled;
}

void MetricAwareScheduler::schedule_conservative(SchedContext& ctx) {
  auto plan = ctx.plan();

  // Step 5 window-by-window over the whole queue; every placement is
  // committed, so no reservation can be delayed (conservative semantics).
  const auto w = static_cast<std::size_t>(window_size());
  for (std::size_t begin = 0; begin < ranked_.size(); begin += w) {
    fill_window(ctx, begin, std::min(begin + w, ranked_.size()));
    apply_window(ctx, *plan, /*pin_all_reservations=*/true);
  }
}

}  // namespace amjs
