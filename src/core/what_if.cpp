#include "core/what_if.hpp"

#include <cassert>

#include "obs/trace.hpp"
#include "sim/snapshot.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace amjs {

WhatIfTuner::WhatIfTuner(WhatIfConfig config)
    : config_(std::move(config)),
      inner_(config_.base),
      backend_(config_.backend != nullptr
                   ? config_.backend
                   : std::make_shared<LocalTwinBackend>(config_.machine_factory,
                                                        config_.twin)) {
  assert(config_.backend != nullptr || config_.machine_factory != nullptr);
  assert(!config_.bf_candidates.empty());
  assert(!config_.w_candidates.empty());
  assert(config_.evaluate_every >= 1);
}

void WhatIfTuner::schedule(SchedContext& ctx) { inner_.schedule(ctx); }

std::string WhatIfTuner::name() const {
  if (!config_.label.empty()) return config_.label;
  return amjs::format("WhatIf[{}x{}]", config_.bf_candidates.size(),
                      config_.w_candidates.size());
}

void WhatIfTuner::reset() {
  inner_.reset();
  inner_.set_policy(config_.base.policy);
  stats_ = WhatIfStats{};
  bf_history_ = SampledSeries{};
  w_history_ = SampledSeries{};
  checks_seen_ = 0;
}

std::vector<TwinCandidateSpec> WhatIfTuner::make_candidates() const {
  std::vector<TwinCandidateSpec> candidates;
  candidates.reserve(config_.bf_candidates.size() * config_.w_candidates.size());
  for (const double bf : config_.bf_candidates) {
    for (const int w : config_.w_candidates) {
      MetricAwareConfig fork_config = config_.base;
      fork_config.policy = MetricAwarePolicy{bf, w};
      assert(fork_config.policy.valid());
      candidates.push_back(
          TwinCandidateSpec{fork_config.policy.label(), fork_config});
    }
  }
  return candidates;
}

void WhatIfTuner::on_metric_check(SchedContext& ctx, double queue_depth_minutes) {
  ++checks_seen_;
  const bool due =
      (checks_seen_ - 1) % static_cast<std::size_t>(config_.evaluate_every) == 0 &&
      !ctx.queue().empty() &&
      queue_depth_minutes >= config_.min_queue_depth_minutes;
  if (due) {
    // The snapshot's scheduler state is mid-callback (checks_seen_ already
    // counted) — forks discard it (ResumeScheduler::kFresh), so that is
    // harmless; only snapshots taken outside the scheduler's callbacks
    // (SimConfig::snapshot_sink, SimConfig::on_instant_end) support kRestore.
    const SimSnapshot snapshot = ctx.capture();
    const auto candidates = make_candidates();
    obs::TraceSink* tr = ctx.recorder();
    const double consult_start_ms = tr != nullptr ? tr->now_wall_ms() : 0.0;
    if (tr != nullptr) {
      tr->record(obs::TraceCategory::kTwin, "consult", ctx.now(),
                 {obs::arg("candidates", candidates.size()),
                  obs::arg("queue_depth_min", queue_depth_minutes)});
    }
    auto evaluated = backend_->evaluate(ctx.trace(), snapshot, candidates, tr);
    if (!evaluated.ok()) {
      // A failed consultation (no backend should produce one — the remote
      // engine degrades to in-process instead) keeps the current policy;
      // the run stays valid, just untuned for this interval.
      log::warn("what-if: twin consultation failed, keeping {}: {}",
                inner_.policy().label(), evaluated.error().to_string());
      bf_history_.add(ctx.now(), inner_.policy().balance_factor);
      w_history_.add(ctx.now(), inner_.policy().window_size);
      return;
    }
    const std::vector<TwinForkResult>& results = evaluated.value();
    const std::size_t best = TwinEngine::best_index(results);

    const MetricAwarePolicy chosen{
        config_.bf_candidates[best / config_.w_candidates.size()],
        config_.w_candidates[best % config_.w_candidates.size()]};
    const bool adopted =
        chosen.balance_factor != inner_.policy().balance_factor ||
        chosen.window_size != inner_.policy().window_size;
    if (adopted) {
      ++stats_.adoptions;
      inner_.set_policy(chosen);
    }

    ++stats_.evaluations;
    stats_.forks += results.size();
    for (const auto& fork : results) stats_.twin_wall_ms += fork.wall_ms;
    if (tr != nullptr) {
      // Fork outcomes (deterministic args only; per-fork wall cost lives
      // in the registry's twin.fork_replay timer).
      for (const auto& fork : results) {
        tr->record(obs::TraceCategory::kTwin, "fork", ctx.now(),
                   {obs::arg("candidate", fork.label),
                    obs::arg("objective", fork.objective),
                    obs::arg("jobs_started", fork.jobs_started)});
      }
      tr->record_span(obs::TraceCategory::kTwin, "verdict", ctx.now(),
                      consult_start_ms, tr->now_wall_ms() - consult_start_ms,
                      {obs::arg("chosen", chosen.label()),
                       obs::arg("adopted", adopted ? 1 : 0),
                       obs::arg("objective", results[best].objective)});
    }
  }
  bf_history_.add(ctx.now(), inner_.policy().balance_factor);
  w_history_.add(ctx.now(), inner_.policy().window_size);
}

std::unique_ptr<SchedulerState> WhatIfTuner::save_state() const {
  auto state = std::make_unique<WhatIfState>();
  state->inner = inner_.save_state();
  state->stats = stats_;
  state->bf_history = bf_history_;
  state->w_history = w_history_;
  state->checks_seen = checks_seen_;
  return state;
}

void WhatIfTuner::restore_state(const SchedulerState& state) {
  const auto* saved = dynamic_cast<const WhatIfState*>(&state);
  assert(saved != nullptr && "restore_state: not a WhatIfTuner state");
  inner_.restore_state(*saved->inner);
  stats_ = saved->stats;
  bf_history_ = saved->bf_history;
  w_history_ = saved->w_history;
  checks_seen_ = saved->checks_seen;
}

}  // namespace amjs
