// MetricAwareScheduler — the paper's §III-B algorithm, steps 1-6.
//
//   1-4. Score and rank the queue by S_p (core/score.hpp).
//   5.   Take the first W jobs as the allocation window; permutation-search
//        the least-makespan placement (core/window_alloc.hpp). Jobs placed
//        at "now" start; later placements become reservations.
//   6.   Backfill the remaining queue against those reservations:
//        EASY mode        — only the first window's reservations are
//                           protected; the rest of the queue backfills
//                           greedily in priority order.
//        Conservative mode — the queue is processed window-by-window and
//                           *every* job gets a protected reservation.
//
// BF = 1 and W = 1 reduce exactly to FCFS + backfilling, the baseline of
// the paper's Table II.
#pragma once

#include <string>
#include <vector>

#include "core/score.hpp"
#include "core/window_alloc.hpp"
#include "sim/simulator.hpp"

namespace amjs {

/// The two tunables of a metric-aware policy.
struct MetricAwarePolicy {
  double balance_factor = 1.0;  // BF in [0, 1]
  int window_size = 1;          // W >= 1

  [[nodiscard]] bool valid() const {
    return balance_factor >= 0.0 && balance_factor <= 1.0 && window_size >= 1;
  }
  [[nodiscard]] std::string label() const;
};

enum class BackfillMode { kEasy, kConservative };

struct MetricAwareConfig {
  MetricAwarePolicy policy;
  BackfillMode backfill = BackfillMode::kEasy;

  /// Use eq. (1) as printed (ablation; see core/score.hpp erratum note).
  bool literal_eq1 = false;

  /// Disable the permutation search, keeping greedy priority-order window
  /// placement (ablation D1 in DESIGN.md).
  bool exhaustive_window_search = true;

  /// Hard cap on the permutation search (W! growth). A wider policy
  /// window is scheduled as if it were this wide.
  int max_window = 8;
};

/// Counters for the Table III overhead study and for tests.
struct MetricAwareStats {
  std::size_t schedule_calls = 0;
  std::size_t jobs_started = 0;
  std::size_t jobs_backfilled = 0;  // subset of jobs_started
  std::size_t permutations_tried = 0;
};

/// Run state of a MetricAwareScheduler (save_state/restore_state): the
/// live (possibly retuned) policy plus the overhead counters. Public so
/// the snapshot codec (src/snapshot_io) can serialize it.
struct MetricAwareState final : SchedulerState {
  MetricAwarePolicy policy;
  MetricAwareStats stats;
};

class MetricAwareScheduler : public Scheduler {
 public:
  explicit MetricAwareScheduler(MetricAwareConfig config = {});

  void schedule(SchedContext& ctx) override;
  [[nodiscard]] std::string name() const override;
  void reset() override;
  [[nodiscard]] std::unique_ptr<SchedulerState> save_state() const override;
  void restore_state(const SchedulerState& state) override;

  [[nodiscard]] const MetricAwarePolicy& policy() const { return config_.policy; }

  /// Live policy update — the adaptive tuner's hook. Takes effect on the
  /// next schedule() pass.
  void set_policy(const MetricAwarePolicy& policy);

  [[nodiscard]] const MetricAwareStats& stats() const { return stats_; }

 private:
  /// Rank the whole queue by balanced priority into ranked_ (steps 1-4).
  void rank_queue(const SchedContext& ctx);

  /// The policy's window, clamped to what the allocator searches: a wider
  /// window's extra slots would get no placement, so they are left to
  /// backfill (EASY) or to the next window (conservative) instead.
  [[nodiscard]] int window_size() const;

  void schedule_easy(SchedContext& ctx);
  void schedule_conservative(SchedContext& ctx);

  /// Fill window_ with the jobs of ranked_[begin, end).
  void fill_window(const SchedContext& ctx, std::size_t begin, std::size_t end);

  /// Apply one decision for window_: start now-placements, commit the rest
  /// as reservations into `plan` (hard for the highest-priority blocked
  /// job, capacity-soft for the rest unless `pin_all_reservations`).
  /// Returns jobs actually started.
  std::size_t apply_window(SchedContext& ctx, Plan& plan, bool pin_all_reservations);

  MetricAwareConfig config_;
  WindowAllocator allocator_;
  MetricAwareStats stats_;

  // A pass's working lists, kept between passes so each pass reuses their
  // storage. One thread drives a scheduler, so they need no lock.
  std::vector<QueuedJob> queued_;
  std::vector<ScoredJob> scored_;
  std::vector<JobId> ranked_;         // the queue in priority order
  std::vector<const Job*> window_;    // the window being applied
  std::vector<JobId> handled_;        // window jobs phases A and B placed
};

}  // namespace amjs
