// Balanced priority scoring — eqs. (1)-(3) of the paper (§III-B, steps 1-4).
//
// Each queued job gets a waiting-time score S_w and a requested-walltime
// score S_r, both mapped to [0, 100]; the balanced priority is
//
//     S_p = BF * S_w + (1 - BF) * S_r                               (eq. 3)
//
// BF = 1 orders the queue by job age (FCFS-like, "fairness"); BF = 0 orders
// it by shortness (SJF-like, "efficiency").
//
// Erratum (DESIGN.md D2): eq. (1) as printed reads
// S_w = 100 * wait_max / wait_i, which *decreases* with the job's own wait
// and is unbounded as wait_i -> 0 — contradicting both the [0,100] mapping
// and "BF closer to 1 means favoring fairness" (BF=1 must reduce to FCFS).
// The corrected form S_w = 100 * wait_i / wait_max is the default; the
// literal form is retained behind ScoreParams::literal_eq1 for the ablation
// bench.
#pragma once

#include <span>
#include <vector>

#include "util/types.hpp"
#include "workload/job.hpp"

namespace amjs {

struct ScoreParams {
  /// BF in [0, 1]; 1 = pure fairness (FCFS-like), 0 = pure efficiency.
  double balance_factor = 1.0;

  /// Use eq. (1) exactly as printed in the paper (see erratum above).
  bool literal_eq1 = false;
};

/// Scoring input: a queued job's identity and the two quantities the
/// formulas need.
struct QueuedJob {
  JobId id = kInvalidJob;
  Duration wait = 0;      // now - submit
  Duration walltime = 0;  // requested limit
  SimTime submit = 0;     // for deterministic tie-breaking
};

struct ScoredJob {
  JobId id = kInvalidJob;
  SimTime submit = 0;       // the QueuedJob's, for the tie-break
  double s_wait = 0.0;      // S_w, eq. (1)
  double s_runtime = 0.0;   // S_r, eq. (2)
  double s_priority = 0.0;  // S_p, eq. (3)
};

/// Score every queued job into `out`, in queue order. `out` is overwritten;
/// a caller that keeps it from pass to pass reuses its storage. Degenerate
/// cases follow the paper: S_w = 0 when the maximum wait is 0; S_r = 0 when
/// the queue has a single job (or all walltimes are equal, where eq. (2) is
/// 0/0).
void score_jobs(std::span<const QueuedJob> queue, const ScoreParams& params,
                std::vector<ScoredJob>& out);

/// Score and sort into `out`, highest balanced priority first. Ties (e.g.
/// BF=1 and equal waits) break by (submit, id) so BF=1 reduces exactly to
/// FCFS. Queued ids are distinct, so that order is total: std::sort yields
/// the one order a stable sort would, whatever the queue's order.
void rank_jobs(std::span<const QueuedJob> queue, const ScoreParams& params,
               std::vector<ScoredJob>& out);

/// The same two, into a fresh vector.
[[nodiscard]] std::vector<ScoredJob> score_jobs(const std::vector<QueuedJob>& queue,
                                                const ScoreParams& params);
[[nodiscard]] std::vector<ScoredJob> rank_jobs(const std::vector<QueuedJob>& queue,
                                               const ScoreParams& params);

}  // namespace amjs
