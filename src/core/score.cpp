#include "core/score.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace amjs {

void score_jobs(std::span<const QueuedJob> queue, const ScoreParams& params,
                std::vector<ScoredJob>& out) {
  assert(params.balance_factor >= 0.0 && params.balance_factor <= 1.0);
  out.clear();
  if (queue.empty()) return;

  Duration wait_max = 0;
  Duration wall_max = queue.front().walltime;
  Duration wall_min = queue.front().walltime;
  for (const auto& q : queue) {
    wait_max = std::max(wait_max, q.wait);
    wall_max = std::max(wall_max, q.walltime);
    wall_min = std::min(wall_min, q.walltime);
  }

  for (const auto& q : queue) {
    ScoredJob s;
    s.id = q.id;
    s.submit = q.submit;

    if (wait_max <= 0) {
      s.s_wait = 0.0;  // paper: "If the maximum value is 0, S_w is set to 0"
    } else if (params.literal_eq1) {
      // Printed form: 100 * wait_max / wait_i (guard the wait_i = 0 pole).
      s.s_wait = q.wait > 0
                     ? 100.0 * static_cast<double>(wait_max) / static_cast<double>(q.wait)
                     : 0.0;
    } else {
      s.s_wait = 100.0 * static_cast<double>(q.wait) / static_cast<double>(wait_max);
    }

    if (queue.size() <= 1 || wall_max == wall_min) {
      s.s_runtime = 0.0;  // paper: single-job queue -> S_r = 0; also 0/0 guard
    } else {
      s.s_runtime = 100.0 * static_cast<double>(wall_max - q.walltime) /
                    static_cast<double>(wall_max - wall_min);
    }

    const double bf = params.balance_factor;
    s.s_priority = bf * s.s_wait + (1.0 - bf) * s.s_runtime;
    out.push_back(s);
  }
}

void rank_jobs(std::span<const QueuedJob> queue, const ScoreParams& params,
               std::vector<ScoredJob>& out) {
  score_jobs(queue, params, out);
  std::sort(out.begin(), out.end(), [](const ScoredJob& a, const ScoredJob& b) {
    if (a.s_priority != b.s_priority) return a.s_priority > b.s_priority;
    return std::pair(a.submit, a.id) < std::pair(b.submit, b.id);
  });
}

std::vector<ScoredJob> score_jobs(const std::vector<QueuedJob>& queue,
                                  const ScoreParams& params) {
  std::vector<ScoredJob> out;
  score_jobs(queue, params, out);
  return out;
}

std::vector<ScoredJob> rank_jobs(const std::vector<QueuedJob>& queue,
                                 const ScoreParams& params) {
  std::vector<ScoredJob> out;
  rank_jobs(queue, params, out);
  return out;
}

}  // namespace amjs
