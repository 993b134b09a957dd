#include "core/score.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <utility>

namespace amjs {

std::vector<ScoredJob> score_jobs(const std::vector<QueuedJob>& queue,
                                  const ScoreParams& params) {
  assert(params.balance_factor >= 0.0 && params.balance_factor <= 1.0);
  std::vector<ScoredJob> scored;
  scored.reserve(queue.size());
  if (queue.empty()) return scored;

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
    scored.push_back(s);
  }
  return scored;
}

std::vector<ScoredJob> rank_jobs(const std::vector<QueuedJob>& queue,
                                 const ScoreParams& params) {
  const auto scored = score_jobs(queue, params);
  // score_jobs keeps queue order, so scored[i] belongs to queue[i]: sort
  // positions and read the (submit, id) tie-break — FCFS order among equal
  // priorities — straight from the queue.
  std::vector<std::size_t> order(scored.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (scored[a].s_priority != scored[b].s_priority)
      return scored[a].s_priority > scored[b].s_priority;
    return std::pair(queue[a].submit, queue[a].id) <
           std::pair(queue[b].submit, queue[b].id);
  });
  std::vector<ScoredJob> ranked;
  ranked.reserve(order.size());
  for (const std::size_t i : order) ranked.push_back(scored[i]);
  return ranked;
}

}  // namespace amjs
