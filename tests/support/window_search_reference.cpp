#include "support/window_search_reference.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>

namespace amjs::test_support {
namespace {

// Lexicographic (makespan, sum of start offsets); see window_alloc.cpp.
struct Objective {
  SimTime makespan = 0;
  SimTime start_sum = 0;

  [[nodiscard]] bool beats(const Objective& other) const {
    if (makespan != other.makespan) return makespan < other.makespan;
    return start_sum < other.start_sum;
  }
};

struct SearchState {
  const std::vector<const Job*>* window = nullptr;
  SimTime now = 0;
  Objective best_objective{kNever, kNever};
  std::vector<WindowPlacement> best;
  std::vector<WindowPlacement> current;
  std::size_t permutations = 0;
};

Objective place_all(const Plan& base, const std::vector<const Job*>& window,
                    SimTime now, std::vector<WindowPlacement>& out) {
  auto plan = base.clone();
  Objective obj{now, 0};
  out.clear();
  for (const Job* job : window) {
    const SimTime start = plan->find_start(*job, now);
    plan->commit(*job, start);
    out.push_back({job->id, start});
    obj.makespan = std::max(obj.makespan, start + job->walltime);
    obj.start_sum += start - now;
  }
  return obj;
}

void search(Plan& plan, Objective so_far, std::uint64_t used_mask,
            SearchState& state) {
  const auto& window = *state.window;
  if (state.current.size() == window.size()) {
    ++state.permutations;
    if (so_far.beats(state.best_objective)) {
      state.best_objective = so_far;
      state.best = state.current;
    }
    return;
  }
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (used_mask & (std::uint64_t{1} << i)) continue;
    const Job* job = window[i];
    const SimTime start = plan.find_start(*job, state.now);
    const Objective next{std::max(so_far.makespan, start + job->walltime),
                         so_far.start_sum + (start - state.now)};
    if (!next.beats(state.best_objective)) continue;
    state.current.push_back({job->id, start});
    auto child = plan.clone();
    child->commit(*job, start);
    search(*child, next, used_mask | (std::uint64_t{1} << i), state);
    state.current.pop_back();
  }
}

}  // namespace

WindowDecision reference_window_decide(const Plan& plan,
                                       const std::vector<const Job*>& window,
                                       SimTime now) {
  WindowDecision decision;
  if (window.empty()) {
    decision.makespan = now;
    return decision;
  }

  SearchState state;
  state.window = &window;
  state.now = now;
  state.best_objective = place_all(plan, window, now, state.best);
  state.permutations = 1;

  const bool any_fits_now = std::any_of(
      window.begin(), window.end(), [&](const Job* job) { return plan.fits_at(*job, now); });
  if (window.size() > 1 && any_fits_now && state.best_objective.start_sum > 0) {
    state.current.reserve(window.size());
    auto root = plan.clone();
    search(*root, Objective{now, 0}, 0, state);
  }

  decision.placements = std::move(state.best);
  decision.makespan = state.best_objective.makespan;
  decision.permutations_tried = state.permutations;
  return decision;
}

}  // namespace amjs::test_support
