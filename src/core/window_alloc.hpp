// Window-based job allocation — §III-B step 5.
//
// Given the W highest-priority jobs, search the permutations of the window
// for the greedy placement with the least makespan ("the jobs in the
// window generate a schedule with highest utilization rate"). Greedy
// placement = each job, in permutation order, starts at its earliest
// feasible time given running jobs and previously placed window jobs.
//
// The search is branch-and-bound over the permutation tree: placing a job
// can only extend the makespan and the start sum, and a commit never makes
// another job's start earlier, so a node is pruned as soon as its bound
// over the remaining jobs queried so far reaches the incumbent. Jobs of equal
// shape (nodes, walltime) are permuted in priority order only, and a state
// (placed jobs, their starts and placements) that two orders reach is
// expanded once. The identity (priority-order) permutation is evaluated
// first, which both seeds a good bound and makes ties resolve toward
// priority order — preserving fairness when reordering buys nothing.
#pragma once

#include <vector>

#include "platform/machine.hpp"
#include "workload/job.hpp"

namespace amjs {

/// One job's chosen slot within the window schedule.
struct WindowPlacement {
  JobId id = kInvalidJob;
  SimTime start = 0;
};

struct WindowDecision {
  /// Placements in the chosen permutation's order.
  std::vector<WindowPlacement> placements;

  /// max(start + walltime) over the window under the chosen permutation.
  SimTime makespan = 0;

  /// Permutations fully evaluated (pruned prefixes excluded); exposed for
  /// the Table III overhead study.
  std::size_t permutations_tried = 0;

  /// Search-tree nodes expanded: the root plus every inner node whose
  /// remaining jobs' starts were queried (up to the first that let the
  /// bound cut it). Leaves and nodes skipped as a repeat of an expanded
  /// state do not count; 0 when the search is skipped.
  std::size_t nodes_expanded = 0;
};

class WindowAllocator {
 public:
  /// Hard cap on the window the permutation search can represent: one bit
  /// per window slot in a 64-bit used mask. (Long before 64 the W! search
  /// is intractable anyway; the cap exists so an out-of-range request is
  /// clamped instead of overflowing the mask.)
  static constexpr int kMaxWindow = 64;

  /// Windows larger than `max_window` are truncated (W! growth; the paper
  /// itself stops at W = 5). Out-of-range values are clamped to
  /// [1, kMaxWindow] in all build types.
  explicit WindowAllocator(int max_window = 8);

  [[nodiscard]] int max_window() const { return max_window_; }

  /// Find the least-makespan placement of `window` (priority order) into
  /// `plan` as of `now`. `plan` is not modified; the caller commits the
  /// returned placements. All jobs must fit the machine.
  [[nodiscard]] WindowDecision decide(const Plan& plan,
                                      const std::vector<const Job*>& window,
                                      SimTime now) const;

  /// Ablation hook (DESIGN.md D1): skip the permutation search and place
  /// the window greedily in priority order. Group reservations still
  /// happen; only the reordering freedom is removed.
  void set_exhaustive(bool exhaustive) { exhaustive_ = exhaustive; }
  [[nodiscard]] bool exhaustive() const { return exhaustive_; }

 private:
  int max_window_;
  bool exhaustive_ = true;
};

}  // namespace amjs
