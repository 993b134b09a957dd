// The window permutation search without its exact cuts: branch-and-bound
// with only the per-child prefix check, every job permuted, and every
// find_start query floored at `now`. It is the search WindowAllocator ran
// before the whole-node bound, the parent-start floors and the same-shape
// symmetry cut, kept here as the reference the pruned search is pinned
// against.
#pragma once

#include <vector>

#include "core/window_alloc.hpp"

namespace amjs::test_support {

/// Same contract as an exhaustive WindowAllocator::decide of a window no
/// wider than the allocator's cap: identity seed, the same skip rules, the
/// same tie-breaking and the same permutations_tried count (full
/// permutations reached).
[[nodiscard]] WindowDecision reference_window_decide(
    const Plan& plan, const std::vector<const Job*>& window, SimTime now);

}  // namespace amjs::test_support
