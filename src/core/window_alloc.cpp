#include "core/window_alloc.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>

#include "obs/registry.hpp"

namespace amjs {
namespace {

// Objective: lexicographic (makespan, sum of start times). The paper's
// criterion is least makespan "meaning ... highest utilization rate";
// makespans tie frequently (the longest job dominates), and among ties the
// schedule that starts work earliest is the better-packed one. Remaining
// ties keep the earliest-found (priority-ordered) permutation, preserving
// fairness when reordering buys nothing.
struct Objective {
  SimTime makespan = 0;
  SimTime start_sum = 0;

  /// Strictly better. Both components only grow as jobs are added, so a
  /// partial schedule (or a lower bound on every completion of it) that
  /// does not beat `other` has no completion that does.
  [[nodiscard]] bool beats(const Objective& other) const {
    if (makespan != other.makespan) return makespan < other.makespan;
    return start_sum < other.start_sum;
  }
};

/// Bit of window slot `i` in a used mask.
constexpr std::uint64_t bit(std::size_t i) { return std::uint64_t{1} << i; }

/// The states one search has expanded, for the transposition cut. A
/// state is the used mask plus every placed slot's (start, placement).
/// The search keeps the current path's state here as it descends
/// (place/unplace) and records it on entering a node (insert). A stored
/// key holds the whole state, so a hash match alone never cuts. Keys sit
/// densely in one array behind an open-addressing index kept at most half
/// full. The table is local to one search and holds at most kMaxKeys keys;
/// once full it stops inserting, which only gives up cuts.
class SeenStates {
 public:
  SeenStates() = default;
  explicit SeenStates(std::size_t window)
      : window_(window), stride_(2 + window + (window + 1) / 2), path_(stride_, 0) {}

  /// Put slot `i` on the path at (start, placement), or take it off.
  void place(std::size_t i, SimTime start, int placement) {
    toggle(i, static_cast<std::uint64_t>(start), static_cast<std::uint32_t>(placement));
  }
  void unplace(std::size_t i) {
    toggle(i, path_[2 + i], (path_[2 + window_ + i / 2] >> shift(i)) & 0xffffffffU);
  }

  /// Record the path's state; false when an earlier node of this search had it.
  bool insert() {
    if (index_.empty()) {
      index_.assign(2 * kMinKeys, 0);
      keys_.reserve(kMinKeys * stride_);
    }
    const std::size_t mask = index_.size() - 1;
    std::size_t slot = path_[0] & mask;
    for (; index_[slot] != 0; slot = (slot + 1) & mask) {
      // Word 0 is the hash, so most mismatches stop at the first word.
      if (std::equal(path_.begin(), path_.end(), key(index_[slot] - 1))) return false;
    }
    if (count_ == kMaxKeys) return true;
    keys_.insert(keys_.end(), path_.begin(), path_.end());
    index_[slot] = static_cast<std::uint32_t>(++count_);
    if (2 * count_ > index_.size()) rebuild_index(2 * index_.size());
    return true;
  }

 private:
  static constexpr std::size_t kMinKeys = 64;    // first allocation
  static constexpr std::size_t kMaxKeys = 4096;  // W=8 keys: 460 KB

  /// splitmix64's finalizer.
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  static unsigned shift(std::size_t i) { return 32 * static_cast<unsigned>(i % 2); }

  // Key words: [0] the hash, an XOR of one term per placed slot, so the
  // order of placement does not matter; [1] the used mask; [2 + i] slot
  // i's start; then the placements two to a word. Unplaced slots stay
  // zero; equal masks place the same slots, so a zero never stands in for
  // a placed value.
  void toggle(std::size_t i, std::uint64_t start, std::uint64_t placement) {
    path_[0] ^= mix(start * 0x9e3779b97f4a7c15ULL + (std::uint64_t{i} << 32 | placement));
    path_[1] ^= bit(i);
    path_[2 + i] ^= start;
    path_[2 + window_ + i / 2] ^= placement << shift(i);
  }

  [[nodiscard]] std::vector<std::uint64_t>::const_iterator key(std::size_t k) const {
    return keys_.begin() + static_cast<std::ptrdiff_t>(k * stride_);
  }

  void rebuild_index(std::size_t size) {
    index_.assign(size, 0);
    const std::size_t mask = size - 1;
    for (std::size_t k = 0; k < count_; ++k) {
      std::size_t slot = *key(k) & mask;
      while (index_[slot] != 0) slot = (slot + 1) & mask;
      index_[slot] = static_cast<std::uint32_t>(k + 1);
    }
  }

  std::size_t window_ = 0;
  std::size_t stride_ = 0;             // words per key
  std::vector<std::uint64_t> path_;    // the current path's key
  std::vector<std::uint32_t> index_;   // 1 + key number, 0 = empty
  std::vector<std::uint64_t> keys_;
  std::size_t count_ = 0;              // keys stored
};

struct SearchState {
  const std::vector<const Job*>* window = nullptr;
  SimTime now = 0;
  Objective best_objective{kNever, kNever};
  std::vector<WindowPlacement> best;
  std::vector<WindowPlacement> current;
  /// twin[i]: the nearest higher-priority window slot whose job has job
  /// i's (nodes, walltime), or -1.
  std::vector<int> twin;
  /// starts[(d + 1) * W + i]: job i's earliest start at the tree node of
  /// depth d; row 0 holds `now` (the root's query floor).
  std::vector<SimTime> starts;
  SeenStates seen;
  std::size_t permutations = 0;
  std::size_t nodes = 0;
  /// find_start calls the search made (twin reuses excluded), and how many
  /// of them answered their floor.
  std::size_t queries = 0;
  std::size_t floor_answers = 0;
};

/// Greedily place `window` in priority order on `plan`: the identity seed.
/// The placements stay committed; undoing them restores `plan`.
Objective place_all(Plan& plan, const std::vector<const Job*>& window,
                    SimTime now, std::vector<WindowPlacement>& out) {
  Objective obj{now, 0};
  out.clear();
  for (const Job* job : window) {
    const SimTime start = plan.find_start(*job, now);
    plan.commit(*job, start);
    out.push_back({job->id, start});
    obj.makespan = std::max(obj.makespan, start + job->walltime);
    obj.start_sum += start - now;
  }
  return obj;
}

// `used_mask` is one bit per window slot: 64 bits bounds the window the
// search can handle at kMaxWindow (the constructor clamps there). A
// narrower mask silently aliases slots past its width — slot 32 in a
// uint32_t mask wraps onto slot 0 and the search revisits placed jobs.
//
// Five exact cuts (DESIGN.md D1), each resting on the Plan contract
// (platform/machine.hpp):
//   * whole-node bound — every remaining job's start is known before
//     recursing, and a commit never makes a start earlier, so
//     (max end, start sum) over them bounds every completion of the node;
//   * early cut — both bound components only grow as jobs are added, so
//     the node returns as soon as the bound over the starts queried so far
//     fails to beat the incumbent, and queries none of the rest; and the
//     child loop stops once the node's bound no longer beats an incumbent
//     an earlier child improved, since every child's bound is at least
//     its parent's;
//   * parent-start floors — a job's start at the parent is no later than
//     its start here, so it is a safe query floor that skips the
//     candidates the parent's scan already rejected;
//   * same-shape symmetry — plans read only a job's nodes and walltime,
//     so jobs of equal shape are placed in priority order only; the other
//     orders repeat the same plan and objective, and the priority-ordered
//     one is reached first;
//   * transpositions — a plan's answers depend only on the multiset of
//     its hard commitments, so a node whose placed slots, starts and
//     placements match a node this search already expanded has the same
//     plan and objective so far; every leaf below it repeats a leaf the
//     earlier node reached or cut against an incumbent no better than
//     today's, and it is skipped on entry. Only states that another order
//     can reach are keyed: there, the first job the two orders place
//     differently starts where it could have started some levels up, so
//     by (a) its predecessor on this path did not move its start.
//
// The tree is walked on one plan: each child is a commit, its subtree, and
// undo_last_commit, which restores the plan exactly (platform/machine.hpp).
void search(Plan& plan, Objective so_far, std::uint64_t used_mask, bool may_repeat,
            SearchState& state) {
  const auto& window = *state.window;
  const std::size_t n = window.size();
  const std::size_t depth = state.current.size();
  if (depth == n) {
    ++state.permutations;
    if (so_far.beats(state.best_objective)) {
      state.best_objective = so_far;
      state.best = state.current;
    }
    return;
  }
  if (may_repeat && !state.seen.insert()) return;
  ++state.nodes;
  const SimTime* floors = &state.starts[depth * n];
  SimTime* starts = &state.starts[(depth + 1) * n];
  Objective bound = so_far;
  std::uint64_t open = 0;  // jobs whose same-shape predecessors are placed
  for (std::size_t i = 0; i < n; ++i) {
    if (used_mask & bit(i)) continue;
    const int twin = state.twin[i];
    if (twin >= 0 && !(used_mask & bit(static_cast<std::size_t>(twin)))) {
      // An unplaced twin has this job's shape and floor: same answer.
      starts[i] = starts[twin];
    } else {
      starts[i] = plan.find_start(*window[i], floors[i]);
      ++state.queries;
      if (starts[i] == floors[i]) ++state.floor_answers;
      open |= bit(i);
    }
    bound.makespan = std::max(bound.makespan, starts[i] + window[i]->walltime);
    bound.start_sum += starts[i] - state.now;
    if (!bound.beats(state.best_objective)) return;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (!(open & bit(i))) continue;
    // An earlier child may have improved the incumbent. Every child's
    // bound is at least this node's, so once that bound stops beating it
    // no later child can; while it does, so does each child's prefix.
    if (!bound.beats(state.best_objective)) break;
    const Job* job = window[i];
    const SimTime start = starts[i];
    const Objective next{std::max(so_far.makespan, start + job->walltime),
                         so_far.start_sum + (start - state.now)};
    // Key the child only if some job on its path starts where it could
    // have started before its predecessor was placed.
    const bool child_may_repeat = may_repeat || (depth > 0 && floors[i] == start);
    state.current.push_back({job->id, start});
    plan.commit(*job, start);
    state.seen.place(i, start, plan.last_placement());
    search(plan, next, used_mask | bit(i), child_may_repeat, state);
    plan.undo_last_commit();
    state.seen.unplace(i);
    state.current.pop_back();
  }
}

}  // namespace

WindowAllocator::WindowAllocator(int max_window)
    : max_window_(std::clamp(max_window, 1, kMaxWindow)) {}

WindowDecision WindowAllocator::decide(const Plan& plan,
                                       const std::vector<const Job*>& window,
                                       SimTime now) const {
  static obs::Timer& decide_timer =
      obs::Registry::global().timer("core.window_decide");
  obs::ScopedTimer timed(decide_timer);
  WindowDecision decision;
  if (window.empty()) {
    decision.makespan = now;
    return decision;
  }
  std::vector<const Job*> jobs = window;
  if (jobs.size() > static_cast<std::size_t>(max_window_)) {
    jobs.resize(static_cast<std::size_t>(max_window_));
  }

  // Seed with the identity permutation so ties keep priority order. One
  // clone serves the seed and the whole search tree: the search undoes
  // the seed's commits and walks the same clone by commit and undo.
  const auto trial = plan.clone();
  SearchState state;
  state.window = &jobs;
  state.now = now;
  state.best_objective = place_all(*trial, jobs, now, state.best);
  state.permutations = 1;

  // The search only pays when reordering can change who runs *now*:
  //   * if priority order already starts everything (start_sum == 0), no
  //     permutation beats it — makespan is the fixed max end;
  //   * if nothing fits now (machine saturated — the deep-burst regime),
  //     the permutation only shuffles reservation shadows that are
  //     re-derived at the next event anyway; the W! search would burn the
  //     fairness oracle's budget for no schedule change.
  // Both cases skip; the contended middle case searches exhaustively.
  bool any_fits_now = false;
  for (const Job* job : jobs) {
    if (plan.fits_at(*job, now)) {
      any_fits_now = true;
      break;
    }
  }
  if (exhaustive_ && jobs.size() > 1 && any_fits_now &&
      state.best_objective.start_sum > 0) {
    const std::size_t n = jobs.size();
    state.current.reserve(n);
    state.twin.assign(n, -1);
    for (std::size_t i = 1; i < n; ++i) {
      for (std::size_t j = i; j-- > 0;) {
        if (jobs[j]->nodes == jobs[i]->nodes && jobs[j]->walltime == jobs[i]->walltime) {
          state.twin[i] = static_cast<int>(j);
          break;
        }
      }
    }
    state.starts.assign((n + 1) * n, now);
    state.seen = SeenStates(n);
    for (std::size_t k = 0; k < n; ++k) trial->undo_last_commit();
    search(*trial, Objective{now, 0}, 0, false, state);
  }

  decision.placements = std::move(state.best);
  decision.makespan = state.best_objective.makespan;
  decision.permutations_tried = state.permutations;
  decision.nodes_expanded = state.nodes;
  if (obs::Registry::enabled()) {
    static obs::Counter& permutations =
        obs::Registry::global().counter("core.permutations");
    static obs::Counter& nodes = obs::Registry::global().counter("core.search_nodes");
    static obs::Counter& queries =
        obs::Registry::global().counter("core.search_queries");
    static obs::Counter& floor_answers =
        obs::Registry::global().counter("core.search_floor_answers");
    permutations.add(state.permutations);
    nodes.add(state.nodes);
    queries.add(state.queries);
    floor_answers.add(state.floor_answers);
  }
  return decision;
}

}  // namespace amjs
