#include "platform/partition.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include "util/fmt.hpp"

namespace amjs {
namespace {

using PositionSet = PartitionMachine::PositionSet;

/// kBelow[k]: positions [0, k), k in [0, 128].
constexpr auto kBelow = [] {
  std::array<PositionSet, 129> below{};
  for (std::size_t k = 1; k < below.size(); ++k) {
    below[k] = below[k - 1];
    (k <= 64 ? below[k].lo : below[k].hi) |= std::uint64_t{1} << ((k - 1) % 64);
  }
  return below;
}();

/// Positions [first, last): below `last` and not below `first`, so empty
/// when first >= last.
PositionSet run(std::size_t first, std::size_t last) {
  assert(first < kBelow.size() && last < kBelow.size());
  const PositionSet& upto = kBelow[last];
  const PositionSet& before = kBelow[first];
  return {upto.lo & ~before.lo, upto.hi & ~before.hi};
}

}  // namespace

std::string PartitionDef::name() const {
  return amjs::format("P[{}..{}]x{}", first_leaf, first_leaf + leaf_count - 1, size);
}

PartitionMachine::PartitionMachine(PartitionConfig config) : config_(config) {
  assert(config_.leaf_nodes > 0);
  assert(config_.row_leaves > 0);
  assert((config_.row_leaves & (config_.row_leaves - 1)) == 0 &&
         "row_leaves must be a power of two");
  assert(config_.rows > 0);
  assert(config_.row_leaves * config_.rows <= kMaxLeaves);
  build_partitions();
}

void PartitionMachine::build_partitions() {
  const int total_leaves = config_.row_leaves * config_.rows;

  auto add_partition = [&](int first_leaf, int leaf_count) {
    PartitionDef def;
    def.first_leaf = first_leaf;
    def.leaf_count = leaf_count;
    def.size = static_cast<NodeCount>(leaf_count) * config_.leaf_nodes;
    LeafMask mask;
    for (int l = first_leaf; l < first_leaf + leaf_count; ++l) mask.set(static_cast<std::size_t>(l));
    parts_.push_back(def);
    part_masks_.push_back(mask);
  };

  // Within-row partitions: aligned power-of-two groups of midplanes.
  for (int row = 0; row < config_.rows; ++row) {
    const int row_base = row * config_.row_leaves;
    for (int group = 1; group <= config_.row_leaves; group *= 2) {
      for (int off = 0; off + group <= config_.row_leaves; off += group) {
        add_partition(row_base + off, group);
      }
    }
  }
  // Cross-row partitions: aligned power-of-two groups of whole rows
  // (excluding a single row — that tier already exists within rows).
  for (int group = 2; group <= config_.rows; group *= 2) {
    for (int off = 0; off + group <= config_.rows; off += group) {
      add_partition(off * config_.row_leaves, group * config_.row_leaves);
    }
  }
  // Full machine, if the row count is not itself a power of two.
  bool have_full = false;
  for (const auto& p : parts_) {
    if (p.leaf_count == total_leaves) have_full = true;
  }
  if (!have_full) add_partition(0, total_leaves);

  // Index partitions by size tier.
  for (const auto& p : parts_) tiers_.push_back(p.size);
  std::sort(tiers_.begin(), tiers_.end());
  tiers_.erase(std::unique(tiers_.begin(), tiers_.end()), tiers_.end());
  tier_parts_.resize(tiers_.size());
  for (int i = 0; i < static_cast<int>(parts_.size()); ++i) {
    const auto it = std::lower_bound(tiers_.begin(), tiers_.end(),
                                     parts_[static_cast<std::size_t>(i)].size);
    tier_parts_[static_cast<std::size_t>(it - tiers_.begin())].push_back(i);
  }
#ifndef NDEBUG
  // The layout build_conflicts() relies on: a tier's partitions all span
  // one width w and sit at position first_leaf / w of the tier's list; w
  // is a power of two except for a full-machine tier of one position.
  for (const auto& list : tier_parts_) {
    const int w = parts_[static_cast<std::size_t>(list.front())].leaf_count;
    assert(std::has_single_bit(static_cast<unsigned>(w)) ||
           (list.size() == 1 && w == total_leaves));
    for (std::size_t pos = 0; pos < list.size(); ++pos) {
      const auto& def = parts_[static_cast<std::size_t>(list[pos])];
      assert(def.leaf_count == w && def.first_leaf == static_cast<int>(pos) * w);
    }
  }
#endif
  // tier_of's table: a job spanning k leaves lands in the first tier of at
  // least k leaves (a job of no nodes, k = 0, in the smallest).
  assert(tiers_.size() <= 256);
  tier_by_leaves_.resize(static_cast<std::size_t>(total_leaves) + 1);
  std::size_t tier = 0;
  for (std::size_t k = 0; k < tier_by_leaves_.size(); ++k) {
    while (tiers_[tier] < static_cast<NodeCount>(k) * config_.leaf_nodes) ++tier;
    tier_by_leaves_[k] = static_cast<std::uint8_t>(tier);
  }
  build_conflicts();
}

void PartitionMachine::build_conflicts() {
  // Tier t's position k covers leaves [k * w, (k + 1) * w), so partition p
  // (leaves [f, f + n)) meets exactly positions [f / w, ceil((f + n) / w)),
  // clipped to the tier's size: one run per (tier, partition), found with
  // shifts. The one tier whose width is no power of two is the full
  // machine's, whose single position every partition meets.
  conflicts_.resize(tiers_.size() * parts_.size());
  for (std::size_t t = 0; t < tiers_.size(); ++t) {
    const std::size_t count = tier_parts_[t].size();
    const auto w =
        static_cast<unsigned>(parts_[static_cast<std::size_t>(tier_parts_[t].front())].leaf_count);
    PositionSet* row = &conflicts_[t * parts_.size()];
    if (!std::has_single_bit(w)) {
      std::fill(row, row + parts_.size(), run(0, 1));
      continue;
    }
    const int shift = std::countr_zero(w);
    for (std::size_t p = 0; p < parts_.size(); ++p) {
      const auto first = static_cast<std::size_t>(parts_[p].first_leaf);
      const auto last = first + static_cast<std::size_t>(parts_[p].leaf_count) - 1;
      row[p] = run(first >> shift, std::min((last >> shift) + 1, count));
    }
  }
}

bool PartitionMachine::fits(const Job& job) const {
  return job.nodes <= total_nodes();
}

const PartitionMachine::LiveAlloc* PartitionMachine::running_alloc(JobId job) const {
  const auto it = std::ranges::lower_bound(
      allocs_, job, {}, [](const LiveAlloc& live) { return live.alloc.job; });
  return it != allocs_.end() && it->alloc.job == job ? &*it : nullptr;
}

NodeCount PartitionMachine::occupancy(const Job& job) const {
  return tiers_[tier_of(job)];
}

int PartitionMachine::pick_partition(const Job& job) const {
  if (!fits(job)) return -1;
  const auto& candidates = tier_partitions(job);
  int best = -1;
  std::size_t best_busy_neighbors = 0;
  for (int idx : candidates) {
    const auto& mask = part_masks_[static_cast<std::size_t>(idx)];
    if ((mask & busy_mask_).any()) continue;
    // Prefer the candidate whose enclosing double-size block is most
    // occupied (buddy heuristic: pack into already-fragmented regions).
    const auto& def = parts_[static_cast<std::size_t>(idx)];
    const int buddy_first = (def.first_leaf / (def.leaf_count * 2)) * def.leaf_count * 2;
    LeafMask enclosing;
    for (int l = buddy_first;
         l < buddy_first + def.leaf_count * 2 && l < kMaxLeaves; ++l) {
      enclosing.set(static_cast<std::size_t>(l));
    }
    const std::size_t busy_neighbors = (enclosing & busy_mask_).count();
    if (best == -1 || busy_neighbors > best_busy_neighbors) {
      best = idx;
      best_busy_neighbors = busy_neighbors;
    }
  }
  return best;
}

bool PartitionMachine::can_start(const Job& job) const {
  // A yes/no answer needs only the first free partition of the tier; the
  // buddy scoring that ranks the free ones is start()'s business.
  if (!fits(job)) return false;
  const auto& candidates = tier_partitions(job);
  return std::any_of(candidates.begin(), candidates.end(), [&](int idx) {
    return !(part_masks_[static_cast<std::size_t>(idx)] & busy_mask_).any();
  });
}

bool PartitionMachine::start(const Job& job, SimTime now, int placement) {
  int idx = -1;
  if (placement >= 0) {
    // Pinned by a Plan: honor it iff it is a valid, free partition of the
    // job's tier (a stale hint falls back to the machine's own choice).
    const auto& tier = tier_partitions(job);
    const bool in_tier =
        std::find(tier.begin(), tier.end(), placement) != tier.end();
    if (in_tier &&
        !(part_masks_[static_cast<std::size_t>(placement)] & busy_mask_).any()) {
      idx = placement;
    }
  }
  if (idx < 0) idx = pick_partition(job);
  if (idx < 0) return false;
  const auto at = std::ranges::lower_bound(
      allocs_, job.id, {}, [](const LiveAlloc& live) { return live.alloc.job; });
  assert(at == allocs_.end() || at->alloc.job != job.id);
  const auto& mask = part_masks_[static_cast<std::size_t>(idx)];
  busy_mask_ |= mask;
  const NodeCount occ = parts_[static_cast<std::size_t>(idx)].size;
  busy_nodes_ += occ;
  allocs_.insert(at, LiveAlloc{RunningAlloc{job.id, occ, now, now + job.walltime}, idx});
  return true;
}

void PartitionMachine::finish(JobId job, SimTime /*now*/) {
  const LiveAlloc* live = running_alloc(job);
  assert(live != nullptr);
  const auto& mask = part_masks_[static_cast<std::size_t>(live->partition)];
  busy_mask_ &= ~mask;
  busy_nodes_ -= live->alloc.occupied;
  assert(busy_nodes_ >= 0);
  allocs_.erase(allocs_.begin() + (live - allocs_.data()));
}

std::vector<RunningAlloc> PartitionMachine::running() const {
  std::vector<RunningAlloc> out;
  out.reserve(allocs_.size());
  for (const LiveAlloc& live : allocs_) out.push_back(live.alloc);
  return out;
}

std::unique_ptr<MachineState> PartitionMachine::save_state() const {
  auto state = std::make_unique<PartitionMachineState>();
  state->config = config_;
  state->busy_mask = busy_mask_;
  state->busy_nodes = busy_nodes_;
  state->allocs = allocs_;
  return state;
}

void PartitionMachine::restore_state(const MachineState& state) {
  const auto* part = dynamic_cast<const PartitionMachineState*>(&state);
  assert(part != nullptr && "restore_state: not a PartitionMachine state");
  assert(part->config.leaf_nodes == config_.leaf_nodes &&
         part->config.row_leaves == config_.row_leaves &&
         part->config.rows == config_.rows &&
         "restore_state: topology mismatch");
  busy_mask_ = part->busy_mask;
  busy_nodes_ = part->busy_nodes;
  allocs_ = part->allocs;
}

void PartitionMachine::reset() {
  busy_mask_.reset();
  busy_nodes_ = 0;
  allocs_.clear();
}

}  // namespace amjs
