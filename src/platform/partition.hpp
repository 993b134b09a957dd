// PartitionMachine: Blue Gene/P-style contiguous partition allocation.
//
// Intrepid schedules jobs onto *partitions*: wired, contiguous blocks of
// midplanes (512 nodes each). A job requesting n nodes occupies the
// smallest partition size >= n (internal fragmentation), and a partition is
// usable only if none of its midplanes is busy (external fragmentation /
// blocking). This is what makes Loss of Capacity non-trivial: idle nodes
// can be plentiful while no *partition* of the needed size is free.
//
// Topology model (configurable, defaults = Intrepid):
//   * `row_leaves` midplanes per row (16 -> 8192-node rows);
//   * within a row, partitions are aligned power-of-two groups of
//     midplanes: 512, 1024, ..., 8192;
//   * across rows, partitions are aligned power-of-two groups of whole
//     rows (16384, 32768) plus one full-machine partition (40960) — an
//     approximation of Intrepid's actual wiring closures.
#pragma once

#include <algorithm>
#include <bit>
#include <bitset>
#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "platform/machine.hpp"

namespace amjs {

struct PartitionConfig {
  /// Nodes per midplane (the smallest allocatable unit).
  NodeCount leaf_nodes = 512;
  /// Midplanes per row; within-row partitions are power-of-two groups.
  int row_leaves = 16;
  /// Number of rows. total = leaf_nodes * row_leaves * rows.
  int rows = 5;

  [[nodiscard]] NodeCount total_nodes() const {
    return leaf_nodes * row_leaves * rows;
  }
};

/// One wired partition: a contiguous, aligned leaf range.
struct PartitionDef {
  int first_leaf = 0;
  int leaf_count = 0;
  NodeCount size = 0;  // leaf_count * leaf_nodes

  [[nodiscard]] std::string name() const;
};

class PartitionMachine final : public Machine {
 public:
  static constexpr int kMaxLeaves = 128;
  using LeafMask = std::bitset<kMaxLeaves>;

  /// A set of positions in one tier's partition list (tier_partitions()):
  /// bit p of the 128 stands for position p, enough for a tier of
  /// kMaxLeaves one-leaf partitions.
  struct PositionSet {
    std::uint64_t lo = 0;  // positions 0-63
    std::uint64_t hi = 0;  // positions 64-127

    PositionSet& operator|=(const PositionSet& other) {
      lo |= other.lo;
      hi |= other.hi;
      return *this;
    }
    /// Lowest position not in the set; 128 when every position is.
    [[nodiscard]] std::size_t first_clear() const {
      return ~lo != 0 ? static_cast<std::size_t>(std::countr_zero(~lo))
                      : 64 + static_cast<std::size_t>(std::countr_zero(~hi));
    }
  };

  explicit PartitionMachine(PartitionConfig config = {});

  [[nodiscard]] const PartitionConfig& config() const { return config_; }

  /// All partitions, grouped by size tier (ascending tier order).
  [[nodiscard]] const std::vector<PartitionDef>& partitions() const { return parts_; }

  /// Distinct partition sizes, ascending.
  [[nodiscard]] const std::vector<NodeCount>& tiers() const { return tiers_; }

  // Machine interface -------------------------------------------------
  [[nodiscard]] NodeCount total_nodes() const override { return config_.total_nodes(); }
  [[nodiscard]] NodeCount busy_nodes() const override { return busy_nodes_; }
  [[nodiscard]] bool fits(const Job& job) const override;
  [[nodiscard]] NodeCount occupancy(const Job& job) const override;
  [[nodiscard]] bool can_start(const Job& job) const override;
  [[nodiscard]] bool start(const Job& job, SimTime now, int placement = -1) override;
  void finish(JobId job, SimTime now) override;
  [[nodiscard]] std::vector<RunningAlloc> running() const override;
  [[nodiscard]] std::unique_ptr<MachineState> save_state() const override;
  void restore_state(const MachineState& state) override;
  void reset() override;

  /// Position in tiers() of the job's occupancy tier: one lookup in a
  /// table indexed by the job's leaf count, ceil(nodes / leaf_nodes).
  [[nodiscard]] std::size_t tier_of(const Job& job) const {
    assert(fits(job));
    const NodeCount nodes = std::max<NodeCount>(job.nodes, 0);
    return tier_by_leaves_[static_cast<std::size_t>(
        (nodes + config_.leaf_nodes - 1) / config_.leaf_nodes)];
  }

  /// Indices into partitions() of size tiers()[tier], ascending.
  [[nodiscard]] const std::vector<int>& tier_partitions(std::size_t tier) const {
    return tier_parts_[tier];
  }

  /// Indices into partitions() whose size equals the job's tier.
  [[nodiscard]] const std::vector<int>& tier_partitions(const Job& job) const {
    return tier_partitions(tier_of(job));
  }

  /// Leaf mask of partition `idx` (index into partitions()).
  [[nodiscard]] const LeafMask& partition_mask(int idx) const {
    return part_masks_.at(static_cast<std::size_t>(idx));
  }

  /// Positions in tier_partitions(tier) whose partition shares a leaf with
  /// partition `idx` (index into partitions()); no position at or past the
  /// tier's size is set. Tabled at construction.
  [[nodiscard]] const PositionSet& tier_conflicts(int idx, std::size_t tier) const {
    return conflicts_[tier * parts_.size() + static_cast<std::size_t>(idx)];
  }

  /// A live allocation together with the partition it holds.
  struct LiveAlloc {
    RunningAlloc alloc;
    int partition = -1;
  };

  /// Live allocations in ascending job id order (the partition calendar
  /// seeds its holds from these).
  [[nodiscard]] const std::vector<LiveAlloc>& running_allocs() const {
    return allocs_;
  }

  /// The live allocation of `job`, or nullptr when it holds none.
  [[nodiscard]] const LiveAlloc* running_alloc(JobId job) const;

 private:

  /// Best free partition of the job's tier, or -1. "Best" prefers the
  /// partition whose buddy (the sibling inside the enclosing partition) is
  /// already busy, so large free blocks are preserved. Only start() needs
  /// the ranking; can_start() stops at the first free partition.
  [[nodiscard]] int pick_partition(const Job& job) const;

  void build_partitions();
  void build_conflicts();

  PartitionConfig config_;
  std::vector<PartitionDef> parts_;
  std::vector<NodeCount> tiers_;
  /// tier_parts_[t]: indices of partitions of size tiers_[t], ascending.
  std::vector<std::vector<int>> tier_parts_;
  std::vector<LeafMask> part_masks_;
  /// conflicts_[t * parts_.size() + p]: tier_conflicts(p, t).
  std::vector<PositionSet> conflicts_;
  /// tier_by_leaves_[k]: the tier of a job spanning k leaves, k in
  /// [0, total leaves].
  std::vector<std::uint8_t> tier_by_leaves_;
  LeafMask busy_mask_;
  NodeCount busy_nodes_ = 0;
  /// Ascending job id: one block that start and finish edit in place and
  /// save_state copies whole.
  std::vector<LiveAlloc> allocs_;
};

/// Saved allocation state of a PartitionMachine.
struct PartitionMachineState final : MachineState {
  PartitionConfig config;  // topology check on restore
  PartitionMachine::LeafMask busy_mask;
  NodeCount busy_nodes = 0;
  std::vector<PartitionMachine::LiveAlloc> allocs;  // ascending job id
};

}  // namespace amjs
