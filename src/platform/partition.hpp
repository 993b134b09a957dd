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

#include <bitset>
#include <map>
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
  [[nodiscard]] std::unique_ptr<Plan> make_plan(SimTime now) const override;
  [[nodiscard]] std::unique_ptr<MachineState> save_state() const override;
  void restore_state(const MachineState& state) override;
  void reset() override;

  /// Position in tiers() of the job's occupancy tier.
  [[nodiscard]] std::size_t tier_of(const Job& job) const;

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

  /// A live allocation together with the partition it holds.
  struct LiveAlloc {
    RunningAlloc alloc;
    int partition = -1;
  };

  /// Live allocations keyed by job (used to seed PartitionPlan).
  [[nodiscard]] const std::map<JobId, LiveAlloc>& running_allocs() const {
    return allocs_;
  }

 private:

  /// Best free partition of the job's tier, or -1. "Best" prefers the
  /// partition whose buddy (the sibling inside the enclosing partition) is
  /// already busy, so large free blocks are preserved. Only start() needs
  /// the ranking; can_start() stops at the first free partition.
  [[nodiscard]] int pick_partition(const Job& job) const;

  void build_partitions();

  PartitionConfig config_;
  std::vector<PartitionDef> parts_;
  std::vector<NodeCount> tiers_;
  /// tier_parts_[t]: indices of partitions of size tiers_[t], ascending.
  std::vector<std::vector<int>> tier_parts_;
  std::vector<LeafMask> part_masks_;
  LeafMask busy_mask_;
  NodeCount busy_nodes_ = 0;
  std::map<JobId, LiveAlloc> allocs_;
};

/// Saved allocation state of a PartitionMachine.
struct PartitionMachineState final : MachineState {
  PartitionConfig config;  // topology check on restore
  PartitionMachine::LeafMask busy_mask;
  NodeCount busy_nodes = 0;
  std::map<JobId, PartitionMachine::LiveAlloc> allocs;
};

/// Plan over the partition machine.
///
/// Two layers of future knowledge, mirroring how BG/P-class systems
/// actually plan:
///   * *running* jobs occupy concrete partitions (leaf-mask intervals
///     until their predicted ends) — contiguity against them is exact;
///   * *committed* (reserved) jobs occupy capacity (their tier's node
///     count) but no specific partition — a partition cannot be promised
///     hours ahead on a machine whose jobs end at unpredictable times, so
///     reservations are capacity-shadows that may slip slightly at
///     realization time (exactly as in Cobalt; the simulator re-plans at
///     every event, bounding the slip to one scheduling iteration).
///
/// find_start(job, t) therefore requires BOTH a tier partition free of
/// running-job conflicts over [t, t+walltime) AND enough capacity net of
/// all commitments throughout that window.
class PartitionPlan final : public Plan {
 public:
  PartitionPlan(const PartitionMachine& machine, SimTime now);

  [[nodiscard]] std::unique_ptr<Plan> clone() const override;
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override;
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override;
  void commit(const Job& job, SimTime start) override;
  void commit_soft(const Job& job, SimTime start) override;
  [[nodiscard]] int last_placement() const override { return last_placement_; }
  [[nodiscard]] bool supports_undo() const override { return true; }
  void undo_last_commit() override;

 private:
  struct MaskInterval {
    SimTime start;
    SimTime end;
    PartitionMachine::LeafMask mask;
  };
  struct CapacityInterval {
    SimTime start;
    SimTime end;
    NodeCount occupied;
  };

  /// Partition of the job's tier with no *running-job* conflict
  /// throughout [t, t + walltime), or -1.
  [[nodiscard]] int free_partition_during(const Job& job, SimTime t) const;

  /// Peak node usage (running + committed) over [t, t + duration).
  [[nodiscard]] NodeCount peak_usage(SimTime t, Duration duration) const;

  [[nodiscard]] bool feasible_at(const Job& job, SimTime t, NodeCount occ) const;

  const PartitionMachine* machine_;  // non-owning; outlives the plan
  SimTime origin_;
  /// Concrete partition holds: running jobs plus hard commits.
  std::vector<MaskInterval> pinned_;
  /// Capacity ledger: every hold (running, hard, soft) contributes here.
  std::vector<CapacityInterval> committed_;
  int last_placement_ = -1;
};

}  // namespace amjs
