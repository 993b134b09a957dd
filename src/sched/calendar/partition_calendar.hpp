// Incremental calendar over a PartitionMachine: persistent partition /
// capacity holds for running jobs, updated by start/finish deltas instead
// of re-derived from the allocation table every pass.
#pragma once

#include <vector>

#include "platform/partition.hpp"
#include "sched/calendar/calendar.hpp"

namespace amjs {

class PartitionCalendarPlan;

class PartitionCalendar final : public PlanProvider {
 public:
  explicit PartitionCalendar(const PartitionMachine& machine) : machine_(&machine) {}

  [[nodiscard]] std::unique_ptr<Plan> plan(SimTime now) override;
  void on_job_start(const Job& job, SimTime now) override;
  void on_job_finish(JobId job, SimTime now) override;
  void resync() override;

 private:
  friend class PartitionCalendarPlan;

  /// One running job's hold: a concrete partition (contiguity) plus its
  /// node occupancy (capacity), both over [start, end).
  struct Hold {
    JobId job;
    SimTime start;
    SimTime end;
    int partition;  // index into the machine's partitions()
    NodeCount occupied;
  };

  /// One tier's view of the timeline, built when a query first reaches
  /// the tier after a timeline build (blocked_from empty until then); a
  /// pass touches only the tiers it asks about.
  struct TierTable {
    /// blocked_from[i]: OR of the machine's tier_conflicts over the holds
    /// with end >= ends[i] — the tier positions a start in
    /// [ends[i-1], ends[i]) cannot use whatever the overlays. The last
    /// entry, index ends.size(), is past every hold and empty.
    std::vector<PartitionMachine::PositionSet> blocked_from;
    /// First index whose blocked set leaves a tier position clear. Blocked
    /// sets only shrink along the timeline, so every earlier index is
    /// fully blocked by the base alone, and no overlay can make a start
    /// before ends[open_from - 1] feasible.
    std::size_t open_from = 0;
  };

  /// Derived timeline over the base holds, rebuilt after the hold set
  /// changes. Every base hold starts at or before the plan origin, so for
  /// any query time t >= origin the holds overlapping [t, anything) are
  /// exactly the holds whose end exceeds t — a suffix of the end-sorted
  /// hold list, starting at timeline index i = index_after(t). The
  /// aggregates a query needs over that suffix are computed once per
  /// build:
  ///   * occupied_from[i] = sum of their node occupancies (base capacity
  ///     usage at such a start; non-increasing in time, so it is also the
  ///     base's peak over any window starting there);
  ///   * tiers[tier].blocked_from[i], the tier positions they block.
  /// Index ends.size() stands for "past every hold": nothing blocked,
  /// nothing occupied. A query finds its index once and reads every
  /// aggregate at it: find_start carries the index along its candidate
  /// walk, and each overlay entry records its start's index at commit.
  struct Timeline {
    std::vector<SimTime> ends;  // distinct hold ends, ascending
    std::vector<NodeCount> occupied_from;
    std::vector<TierTable> tiers;  // one per machine tier

    /// Index of the first end after t: the suffix of holds live at t.
    [[nodiscard]] std::size_t index_after(SimTime t) const;
  };

  struct Delta {
    enum class Kind : std::uint8_t { kStart, kFinish } kind;
    JobId job;
    SimTime at;
    // kStart only: placement captured from the machine at delta time (the
    // allocation may be gone again by the time the delta is applied).
    SimTime end = 0;
    int partition = -1;
    NodeCount occupied = 0;
  };

  /// The timeline for the current hold set (rebuilt lazily after deltas).
  [[nodiscard]] const Timeline& timeline();
  /// The tier's table in the timeline() already built, building it first
  /// if no query has needed it since the timeline was built.
  [[nodiscard]] const TierTable& tier_table(std::size_t tier);

  void apply_pending();
  void compact(SimTime now);
  void rebuild(SimTime now);
  void build_timeline();
  void build_tier_table(std::size_t tier);

  const PartitionMachine* machine_;
  bool synced_ = false;
  /// Base holds in ascending end order (ties in insertion order): deltas
  /// insert at the upper bound of their end and erase in place, so the
  /// timeline is one suffix pass and compaction drops a prefix.
  std::vector<Hold> holds_;
  std::vector<Delta> pending_;
  Timeline timeline_;
  bool timeline_dirty_ = true;
  /// Bumps on any structural change incl. compaction (view invalidation).
  std::uint64_t gen_ = 0;
};

/// Plan view over a PartitionCalendar: shared immutable base holds plus
/// private overlays of this pass's commitments (pinned for hard commits,
/// capacity for both hard and soft). clone() copies the overlays only.
class PartitionCalendarPlan final : public Plan {
 public:
  PartitionCalendarPlan(PartitionCalendar& base, SimTime now);

  [[nodiscard]] std::unique_ptr<Plan> clone() const override;
  [[nodiscard]] SimTime find_start(const Job& job, SimTime earliest) const override;
  [[nodiscard]] bool fits_at(const Job& job, SimTime t) const override;
  void commit(const Job& job, SimTime start) override;
  void commit_soft(const Job& job, SimTime start) override;
  [[nodiscard]] int last_placement() const override { return last_placement_; }
  void undo_last_commit() override;

 private:
  /// A hard commit's partition over [start, end).
  struct PinnedInterval {
    SimTime start;
    SimTime end;
    int partition;  // index into the machine's partitions()
  };
  struct CapacityInterval {
    SimTime start;
    SimTime end;
    NodeCount occupied;
    /// Timeline index_after(start), fixed for the view's pass.
    std::size_t start_index;
  };

  /// A job's tier resolved once per query: index into machine tiers(),
  /// that tier's partition list, and its table in the current timeline.
  struct TierRef {
    std::size_t tier;
    const std::vector<int>* parts;
    const PartitionCalendar::TierTable* table;
  };
  [[nodiscard]] TierRef tier_ref(const Job& job) const;

  // The queries below take `bi`, the timeline index_after(t) of their
  // start t, from their caller instead of searching for it again.
  [[nodiscard]] int free_partition_in(const TierRef& tr, SimTime t, SimTime end,
                                      std::size_t bi) const;
  [[nodiscard]] NodeCount peak_usage(SimTime t, Duration duration,
                                     std::size_t bi) const;
  [[nodiscard]] bool feasible_in(const TierRef& tr, Duration walltime,
                                 NodeCount occ, SimTime t, std::size_t bi) const;

  PartitionCalendar* base_;  // non-owning; outlives the view
  SimTime origin_;
  std::uint64_t base_gen_;  // staleness check (debug)
  /// This pass's hard commits (concrete partitions).
  std::vector<PinnedInterval> pinned_ovl_;
  /// This pass's capacity commitments (hard and soft). A hard commit adds
  /// one entry here and one in pinned_ovl_ with the same span, so the two
  /// are equally long exactly when the view holds no soft commit.
  std::vector<CapacityInterval> cap_ovl_;
  /// Reused overlay-end buffer for find_start (empty between calls,
  /// so clones copy nothing; capacity persists across the whole search).
  mutable std::vector<SimTime> scratch_ends_;
  int last_placement_ = -1;
};

}  // namespace amjs
