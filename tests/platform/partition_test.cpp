#include "platform/partition.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "sched/calendar/calendar.hpp"

namespace amjs {
namespace {

Job make_job(JobId id, NodeCount nodes, Duration walltime) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

PartitionConfig tiny_config() {
  // 4 leaves of 512 per row, 2 rows -> 4096 nodes total.
  PartitionConfig cfg;
  cfg.leaf_nodes = 512;
  cfg.row_leaves = 4;
  cfg.rows = 2;
  return cfg;
}

TEST(PartitionMachineTest, IntrepidDefaultsTotal) {
  PartitionMachine m;
  EXPECT_EQ(m.total_nodes(), 40960);
  // Tier ladder includes the BG/P sizes.
  const std::set<NodeCount> tiers(m.tiers().begin(), m.tiers().end());
  for (const NodeCount s : {512, 1024, 2048, 4096, 8192, 16384, 32768, 40960}) {
    EXPECT_TRUE(tiers.contains(s)) << s;
  }
}

TEST(PartitionMachineTest, TinyTopologyPartitionInventory) {
  PartitionMachine m(tiny_config());
  EXPECT_EQ(m.total_nodes(), 4096);
  // Per row: 4x512 + 2x1024 + 1x2048 = 7; two rows = 14; plus one 2-row
  // (4096) partition = 15.
  EXPECT_EQ(m.partitions().size(), 15u);
}

TEST(PartitionMachineTest, OccupancyRoundsToTier) {
  PartitionMachine m(tiny_config());
  EXPECT_EQ(m.occupancy(make_job(0, 1, 60)), 512);
  EXPECT_EQ(m.occupancy(make_job(0, 512, 60)), 512);
  EXPECT_EQ(m.occupancy(make_job(0, 513, 60)), 1024);
  EXPECT_EQ(m.occupancy(make_job(0, 1500, 60)), 2048);
  EXPECT_EQ(m.occupancy(make_job(0, 4096, 60)), 4096);
}

TEST(PartitionMachineTest, FitsBoundary) {
  PartitionMachine m(tiny_config());
  EXPECT_TRUE(m.fits(make_job(0, 4096, 60)));
  EXPECT_FALSE(m.fits(make_job(0, 4097, 60)));
}

TEST(PartitionMachineTest, StartOccupiesWholePartition) {
  PartitionMachine m(tiny_config());
  ASSERT_TRUE(m.start(make_job(0, 600, 600), 0));  // 1024-tier
  EXPECT_EQ(m.busy_nodes(), 1024);
}

TEST(PartitionMachineTest, BlockingAcrossTiers) {
  PartitionMachine m(tiny_config());
  // Fill all four 512-leaves of row 0 and row 1 with eight 512 jobs.
  for (JobId id = 0; id < 8; ++id) {
    ASSERT_TRUE(m.start(make_job(id, 512, 600), 0)) << id;
  }
  EXPECT_EQ(m.busy_nodes(), 4096);
  // Nothing else can start anywhere.
  EXPECT_FALSE(m.can_start(make_job(100, 512, 60)));
  EXPECT_FALSE(m.can_start(make_job(101, 4096, 60)));

  // Free one leaf: a 512 job can start, a 1024 job only if its buddy leaf
  // is also free.
  m.finish(0, 600);
  EXPECT_TRUE(m.can_start(make_job(102, 512, 60)));
  EXPECT_FALSE(m.can_start(make_job(103, 1024, 60)));
  m.finish(1, 600);
  // Leaves 0 and 1 both free only if the buddy heuristic placed jobs 0,1
  // adjacently; verify via busy count instead.
  EXPECT_EQ(m.busy_nodes(), 3072);
}

TEST(PartitionMachineTest, BuddyHeuristicPreservesLargeBlocks) {
  PartitionMachine m(tiny_config());
  // Two 512 jobs should pack into the same 1024 block, leaving a free
  // 1024 partition available.
  ASSERT_TRUE(m.start(make_job(0, 512, 600), 0));
  ASSERT_TRUE(m.start(make_job(1, 512, 600), 0));
  EXPECT_TRUE(m.can_start(make_job(2, 1024, 60)));
  EXPECT_TRUE(m.can_start(make_job(3, 2048, 60)));
}

TEST(PartitionMachineTest, FragmentationBlocksDespiteIdleNodes) {
  PartitionConfig cfg = tiny_config();
  PartitionMachine m(cfg);
  // Occupy one 512 leaf in each row: 3072 idle nodes remain but no free
  // 4096 partition (the full-machine partition overlaps both rows).
  ASSERT_TRUE(m.start(make_job(0, 512, 600), 0));
  // Force second row by filling row 0 entirely.
  ASSERT_TRUE(m.start(make_job(1, 2048, 600), 0));  // rest of row 0... (1024+512 free)
  const Job big = make_job(2, 4096, 60);
  EXPECT_GT(m.idle_nodes(), 0);
  EXPECT_FALSE(m.can_start(big));
}

TEST(PartitionMachineTest, FinishFreesExactly) {
  PartitionMachine m(tiny_config());
  ASSERT_TRUE(m.start(make_job(0, 2048, 600), 0));
  ASSERT_TRUE(m.start(make_job(1, 512, 600), 0));
  m.finish(0, 300);
  EXPECT_EQ(m.busy_nodes(), 512);
  EXPECT_TRUE(m.can_start(make_job(2, 2048, 60)));
}

TEST(PartitionMachineTest, ResetClears) {
  PartitionMachine m(tiny_config());
  ASSERT_TRUE(m.start(make_job(0, 4096, 600), 0));
  m.reset();
  EXPECT_EQ(m.busy_nodes(), 0);
  EXPECT_TRUE(m.can_start(make_job(1, 4096, 60)));
}

TEST(PartitionPlanTest, EmptyStartsNow) {
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(50);
  EXPECT_EQ(plan->find_start(make_job(0, 4096, 600), 50), 50);
}

TEST(PartitionPlanTest, WaitsForTierRelease) {
  PartitionMachine m(tiny_config());
  // Fill the machine with one full-machine job predicted to end at 900.
  ASSERT_TRUE(m.start(make_job(0, 4096, 900), 0));
  const auto calendar = make_plan_provider(m);
  const auto plan = calendar->plan(100);
  EXPECT_EQ(plan->find_start(make_job(1, 512, 600), 100), 900);
}

TEST(PartitionPlanTest, CommitBlocksOverlappingPartitions) {
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit(make_job(0, 4096, 500), 0);  // whole machine [0,500)
  EXPECT_EQ(plan->find_start(make_job(1, 512, 100), 0), 500);
}

TEST(PartitionPlanTest, DisjointPartitionsCoexist) {
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit(make_job(0, 2048, 500), 0);
  // Another 2048 fits in the other row concurrently.
  EXPECT_EQ(plan->find_start(make_job(1, 2048, 500), 0), 0);
  plan->commit(make_job(1, 2048, 500), 0);
  // Now a third 2048 must wait.
  EXPECT_EQ(plan->find_start(make_job(2, 2048, 100), 0), 500);
}

TEST(PartitionPlanTest, CloneIsIndependent) {
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  auto copy = plan->clone();
  copy->commit(make_job(0, 4096, 1000), 0);
  EXPECT_EQ(plan->find_start(make_job(1, 512, 60), 0), 0);
  EXPECT_EQ(copy->find_start(make_job(1, 512, 60), 0), 1000);
}

TEST(PartitionPlanTest, SoftCommitDoesNotPinAPartition) {
  // Capacity shadow: a soft-committed 2048 job blocks *capacity* but no
  // specific partition, so a same-time 2048 start can use either row.
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit_soft(make_job(0, 2048, 500), 0);
  EXPECT_EQ(plan->last_placement(), -1);
  // One more 2048 fits (capacity 4096), a third does not.
  EXPECT_TRUE(plan->fits_at(make_job(1, 2048, 500), 0));
  plan->commit_soft(make_job(1, 2048, 500), 0);
  EXPECT_FALSE(plan->fits_at(make_job(2, 2048, 500), 0));
}

TEST(PartitionPlanTest, HardCommitPinsAndReportsPlacement) {
  PartitionMachine m(tiny_config());
  const auto calendar = make_plan_provider(m);
  auto plan = calendar->plan(0);
  plan->commit(make_job(0, 2048, 500), 0);
  const int placement = plan->last_placement();
  ASSERT_GE(placement, 0);
  EXPECT_EQ(m.partitions()[static_cast<std::size_t>(placement)].size, 2048);
  // The pinned hint is honored by the live machine.
  EXPECT_TRUE(m.start(make_job(0, 2048, 500), 0, placement));
  const auto running = m.running();
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].occupied, 2048);
}

TEST(PartitionMachineTest, StaleHintFallsBackToMachineChoice) {
  PartitionMachine m(tiny_config());
  // Occupy the partition the hint points at; start must still succeed by
  // falling back to the machine's own pick.
  // On an empty machine the buddy heuristic picks the first partition of
  // the tier, so job 0 holds tier_partitions(...)[0].
  const int taken = m.tier_partitions(make_job(0, 2048, 500)).front();
  ASSERT_TRUE(m.start(make_job(0, 2048, 500), 0));
  EXPECT_TRUE(m.start(make_job(1, 2048, 500), 0, taken));
  EXPECT_EQ(m.busy_nodes(), 4096);
}

TEST(PartitionMachineTest, TierConflictsMatchLeafMasks) {
  // The conflict table is built from leaf ranges by shifts; check it
  // against the leaf masks on three topologies. The Intrepid default (5
  // rows) and {512, 4, 3} each have a one-partition tier that is not the
  // full machine (4 rows of 5, 2 rows of 3); {512, 8, 2} has a full
  // machine that is a power-of-two row group.
  const PartitionConfig intrepid;
  for (const PartitionConfig& cfg :
       {intrepid, PartitionConfig{512, 4, 3}, PartitionConfig{512, 8, 2}}) {
    PartitionMachine m(cfg);
    const int total_leaves = cfg.row_leaves * cfg.rows;
    int lone_partial_tiers = 0;
    for (std::size_t tier = 0; tier < m.tiers().size(); ++tier) {
      const auto& list = m.tier_partitions(tier);
      if (list.size() == 1 &&
          m.partitions()[static_cast<std::size_t>(list.front())].leaf_count != total_leaves) {
        ++lone_partial_tiers;
      }
      for (int p = 0; p < static_cast<int>(m.partitions().size()); ++p) {
        const auto& conflicts = m.tier_conflicts(p, tier);
        for (std::size_t pos = 0; pos < 128; ++pos) {
          const bool meets = pos < list.size() &&
                             (m.partition_mask(list[pos]) & m.partition_mask(p)).any();
          const std::uint64_t word = pos < 64 ? conflicts.lo : conflicts.hi;
          EXPECT_EQ(((word >> (pos % 64)) & 1U) != 0, meets)
              << "rows " << cfg.rows << " row_leaves " << cfg.row_leaves << " tier "
              << tier << " partition " << p << " position " << pos;
        }
      }
    }
    EXPECT_EQ(lone_partial_tiers, cfg.rows == 2 ? 0 : 1) << "rows " << cfg.rows;
  }
}

TEST(PartitionMachineTest, TierOfMatchesLowerBound) {
  // tier_of reads a table indexed by leaf count; it must name the first
  // tier at least as large as the request, for every request the machine
  // fits, on the topologies of TierConflictsMatchLeafMasks.
  const PartitionConfig intrepid;
  for (const PartitionConfig& cfg :
       {intrepid, PartitionConfig{512, 4, 3}, PartitionConfig{512, 8, 2}}) {
    PartitionMachine m(cfg);
    const auto& tiers = m.tiers();
    for (NodeCount nodes = 1; nodes <= m.total_nodes(); ++nodes) {
      const auto expected = static_cast<std::size_t>(
          std::lower_bound(tiers.begin(), tiers.end(), nodes) - tiers.begin());
      ASSERT_EQ(m.tier_of(make_job(0, nodes, 60)), expected)
          << "rows " << cfg.rows << " row_leaves " << cfg.row_leaves << " nodes "
          << nodes;
    }
  }
}

TEST(PartitionDefTest, NameContainsRange) {
  PartitionMachine m(tiny_config());
  const auto& p = m.partitions().front();
  EXPECT_NE(p.name().find("P["), std::string::npos);
}

}  // namespace
}  // namespace amjs
