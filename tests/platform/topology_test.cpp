// PartitionMachine across topology configurations (TEST_P): partition
// inventories, tier ladders, and allocation behaviour must be coherent
// for single-row, power-of-two-row, and odd-row (Intrepid-like) machines.
#include <gtest/gtest.h>

#include <numeric>
#include <set>

#include "platform/partition.hpp"

namespace amjs {
namespace {

Job make_job(JobId id, NodeCount nodes, Duration walltime = 600) {
  Job j;
  j.id = id;
  j.submit = 0;
  j.runtime = walltime;
  j.walltime = walltime;
  j.nodes = nodes;
  return j;
}

class TopologyTest : public ::testing::TestWithParam<PartitionConfig> {};

TEST_P(TopologyTest, TotalNodesMatchesConfig) {
  PartitionMachine m(GetParam());
  EXPECT_EQ(m.total_nodes(),
            GetParam().leaf_nodes * GetParam().row_leaves * GetParam().rows);
}

TEST_P(TopologyTest, TiersAreSortedAndBracketMachine) {
  PartitionMachine m(GetParam());
  const auto& tiers = m.tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_TRUE(std::is_sorted(tiers.begin(), tiers.end()));
  EXPECT_EQ(tiers.front(), GetParam().leaf_nodes);
  EXPECT_EQ(tiers.back(), m.total_nodes());
}

TEST_P(TopologyTest, PartitionsAreAlignedAndInBounds) {
  PartitionMachine m(GetParam());
  const int total_leaves = GetParam().row_leaves * GetParam().rows;
  for (const auto& p : m.partitions()) {
    EXPECT_GE(p.first_leaf, 0);
    EXPECT_LE(p.first_leaf + p.leaf_count, total_leaves);
    EXPECT_EQ(p.size, static_cast<NodeCount>(p.leaf_count) * GetParam().leaf_nodes);
    // Within-row partitions are aligned to their size.
    if (p.leaf_count <= GetParam().row_leaves) {
      EXPECT_EQ(p.first_leaf % p.leaf_count, 0) << p.name();
    }
  }
}

TEST_P(TopologyTest, SmallestTierCoversEveryLeafExactlyOnce) {
  PartitionMachine m(GetParam());
  const int total_leaves = GetParam().row_leaves * GetParam().rows;
  std::vector<int> cover(static_cast<std::size_t>(total_leaves), 0);
  for (const auto& p : m.partitions()) {
    if (p.leaf_count != 1) continue;
    ++cover[static_cast<std::size_t>(p.first_leaf)];
  }
  for (int c : cover) EXPECT_EQ(c, 1);
}

TEST_P(TopologyTest, CanFillMachineWithSmallestJobs) {
  PartitionMachine m(GetParam());
  const int total_leaves = GetParam().row_leaves * GetParam().rows;
  for (JobId id = 0; id < total_leaves; ++id) {
    EXPECT_TRUE(m.start(make_job(id, GetParam().leaf_nodes), 0)) << id;
  }
  EXPECT_EQ(m.busy_nodes(), m.total_nodes());
  EXPECT_FALSE(m.can_start(make_job(9999, GetParam().leaf_nodes)));
}

TEST_P(TopologyTest, FullMachineJobRunsAlone) {
  PartitionMachine m(GetParam());
  EXPECT_TRUE(m.start(make_job(0, m.total_nodes()), 0));
  EXPECT_FALSE(m.can_start(make_job(1, GetParam().leaf_nodes)));
  m.finish(0, 600);
  EXPECT_TRUE(m.can_start(make_job(1, GetParam().leaf_nodes)));
}

TEST_P(TopologyTest, OccupancyIsMonotoneInRequest) {
  PartitionMachine m(GetParam());
  NodeCount prev = 0;
  for (NodeCount request = 1; request <= m.total_nodes();
       request += std::max<NodeCount>(1, m.total_nodes() / 37)) {
    const NodeCount occ = m.occupancy(make_job(0, request));
    EXPECT_GE(occ, request);
    EXPECT_GE(occ, prev);
    prev = occ;
  }
}

PartitionConfig single_row() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 256;
  cfg.row_leaves = 8;
  cfg.rows = 1;
  return cfg;
}

PartitionConfig two_rows() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 512;
  cfg.row_leaves = 4;
  cfg.rows = 2;
  return cfg;
}

PartitionConfig four_rows() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 128;
  cfg.row_leaves = 16;
  cfg.rows = 4;
  return cfg;
}

PartitionConfig intrepid() { return PartitionConfig{}; }  // 5 rows (odd)

PartitionConfig three_rows() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 512;
  cfg.row_leaves = 2;
  cfg.rows = 3;  // odd but not the default
  return cfg;
}

INSTANTIATE_TEST_SUITE_P(Topologies, TopologyTest,
                         ::testing::Values(single_row(), two_rows(), four_rows(),
                                           intrepid(), three_rows()),
                         [](const auto& param) {
                           const auto& c = param.param;
                           return "L" + std::to_string(c.leaf_nodes) + "x" +
                                  std::to_string(c.row_leaves) + "x" +
                                  std::to_string(c.rows);
                         });

}  // namespace
}  // namespace amjs
