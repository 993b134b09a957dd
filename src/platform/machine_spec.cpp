#include "platform/machine_spec.hpp"

#include <algorithm>
#include <limits>

#include "util/fmt.hpp"

namespace amjs {
namespace {

/// Are the allocations' jobs strictly ascending (so each appears once)?
template <typename Alloc, typename JobOf>
bool ascending_jobs(const std::vector<Alloc>& allocs, JobOf job_of) {
  return std::ranges::adjacent_find(allocs, std::ranges::greater_equal{}, job_of) ==
         allocs.end();
}

}  // namespace

MachineSpec MachineSpec::flat(NodeCount nodes) {
  MachineSpec spec;
  spec.kind = Kind::kFlat;
  spec.nodes = nodes;
  return spec;
}

MachineSpec MachineSpec::partitioned(PartitionConfig config) {
  MachineSpec spec;
  spec.kind = Kind::kPartition;
  spec.partition = config;
  return spec;
}

bool MachineSpec::valid() const {
  switch (kind) {
    case Kind::kFlat:
      return nodes > 0;
    case Kind::kPartition: {
      // Products in 64 bits and the node total checked against overflow:
      // a wrapped product must never pass for a small machine.
      const std::int64_t row_leaves = partition.row_leaves;
      const std::int64_t leaves = row_leaves * partition.rows;
      return partition.leaf_nodes > 0 && row_leaves > 0 &&
             (row_leaves & (row_leaves - 1)) == 0 && partition.rows > 0 &&
             leaves <= PartitionMachine::kMaxLeaves &&
             partition.leaf_nodes <= std::numeric_limits<NodeCount>::max() / leaves;
    }
  }
  return false;
}

bool MachineSpec::accepts(const MachineState& state) const {
  if (!valid()) return false;
  switch (kind) {
    case Kind::kFlat: {
      const auto* flat = dynamic_cast<const FlatMachineState*>(&state);
      return flat != nullptr && flat->total == nodes &&
             ascending_jobs(flat->allocs, &RunningAlloc::job);
    }
    case Kind::kPartition: {
      const auto* part = dynamic_cast<const PartitionMachineState*>(&state);
      if (part == nullptr || part->config.leaf_nodes != partition.leaf_nodes ||
          part->config.row_leaves != partition.row_leaves ||
          part->config.rows != partition.rows) {
        return false;
      }
      const auto count =
          static_cast<int>(PartitionMachine(partition).partitions().size());
      using LiveAlloc = PartitionMachine::LiveAlloc;
      return ascending_jobs(part->allocs,
                            [](const LiveAlloc& live) { return live.alloc.job; }) &&
             std::ranges::all_of(part->allocs, [count](const LiveAlloc& live) {
               return live.partition >= 0 && live.partition < count;
             });
    }
  }
  return false;
}

std::unique_ptr<Machine> MachineSpec::make() const {
  switch (kind) {
    case Kind::kFlat:
      return std::make_unique<FlatMachine>(nodes);
    case Kind::kPartition:
      return std::make_unique<PartitionMachine>(partition);
  }
  return nullptr;
}

std::function<std::unique_ptr<Machine>()> MachineSpec::factory() const {
  return [spec = *this] { return spec.make(); };
}

std::string MachineSpec::label() const {
  switch (kind) {
    case Kind::kFlat:
      return format("flat:{}", nodes);
    case Kind::kPartition:
      return format("partition:{}x{}x{}", partition.leaf_nodes,
                    partition.row_leaves, partition.rows);
  }
  return "invalid";
}

}  // namespace amjs
