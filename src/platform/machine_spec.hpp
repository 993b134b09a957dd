// MachineSpec — a machine model as data.
//
// TwinEngine forks need a factory that builds machines identical in model
// and topology to the live one; a factory closure cannot cross a process
// boundary, so the twin service describes the machine as a value instead.
// The spec covers every model the framework ships (flat node pool,
// BG/P-style partition machine) and expands to a factory on either side
// of the service boundary — the definition of "the same machine" for a
// remote fork.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "platform/flat.hpp"
#include "platform/partition.hpp"

namespace amjs {

struct MachineSpec {
  enum class Kind : std::uint8_t { kFlat = 0, kPartition = 1 };

  Kind kind = Kind::kFlat;
  /// Flat model: node count.
  NodeCount nodes = 0;
  /// Partition model: topology (defaults = Intrepid).
  PartitionConfig partition;

  [[nodiscard]] static MachineSpec flat(NodeCount nodes);
  [[nodiscard]] static MachineSpec partitioned(PartitionConfig config = {});

  [[nodiscard]] bool valid() const;

  /// True when `state` was saved from a valid machine of this model and
  /// topology, with its allocations in strictly ascending job order (each
  /// job once) and on the machine's partitions, so a fresh machine's
  /// restore_state may take it.
  [[nodiscard]] bool accepts(const MachineState& state) const;

  /// A fresh machine of this model (empty allocation state).
  [[nodiscard]] std::unique_ptr<Machine> make() const;

  /// The factory form TwinEngine and WhatIfConfig consume.
  [[nodiscard]] std::function<std::unique_ptr<Machine>()> factory() const;

  /// "flat:512" / "partition:512x16x5", for logs and errors.
  [[nodiscard]] std::string label() const;
};

}  // namespace amjs
