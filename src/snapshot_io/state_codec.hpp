// Polymorphic state codec: tagged serialization of the opaque
// MachineState / SchedulerState hierarchies.
//
// The snapshot holds machine and scheduler state as abstract base
// pointers; on disk each is a `tag` string followed by a tag-specific
// payload. A fixed table per hierarchy maps concrete types (probed via
// dynamic_cast on encode) to tags and decode functions.
//
// Tags: "flat.v1", "partition.v1" (machines); "metric_aware.v1",
// "adaptive.v1", "what_if.v1" (schedulers). A null state writes the empty
// tag. Wrapper states (adaptive, what-if) encode their inner state through
// the same table, so nesting composes.
#pragma once

#include <memory>

#include "platform/machine.hpp"
#include "sim/simulator.hpp"
#include "snapshot_io/binio.hpp"
#include "util/result.hpp"

namespace amjs::snapshot_io {

/// Writes `tag` + payload; null writes the empty tag. Fails if no codec
/// in the table matches the concrete type.
[[nodiscard]] Status write_machine_state(ByteWriter& w, const MachineState* state);
[[nodiscard]] Status write_scheduler_state(ByteWriter& w, const SchedulerState* state);

/// Reads a tagged state; the empty tag yields nullptr. Fails on an
/// unknown tag or a malformed payload.
[[nodiscard]] Result<std::unique_ptr<MachineState>> read_machine_state(ByteReader& r);
[[nodiscard]] Result<std::unique_ptr<SchedulerState>> read_scheduler_state(ByteReader& r);

}  // namespace amjs::snapshot_io
