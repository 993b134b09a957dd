// Durable snapshot container: SimSnapshot <-> versioned binary file.
//
// File layout (all little-endian):
//
//   offset  size  field
//   0       8     magic "AMJSSNAP"
//   8       4     format version (u32, currently 1)
//   12      8     payload length (u64)
//   20      n     payload (the serialized snapshot)
//   20+n    4     CRC-32 of the payload
//
// Reads verify magic, version, length, and CRC before decoding, so a
// truncated, bit-flipped, or foreign file is rejected with a descriptive
// Result error — never a garbage snapshot. The payload encodes every
// SimSnapshot field bit-exactly (doubles as IEEE-754 patterns, event seq
// numbers preserved), which is what makes a checkpointed-then-resumed run
// reproduce the uninterrupted run's SimResult bit for bit.
//
// Polymorphic machine/scheduler states go through the tag tables behind
// state_codec.hpp; snapshots of a policy without a codec there fail to
// serialize (cleanly, via Result).
#pragma once

#include <string>
#include <string_view>

#include "sim/snapshot.hpp"
#include "snapshot_io/binio.hpp"
#include "util/result.hpp"

namespace amjs::snapshot_io {

inline constexpr std::string_view kSnapshotMagic = "AMJSSNAP";
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Serialize to the container format (header + payload + CRC). Fails if a
/// held state has no registered codec, or if the snapshot is not a
/// metric-check snapshot (SnapshotPoint::kInstantEnd snapshots are for
/// in-process forks only; the format cannot tell them apart).
[[nodiscard]] Result<std::string> write_snapshot(const SimSnapshot& snapshot);

/// Parse a container produced by write_snapshot.
[[nodiscard]] Result<SimSnapshot> read_snapshot(std::string_view bytes);

/// write_snapshot + durable file write (temp file in the same directory,
/// then rename), so an interrupted checkpoint never leaves a half-written
/// file at `path`.
[[nodiscard]] Status write_snapshot_file(const SimSnapshot& snapshot,
                                         const std::string& path);

[[nodiscard]] Result<SimSnapshot> read_snapshot_file(const std::string& path);

/// Bit-exact SimResult encoding (the snapshot payload's result section,
/// exposed for the campaign wire format): doubles as IEEE-754 patterns, so
/// a result decoded on the far side of a socket is bit-identical to the
/// one the worker computed — what makes distributed campaign reports
/// byte-equal to single-process ones.
void write_sim_result(ByteWriter& w, const SimResult& result);
[[nodiscard]] Result<SimResult> read_sim_result(ByteReader& r);

}  // namespace amjs::snapshot_io
