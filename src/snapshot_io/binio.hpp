// Binary encoding primitives for the snapshot codec.
//
// All multi-byte values are little-endian and fixed-width; doubles travel
// as their IEEE-754 bit pattern (std::bit_cast), so a decoded snapshot is
// bit-identical to the encoded one — the property the resume determinism
// guarantee rests on. ByteReader returns Result on every read, so a
// truncated or corrupted payload surfaces as an Error with an offset
// context, never as UB.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.hpp"
#include "util/timeseries.hpp"
#include "util/types.hpp"

namespace amjs::snapshot_io {

/// Largest time or duration a decoder accepts from a peer or a file (a
/// job's submit, runtime and walltime, a twin horizon, a snapshot's now):
/// 2^36 s, over 2,000 years. Schedules add such values up (t + walltime in
/// the plans, now + horizon in the twin); bounding each keeps those sums
/// over one frame's jobs far below INT64_MAX (twinsvc/frame.hpp asserts
/// it against the frame size cap).
inline constexpr std::int64_t kMaxWireTime = std::int64_t{1} << 36;

/// CRC-32 (IEEE 802.3 polynomial, the zlib one) over `data`.
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/// Append-only encoder into an owned byte string.
class ByteWriter {
 public:
  void u8(std::uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s);
  void bytes(std::string_view s) { out_.append(s); }
  void reserve(std::size_t n) { out_.reserve(n); }

  [[nodiscard]] const std::string& data() const { return out_; }
  [[nodiscard]] std::string take() { return std::move(out_); }
  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  std::string out_;
};

/// Cursor over an immutable byte view; every read is bounds-checked and
/// failure carries the byte offset for diagnostics.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  [[nodiscard]] Result<std::uint8_t> u8();
  [[nodiscard]] Result<std::uint32_t> u32();
  [[nodiscard]] Result<std::uint64_t> u64();
  [[nodiscard]] Result<std::int64_t> i64();
  [[nodiscard]] Result<double> f64();
  [[nodiscard]] Result<bool> boolean();
  [[nodiscard]] Result<std::string> str();

  /// A size/count field about to drive an allocation: rejects values past
  /// `max` (a corrupt length must not become a 2^60-element reserve).
  [[nodiscard]] Result<std::uint64_t> count(std::uint64_t max);

  /// A time or duration field: rejects values outside [0, kMaxWireTime].
  [[nodiscard]] Result<std::int64_t> time();

  [[nodiscard]] std::size_t offset() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const { return pos_ == data_.size(); }

 private:
  [[nodiscard]] Error truncated(std::size_t want) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- Series helpers shared by the snapshot and state codecs. -----------

void write_series(ByteWriter& w, const SampledSeries& series);
[[nodiscard]] Result<SampledSeries> read_series(ByteReader& r);

void write_step_series(ByteWriter& w, const StepSeries& series);
[[nodiscard]] Result<StepSeries> read_step_series(ByteReader& r);

}  // namespace amjs::snapshot_io
