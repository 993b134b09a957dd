#include "snapshot_io/binio.hpp"

#include <array>
#include <vector>

#include "util/fmt.hpp"

namespace amjs::snapshot_io {
namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1U) != 0 ? 0xEDB88320U ^ (c >> 1U) : c >> 1U;
    }
    table[i] = c;
  }
  return table;
}

}  // namespace

std::uint32_t crc32(std::string_view data) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFU;
  for (const char ch : data) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFU] ^ (c >> 8U);
  }
  return c ^ 0xFFFFFFFFU;
}

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::str(std::string_view s) {
  u64(s.size());
  bytes(s);
}

Error ByteReader::truncated(std::size_t want) const {
  return Error{amjs::format("truncated: need {} bytes at offset {}, have {}",
                            want, pos_, remaining())};
}

Result<std::uint8_t> ByteReader::u8() {
  if (remaining() < 1) return truncated(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

Result<std::uint32_t> ByteReader::u32() {
  if (remaining() < 4) return truncated(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<std::uint64_t> ByteReader::u64() {
  if (remaining() < 8) return truncated(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[pos_ + static_cast<std::size_t>(i)]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::int64_t> ByteReader::i64() {
  auto v = u64();
  if (!v) return v.error();
  return static_cast<std::int64_t>(v.value());
}

Result<double> ByteReader::f64() {
  auto v = u64();
  if (!v) return v.error();
  return std::bit_cast<double>(v.value());
}

Result<bool> ByteReader::boolean() {
  auto v = u8();
  if (!v) return v.error();
  if (v.value() > 1) {
    return Error{amjs::format("bad boolean {} at offset {}", v.value(), pos_ - 1)};
  }
  return v.value() == 1;
}

Result<std::string> ByteReader::str() {
  auto len = count(remaining());
  if (!len) return len.error();
  // count() capped the length against remaining() as measured *before* it
  // consumed its own 8-byte field, so values up to 8 past the true end
  // pass the cap. Re-check against what is actually left; otherwise
  // substr would clamp silently and pos_ would run past the buffer,
  // underflowing remaining() for every later read.
  if (len.value() > remaining()) {
    return truncated(static_cast<std::size_t>(len.value()));
  }
  std::string s(data_.substr(pos_, len.value()));
  pos_ += len.value();
  return s;
}

Result<std::uint64_t> ByteReader::count(std::uint64_t max) {
  auto v = u64();
  if (!v) return v.error();
  if (v.value() > max) {
    return Error{amjs::format("implausible count {} at offset {} (cap {})",
                              v.value(), pos_ - 8, max)};
  }
  return v;
}

Result<std::int64_t> ByteReader::time() {
  auto v = i64();
  if (!v) return v.error();
  if (v.value() < 0 || v.value() > kMaxWireTime) {
    return Error{amjs::format("time {} at offset {} outside [0, {}]", v.value(),
                              pos_ - 8, kMaxWireTime)};
  }
  return v;
}

void write_series(ByteWriter& w, const SampledSeries& series) {
  w.u64(series.size());
  for (const TimePoint& p : series.points()) {
    w.i64(p.time);
    w.f64(p.value);
  }
}

Result<SampledSeries> read_series(ByteReader& r) {
  auto n = r.count(r.remaining());
  if (!n) return n.error();
  SampledSeries series;
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto time = r.i64();
    if (!time) return time.error();
    auto value = r.f64();
    if (!value) return value.error();
    series.add(time.value(), value.value());
  }
  return series;
}

void write_step_series(ByteWriter& w, const StepSeries& series) {
  w.f64(series.initial());
  w.u64(series.size());
  for (const TimePoint& p : series.points()) {
    w.i64(p.time);
    w.f64(p.value);
  }
}

Result<StepSeries> read_step_series(ByteReader& r) {
  auto initial = r.f64();
  if (!initial) return initial.error();
  auto n = r.count(r.remaining());
  if (!n) return n.error();
  std::vector<TimePoint> points;
  points.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto time = r.i64();
    if (!time) return time.error();
    auto value = r.f64();
    if (!value) return value.error();
    if (!points.empty() && time.value() < points.back().time) {
      return Error{"step series times not sorted",
                   amjs::format("point {} at offset {}", i, r.offset())};
    }
    points.push_back({time.value(), value.value()});
  }
  // Adopt verbatim: set() compacts no-op transitions, which would make a
  // decoded series re-encode differently from the original.
  return StepSeries::from_points(initial.value(), std::move(points));
}

}  // namespace amjs::snapshot_io
