// Trace-context wire block (DESIGN.md "Distributed observability"):
// lossless round-trips, its place in the request envelope, and the
// corruption matrix — truncation at every prefix, a stale block version,
// bit flips after sealing — must all surface as clean errors, never a
// wrong decode.
#include "obs/context.hpp"

#include <gtest/gtest.h>

#include <string>

#include "snapshot_io/binio.hpp"
#include "twinsvc/frame.hpp"

namespace amjs::twinsvc {
namespace {

using snapshot_io::ByteReader;
using snapshot_io::ByteWriter;

obs::TraceContext sample_context() {
  obs::TraceContext ctx;
  ctx.run_id = 77;
  ctx.request_id = 123456789;
  ctx.ordinal = 3;
  ctx.parent_span = obs::dispatch_span_id(ctx.request_id, ctx.ordinal);
  return ctx;
}

TEST(TraceContext, WireRoundTripIsLossless) {
  const obs::TraceContext ctx = sample_context();
  ByteWriter w;
  write_trace_context(w, ctx);
  ASSERT_EQ(w.data().size(), kTraceContextEncodedSize);

  ByteReader r(w.data());
  const auto decoded = read_trace_context(r);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value(), ctx);
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(TraceContext, EmptyContextRoundTrips) {
  ByteWriter w;
  write_trace_context(w, obs::TraceContext{});
  ByteReader r(w.data());
  const auto decoded = read_trace_context(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(TraceContext, TruncationAtEveryPrefixFailsCleanly) {
  ByteWriter w;
  write_trace_context(w, sample_context());
  const std::string& bytes = w.data();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    ByteReader r(std::string_view(bytes).substr(0, len));
    EXPECT_FALSE(read_trace_context(r).ok()) << "prefix length " << len;
  }
}

TEST(TraceContext, StaleBlockVersionIsRejectedByName) {
  ByteWriter w;
  write_trace_context(w, sample_context());
  std::string bytes = w.data();
  bytes[0] = static_cast<char>(obs::kTraceContextVersion + 1);
  ByteReader r(bytes);
  const auto decoded = read_trace_context(r);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("trace-context version"),
            std::string::npos)
      << decoded.error().to_string();
}

TEST(TraceContext, BitFlipInsideThePatchedBlockFailsTheFrameCrc) {
  // Each attempt stamps its context into a fresh envelope around the same
  // body; the block sits at a fixed offset and the frame CRC covers it.
  SvcRequest request;
  request.request_id = 42;
  request.context = sample_context();
  request.body = "payload-tail";
  const std::string frame = encode_svc_request(request);
  const auto decoded = decode_frame(frame);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const auto got = decode_svc_request(decoded.value().payload);
  ASSERT_TRUE(got.ok()) << got.error().to_string();
  EXPECT_EQ(got.value().context, request.context);
  EXPECT_EQ(got.value().body, "payload-tail");
  for (std::size_t i = 0; i < kTraceContextEncodedSize; ++i) {
    std::string corrupt = frame;
    const std::size_t at = kFrameHeaderSize + kTraceContextPayloadOffset + i;
    corrupt[at] = static_cast<char>(corrupt[at] ^ 0x40);
    EXPECT_FALSE(decode_frame(corrupt).ok()) << "flipped context byte " << i;
  }
}

TEST(TraceContext, DispatchSpanIdsAreDistinctAcrossAttempts) {
  EXPECT_NE(obs::dispatch_span_id(7, 1), obs::dispatch_span_id(7, 2));
  EXPECT_NE(obs::dispatch_span_id(7, 1), obs::dispatch_span_id(8, 1));
  EXPECT_EQ(obs::dispatch_span_id(7, 1), (7u << 16) | 1u);
}

TEST(TraceContext, ArgsRoundTripThroughTraceEvents) {
  const obs::TraceContext ctx = sample_context();
  std::vector<obs::TraceArg> args;
  obs::append_context_args(args, ctx);
  ASSERT_EQ(args.size(), 4u);
  const auto recovered = obs::context_from_args(args);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, ctx);

  std::vector<obs::TraceArg> none;
  obs::append_context_args(none, obs::TraceContext{});
  EXPECT_TRUE(none.empty());
  EXPECT_FALSE(obs::context_from_args(none).has_value());
}

}  // namespace
}  // namespace amjs::twinsvc
