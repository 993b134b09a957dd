// Trace-context propagation (distributed observability; see DESIGN.md
// "Distributed observability").
//
// A TraceContext names one dispatch attempt of one request inside one run:
// the driver stamps it onto the wire (every request envelope carries a
// fixed-size encoded block right after the request id), the server
// decodes it and tags the span it records while serving that request.
// Driver-side dispatch spans carry the same ids, so the two processes'
// JSONL traces join on (run_id, request_id, ordinal) with no shared clock
// and no shared process state.
//
// The obs layer owns only the in-memory type and the JSONL arg vocabulary;
// the wire encoding lives in twinsvc/frame (obs sits below snapshot_io in
// the dependency order and cannot use ByteWriter).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "obs/trace.hpp"

namespace amjs::obs {

/// Version tag of the encoded context block (twinsvc/frame rejects frames
/// carrying any other value, so both sides agree on the layout).
inline constexpr std::uint8_t kTraceContextVersion = 1;

/// JSONL arg keys carried by every context-stamped event. Shared between
/// the producers (twinsvc, campaign) and the consumers (analysis/merge).
inline constexpr std::string_view kArgTraceRun = "trace_run";
inline constexpr std::string_view kArgTraceReq = "trace_req";
inline constexpr std::string_view kArgTraceParent = "trace_parent";
inline constexpr std::string_view kArgTraceOrdinal = "trace_ord";
/// Driver-side dispatch spans additionally carry the span id they minted
/// (the worker's parent_span), so the merge tool can parent without
/// re-deriving ids.
inline constexpr std::string_view kArgTraceSpan = "trace_span";

struct TraceContext {
  /// Campaign/run id: one value per driver process run, chosen by the
  /// driver (--trace-run-id or derived from the spec); lets traces from
  /// unrelated runs share a directory without cross-joining.
  std::uint64_t run_id = 0;
  /// Request id: the twinsvc request id or campaign cell id.
  std::uint64_t request_id = 0;
  /// Span id of the driver-side dispatch span this attempt belongs to.
  std::uint64_t parent_span = 0;
  /// Attempt ordinal (1-based): distinguishes retries of the same request.
  std::uint32_t ordinal = 0;

  [[nodiscard]] bool empty() const {
    return run_id == 0 && request_id == 0 && parent_span == 0 && ordinal == 0;
  }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

/// Span id the driver mints for the `ordinal`-th dispatch of `request_id`.
/// Deterministic, unique within a run as long as ordinals stay < 2^16
/// (attempt counts are single digits in practice).
[[nodiscard]] constexpr std::uint64_t dispatch_span_id(std::uint64_t request_id,
                                                       std::uint32_t ordinal) {
  return (request_id << 16) | (ordinal & 0xffffu);
}

/// Append the context's trace_run/trace_req/trace_parent/trace_ord args.
/// No-op for an empty context, so untraced paths stay unchanged.
void append_context_args(std::vector<TraceArg>& args, const TraceContext& ctx);

/// Recover a context from a recorded event's args; nullopt when any of the
/// four keys is missing (i.e. the event was not context-stamped).
[[nodiscard]] std::optional<TraceContext> context_from_args(
    const std::vector<TraceArg>& args);

/// The int64 value of `key` in `args`, or nullopt when absent / non-int.
[[nodiscard]] std::optional<std::int64_t> int_arg(
    const std::vector<TraceArg>& args, std::string_view key);

/// The numeric value of `key` (int64 or double), or nullopt.
[[nodiscard]] std::optional<double> number_arg(const std::vector<TraceArg>& args,
                                               std::string_view key);

}  // namespace amjs::obs
