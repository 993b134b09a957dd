// svc wire format — the one framed request/reply protocol every service
// client and the scheduler service speak (see DESIGN.md "Service").
//
// Every message on a connection is one frame:
//
//   offset  size  field
//   0       8     magic "AMJSTWSV"
//   8       4     protocol version (u32, currently 2)
//   12      1     frame type (u8, FrameType)
//   13      8     payload length (u64)
//   21      n     payload
//   21+n    4     CRC-32 of the payload
//
// A request is one kSvcRequest envelope naming a plugin and carrying an
// opaque, length-prefixed body; the server answers with exactly one
// kSvcReply, kSvcBusy or kError. Payload encodings reuse snapshot_io's
// ByteWriter / ByteReader primitives: little-endian fixed-width integers,
// bit-cast doubles (what makes remote verdicts and cells bit-identical
// to local ones), and bounds-checked reads, so a truncated or bit-flipped
// frame surfaces as a clean Result error — never OOB, never a wrong
// answer (the CRC catches payload corruption the structure checks
// cannot).
//
// Versioning: the header version is checked before anything else; a
// mismatch is an error that *names both versions*, so a stale server or
// client fails loudly. Plugin ids and candidate-family tags leave room
// to extend the protocol without breaking old peers on byte one.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "core/twin_backend.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "platform/machine_spec.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_io/binio.hpp"
#include "twin/twin.hpp"
#include "util/result.hpp"
#include "workload/trace.hpp"

namespace amjs::twinsvc {

inline constexpr std::string_view kFrameMagic = "AMJSTWSV";
inline constexpr std::uint32_t kProtocolVersion = 2;

/// magic + version + type + payload length.
inline constexpr std::size_t kFrameHeaderSize = 21;
/// Header + trailing CRC.
inline constexpr std::size_t kFrameOverhead = kFrameHeaderSize + 4;

/// Upper bound on a sane payload (a corrupt length field must not drive a
/// multi-gigabyte allocation).
inline constexpr std::uint64_t kMaxFramePayload = 256ull << 20;

/// No encoded job is smaller: six fixed i64 fields plus the user string's
/// length prefix (see write_job).
inline constexpr std::uint64_t kMinEncodedJobBytes = 7 * 8;

// One frame carries at most kMaxFramePayload / kMinEncodedJobBytes jobs,
// each time field at most snapshot_io::kMaxWireTime. Run back to back
// from the latest submit, they all end within (jobs + 1) x that bound,
// which must stay at least 16 times below INT64_MAX.
static_assert((kMaxFramePayload / kMinEncodedJobBytes + 1) *
                  static_cast<std::uint64_t>(snapshot_io::kMaxWireTime) <
              static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max() / 16));

enum class FrameType : std::uint8_t {
  kError = 4,  // server -> client, a rejected or failed request
  // Fleet telemetry (see DESIGN.md "Distributed observability"): a client
  // polls a server for a deterministic snapshot of its obs::Registry.
  // Stats requests are served out-of-band — no admission, no counters, no
  // fault-injection ordinal, so a final poll's snapshot is exactly what
  // the server itself writes via --obs-stats at exit.
  kStatsRequest = 7,  // client -> server, empty payload
  kStatsReply = 8,    // server -> client, encoded StatsSnapshot
  kSvcRequest = 9,    // client -> server, the request envelope
  kSvcReply = 10,     // server -> client, one reply per request
  kSvcBusy = 11,      // server -> client, shed by admission control
};

/// Request plugins. The id travels as a raw u32 so an unknown id decodes
/// cleanly and is rejected at dispatch (svc.rejected.plugin), not as a
/// frame error.
enum class Plugin : std::uint32_t {
  kSubmitJob = 1,     // projected start/wait from the calendar plan
  kWhatIf = 2,        // twin consult against the resident snapshot
  kTraceExplain = 3,  // run-diff of two JSONL traces
  kCampaign = 4,      // one campaign cell, delegated to run_cell
  kEval = 5,          // twin consult against a snapshot the request carries
  kReload = 100,      // admin: hot-swap the resident dataset
};

[[nodiscard]] const char* to_string(Plugin plugin);

/// Candidate family tag carried per candidate; the metric-aware scheduler
/// family is the only one. Unknown tags are rejected, not guessed at.
inline constexpr std::string_view kCandidateFamilyMetricAware = "metric_aware.v1";

// --- Trace-context block. ----------------------------------------------
// Fixed-size encoded form of obs::TraceContext, carried by every request
// envelope right after the request id (payload offset 8):
//
//   offset  size  field
//   0       1     context version (u8, obs::kTraceContextVersion)
//   1       8     run id (u64)
//   9       8     request id (u64)
//   17      8     parent span id (u64)
//   25      4     attempt ordinal (u32)

inline constexpr std::size_t kTraceContextEncodedSize = 1 + 8 + 8 + 8 + 4;
/// Offset of the context block within a request envelope's payload.
inline constexpr std::size_t kTraceContextPayloadOffset = 8;

void write_trace_context(snapshot_io::ByteWriter& w,
                         const obs::TraceContext& ctx);
[[nodiscard]] Result<obs::TraceContext> read_trace_context(
    snapshot_io::ByteReader& r);

// --- The envelope. -----------------------------------------------------
//
//   kSvcRequest payload:  u64 request_id | context block | u32 plugin
//                         | i64 deadline_ms | str body
//   kSvcReply payload:    u64 request_id | u32 plugin | u64 world_version
//                         | str body
//   kSvcBusy payload:     u64 request_id
//   kError payload:       u64 request_id | str message
//
// deadline_ms is the client's remaining budget at send time: 0 means no
// deadline, a negative value is already expired (the server rejects it
// without executing — mirroring the socket layer's non-positive-budget
// rule). An error with request id 0 answers a frame that never decoded;
// the server hangs up right after sending it.

struct SvcRequest {
  std::uint64_t request_id = 0;
  /// Trace context of this attempt (empty when tracing is off; travels
  /// either way so the layout is static).
  obs::TraceContext context;
  /// Raw plugin id (may name no known plugin — the server decides).
  std::uint32_t plugin = 0;
  /// Remaining client budget in ms: 0 = none, negative = already expired.
  std::int64_t deadline_ms = 0;
  std::string body;
};

struct SvcReply {
  std::uint64_t request_id = 0;
  std::uint32_t plugin = 0;
  /// Version of the resident world the request was served against.
  std::uint64_t world_version = 0;
  std::string body;
};

struct ErrorFrame {
  std::uint64_t request_id = 0;  // 0 when the request never decoded
  std::string message;
};

/// Wrap `payload` in a complete frame (magic + version + type + length +
/// payload + CRC) — the one header/CRC path every frame goes through.
[[nodiscard]] std::string seal_frame(FrameType type, std::string_view payload);

[[nodiscard]] std::string encode_svc_request(const SvcRequest& request);
/// The same frame around `body` instead of request.body, which it leaves
/// unread: the body is copied once, straight into the sealed frame, so a
/// client re-wraps a body it encoded once at one copy per attempt.
[[nodiscard]] std::string encode_svc_request(const SvcRequest& request,
                                             std::string_view body);
[[nodiscard]] std::string encode_svc_reply(const SvcReply& reply);
[[nodiscard]] std::string encode_svc_busy(std::uint64_t request_id);
[[nodiscard]] std::string encode_error(const ErrorFrame& error);

/// Fleet telemetry: a stats request carries no payload; the reply is the
/// server's registry snapshot, names sorted — deterministic for a given
/// registry state, so a decoded reply serializes byte-identically to the
/// server writing its own stats.
[[nodiscard]] std::string encode_stats_request();
[[nodiscard]] std::string encode_stats_reply(const obs::StatsSnapshot& snapshot);

// --- Decoding. ---------------------------------------------------------

struct FrameHeader {
  FrameType type = FrameType::kError;
  std::uint64_t payload_size = 0;
};

/// Parse and validate the fixed-size header (`bytes` must be exactly
/// kFrameHeaderSize). Checks magic, version (the error names both
/// versions), frame type, and payload-length sanity.
[[nodiscard]] Result<FrameHeader> decode_frame_header(std::string_view bytes);

/// Verify the CRC over `body` (payload + 4-byte CRC, as received after
/// the header) and return the payload.
[[nodiscard]] Result<std::string> decode_frame_body(const FrameHeader& header,
                                                    std::string_view body);

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Decode one complete frame from a flat buffer (header + payload + CRC,
/// no trailing bytes) — the corruption-test entry point.
[[nodiscard]] Result<Frame> decode_frame(std::string_view bytes);

[[nodiscard]] Result<SvcRequest> decode_svc_request(std::string_view payload);
[[nodiscard]] Result<SvcReply> decode_svc_reply(std::string_view payload);
[[nodiscard]] Result<std::uint64_t> decode_svc_busy(std::string_view payload);
[[nodiscard]] Result<ErrorFrame> decode_error(std::string_view payload);
[[nodiscard]] Result<obs::StatsSnapshot> decode_stats_reply(
    std::string_view payload);

// --- Eval plugin body. -------------------------------------------------

/// A self-contained twin consult: any server can score it, so a retry on
/// another server is always safe.
struct EvalRequest {
  MachineSpec machine;
  /// horizon / metric_check_interval / weights travel; `threads` is a
  /// server-local concern and stays out of the wire format.
  TwinConfig twin;
  JobTrace trace;
  SimSnapshot snapshot;
  std::vector<TwinCandidateSpec> candidates;
};

/// Fails only if the snapshot holds a state with no registered codec.
[[nodiscard]] Result<std::string> encode_eval_request(const EvalRequest& request);
/// Also rejects a snapshot the request's trace and machine cannot resume
/// (check_resumable): the server restores it into forks.
[[nodiscard]] Result<EvalRequest> decode_eval_request(std::string_view body);

/// The eval and what-if reply body: one verdict per candidate, in order.
[[nodiscard]] std::string encode_verdicts(
    const std::vector<TwinForkResult>& verdicts);
[[nodiscard]] Result<std::vector<TwinForkResult>> decode_verdicts(
    std::string_view body);

// --- Shared field codecs. ----------------------------------------------
// Building blocks the plugin bodies share: a machine model as data, one
// job, a whole job trace, candidate specs and fork results
// (little-endian fixed-width, bounds-checked, reserve() capped by bytes
// actually received). Readers reject values outside the range of the
// field they fill instead of narrowing them.

void write_machine_spec(snapshot_io::ByteWriter& w, const MachineSpec& spec);
[[nodiscard]] Result<MachineSpec> read_machine_spec(snapshot_io::ByteReader& r);

void write_job(snapshot_io::ByteWriter& w, const Job& job);
[[nodiscard]] Result<Job> read_job(snapshot_io::ByteReader& r);

void write_job_trace(snapshot_io::ByteWriter& w, const JobTrace& trace);
[[nodiscard]] Result<JobTrace> read_job_trace(snapshot_io::ByteReader& r);

void write_candidate_spec(snapshot_io::ByteWriter& w,
                          const TwinCandidateSpec& spec);
[[nodiscard]] Result<TwinCandidateSpec> read_candidate_spec(
    snapshot_io::ByteReader& r);

/// A count-prefixed candidate batch (the what-if body and the tail of the
/// eval body).
void write_candidates(snapshot_io::ByteWriter& w,
                      const std::vector<TwinCandidateSpec>& candidates);
[[nodiscard]] Result<std::vector<TwinCandidateSpec>> read_candidates(
    snapshot_io::ByteReader& r);

void write_fork_result(snapshot_io::ByteWriter& w, const TwinForkResult& result);
[[nodiscard]] Result<TwinForkResult> read_fork_result(snapshot_io::ByteReader& r);

}  // namespace amjs::twinsvc
