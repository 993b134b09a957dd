#include "twinsvc/frame.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

#include "snapshot_io/binio.hpp"
#include "snapshot_io/snapshot_codec.hpp"
#include "util/fmt.hpp"

namespace amjs::twinsvc {
namespace {

using snapshot_io::ByteReader;
using snapshot_io::ByteWriter;
using snapshot_io::crc32;

/// An i64 field that fills an int: a value outside the int range is an
/// error, never a silent narrowing to a different value.
Result<int> read_int(ByteReader& r, std::string_view what) {
  auto value = r.i64();
  if (!value) return value.error();
  if (value.value() < std::numeric_limits<int>::min() ||
      value.value() > std::numeric_limits<int>::max()) {
    return Error{format("{} {} is out of range", what, value.value())};
  }
  return static_cast<int>(value.value());
}

/// The header of a `payload_size`-byte frame, into a writer sized for the
/// whole frame so the payload and CRC append without reallocating.
void write_frame_header(ByteWriter& w, FrameType type, std::size_t payload_size) {
  w.reserve(kFrameOverhead + payload_size);
  w.bytes(kFrameMagic);
  w.u32(kProtocolVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u64(payload_size);
}

}  // namespace

const char* to_string(Plugin plugin) {
  switch (plugin) {
    case Plugin::kSubmitJob: return "submit_job";
    case Plugin::kWhatIf: return "what_if";
    case Plugin::kTraceExplain: return "trace_explain";
    case Plugin::kCampaign: return "campaign";
    case Plugin::kEval: return "eval";
    case Plugin::kReload: return "reload";
  }
  return "?";
}

std::string seal_frame(FrameType type, std::string_view payload) {
  ByteWriter w;
  write_frame_header(w, type, payload.size());
  w.bytes(payload);
  w.u32(crc32(payload));
  return w.take();
}

void write_trace_context(ByteWriter& w, const obs::TraceContext& ctx) {
  w.u8(obs::kTraceContextVersion);
  w.u64(ctx.run_id);
  w.u64(ctx.request_id);
  w.u64(ctx.parent_span);
  w.u32(ctx.ordinal);
}

Result<obs::TraceContext> read_trace_context(ByteReader& r) {
  auto version = r.u8();
  if (!version) return version.error();
  if (version.value() != obs::kTraceContextVersion) {
    return Error{format(
        "unsupported trace-context version {} (this peer speaks {})",
        version.value(), obs::kTraceContextVersion)};
  }
  obs::TraceContext ctx;
  auto run = r.u64();
  if (!run) return run.error();
  ctx.run_id = run.value();
  auto req = r.u64();
  if (!req) return req.error();
  ctx.request_id = req.value();
  auto parent = r.u64();
  if (!parent) return parent.error();
  ctx.parent_span = parent.value();
  auto ordinal = r.u32();
  if (!ordinal) return ordinal.error();
  ctx.ordinal = ordinal.value();
  return ctx;
}

void write_machine_spec(ByteWriter& w, const MachineSpec& spec) {
  w.u8(static_cast<std::uint8_t>(spec.kind));
  w.i64(spec.nodes);
  w.i64(spec.partition.leaf_nodes);
  w.i64(spec.partition.row_leaves);
  w.i64(spec.partition.rows);
}

Result<MachineSpec> read_machine_spec(ByteReader& r) {
  MachineSpec spec;
  auto kind = r.u8();
  if (!kind) return kind.error();
  if (kind.value() > static_cast<std::uint8_t>(MachineSpec::Kind::kPartition)) {
    return Error{format("bad machine kind {}", kind.value())};
  }
  spec.kind = static_cast<MachineSpec::Kind>(kind.value());
  auto nodes = r.i64();
  if (!nodes) return nodes.error();
  spec.nodes = nodes.value();
  auto leaf_nodes = r.i64();
  if (!leaf_nodes) return leaf_nodes.error();
  spec.partition.leaf_nodes = leaf_nodes.value();
  auto row_leaves = read_int(r, "machine row_leaves");
  if (!row_leaves) return row_leaves.error();
  spec.partition.row_leaves = row_leaves.value();
  auto rows = read_int(r, "machine rows");
  if (!rows) return rows.error();
  spec.partition.rows = rows.value();
  if (!spec.valid()) {
    return Error{format("invalid machine spec {}", spec.label())};
  }
  return spec;
}

void write_job(ByteWriter& w, const Job& job) {
  w.i64(job.id);
  w.i64(job.submit);
  w.i64(job.runtime);
  w.i64(job.walltime);
  w.i64(job.nodes);
  w.str(job.user);
  w.i64(job.queue);
}

Result<Job> read_job(ByteReader& r) {
  Job job;
  auto id = r.i64();
  if (!id) return id.error();
  job.id = static_cast<JobId>(id.value());
  auto submit = r.time();
  if (!submit) return submit.error();
  job.submit = submit.value();
  auto runtime = r.time();
  if (!runtime) return runtime.error();
  job.runtime = runtime.value();
  auto walltime = r.time();
  if (!walltime) return walltime.error();
  job.walltime = walltime.value();
  auto nodes = r.i64();
  if (!nodes) return nodes.error();
  job.nodes = nodes.value();
  auto user = r.str();
  if (!user) return user.error();
  job.user = std::move(user).value();
  auto queue = r.i64();
  if (!queue) return queue.error();
  job.queue = static_cast<int>(queue.value());
  return job;
}

void write_job_trace(ByteWriter& w, const JobTrace& trace) {
  w.u64(trace.size());
  for (const Job& job : trace.jobs()) write_job(w, job);
}

Result<JobTrace> read_job_trace(ByteReader& r) {
  // A CRC-valid frame cannot declare more jobs than the remaining payload
  // could hold — reserve() stays proportional to the bytes actually
  // received, never to a crafted count.
  auto n = r.count(r.remaining() / kMinEncodedJobBytes);
  if (!n) return n.error();
  std::vector<Job> jobs;
  jobs.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto job = read_job(r);
    if (!job) return job.error();
    jobs.push_back(std::move(job).value());
  }
  // The trace travelled in canonical (dense-id, submit-sorted) order, so
  // rebuilding through from_jobs is the identity — plus its validation.
  return JobTrace::from_jobs(std::move(jobs));
}

void write_candidate_spec(ByteWriter& w, const TwinCandidateSpec& spec) {
  w.str(kCandidateFamilyMetricAware);
  w.str(spec.label);
  w.f64(spec.config.policy.balance_factor);
  w.i64(spec.config.policy.window_size);
  w.u8(static_cast<std::uint8_t>(spec.config.backfill));
  w.boolean(spec.config.literal_eq1);
  w.boolean(spec.config.exhaustive_window_search);
  w.i64(spec.config.max_window);
}

Result<TwinCandidateSpec> read_candidate_spec(ByteReader& r) {
  auto family = r.str();
  if (!family) return family.error();
  if (family.value() != kCandidateFamilyMetricAware) {
    return Error{format("unsupported candidate family \"{}\"", family.value())};
  }
  TwinCandidateSpec spec;
  auto label = r.str();
  if (!label) return label.error();
  spec.label = std::move(label).value();
  auto bf = r.f64();
  if (!bf) return bf.error();
  spec.config.policy.balance_factor = bf.value();
  auto w_size = read_int(r, "candidate window_size");
  if (!w_size) return w_size.error();
  spec.config.policy.window_size = w_size.value();
  if (!spec.config.policy.valid()) {
    return Error{format("invalid candidate policy (bf {}, w {})",
                        spec.config.policy.balance_factor,
                        spec.config.policy.window_size)};
  }
  auto backfill = r.u8();
  if (!backfill) return backfill.error();
  if (backfill.value() > static_cast<std::uint8_t>(BackfillMode::kConservative)) {
    return Error{format("bad backfill mode {}", backfill.value())};
  }
  spec.config.backfill = static_cast<BackfillMode>(backfill.value());
  auto literal = r.boolean();
  if (!literal) return literal.error();
  spec.config.literal_eq1 = literal.value();
  auto exhaustive = r.boolean();
  if (!exhaustive) return exhaustive.error();
  spec.config.exhaustive_window_search = exhaustive.value();
  auto max_window = read_int(r, "candidate max_window");
  if (!max_window) return max_window.error();
  spec.config.max_window = max_window.value();
  return spec;
}

void write_candidates(ByteWriter& w,
                      const std::vector<TwinCandidateSpec>& candidates) {
  w.u64(candidates.size());
  for (const auto& spec : candidates) write_candidate_spec(w, spec);
}

Result<std::vector<TwinCandidateSpec>> read_candidates(ByteReader& r) {
  // Smallest encoded candidate: two string length prefixes, three 8-byte
  // numeric fields, the mode byte and two bools — caps reserve() by
  // received bytes, like read_job_trace.
  constexpr std::uint64_t kMinEncodedCandidateBytes = 5 * 8 + 3;
  auto n = r.count(r.remaining() / kMinEncodedCandidateBytes);
  if (!n) return n.error();
  std::vector<TwinCandidateSpec> candidates;
  candidates.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto candidate = read_candidate_spec(r);
    if (!candidate) return candidate.error();
    candidates.push_back(std::move(candidate).value());
  }
  return candidates;
}

void write_fork_result(ByteWriter& w, const TwinForkResult& result) {
  w.str(result.label);
  w.f64(result.avg_queue_depth_min);
  w.f64(result.utilization);
  w.f64(result.objective);
  w.f64(result.wall_ms);
  w.u64(result.jobs_started);
}

Result<TwinForkResult> read_fork_result(ByteReader& r) {
  TwinForkResult result;
  auto label = r.str();
  if (!label) return label.error();
  result.label = std::move(label).value();
  auto qd = r.f64();
  if (!qd) return qd.error();
  result.avg_queue_depth_min = qd.value();
  auto util = r.f64();
  if (!util) return util.error();
  result.utilization = util.value();
  auto objective = r.f64();
  if (!objective) return objective.error();
  result.objective = objective.value();
  auto wall = r.f64();
  if (!wall) return wall.error();
  result.wall_ms = wall.value();
  auto started = r.u64();
  if (!started) return started.error();
  result.jobs_started = started.value();
  return result;
}

Result<std::string> encode_eval_request(const EvalRequest& request) {
  auto snapshot_bytes = snapshot_io::write_snapshot(request.snapshot);
  if (!snapshot_bytes) return snapshot_bytes.error();
  ByteWriter w;
  write_machine_spec(w, request.machine);
  w.i64(request.twin.horizon);
  w.i64(request.twin.metric_check_interval);
  w.f64(request.twin.queue_weight);
  w.f64(request.twin.util_weight);
  write_job_trace(w, request.trace);
  w.str(snapshot_bytes.value());
  write_candidates(w, request.candidates);
  return w.take();
}

std::string encode_verdicts(const std::vector<TwinForkResult>& verdicts) {
  ByteWriter w;
  w.u64(verdicts.size());
  for (const auto& verdict : verdicts) write_fork_result(w, verdict);
  return w.take();
}

std::string encode_svc_request(const SvcRequest& request) {
  return encode_svc_request(request, request.body);
}

std::string encode_svc_request(const SvcRequest& request,
                               std::string_view body) {
  // Sealed in place, not through seal_frame: the body is copied once.
  // Fixed part: request id, context block, plugin, deadline, body length.
  constexpr std::size_t kFixedPayload = 8 + kTraceContextEncodedSize + 4 + 8 + 8;
  ByteWriter w;
  write_frame_header(w, FrameType::kSvcRequest, kFixedPayload + body.size());
  w.u64(request.request_id);
  write_trace_context(w, request.context);
  w.u32(request.plugin);
  w.i64(request.deadline_ms);
  w.str(body);
  assert(w.size() == kFrameHeaderSize + kFixedPayload + body.size());
  w.u32(crc32(std::string_view(w.data()).substr(kFrameHeaderSize)));
  return w.take();
}

std::string encode_svc_reply(const SvcReply& reply) {
  ByteWriter w;
  w.u64(reply.request_id);
  w.u32(reply.plugin);
  w.u64(reply.world_version);
  w.str(reply.body);
  return seal_frame(FrameType::kSvcReply, w.data());
}

std::string encode_svc_busy(std::uint64_t request_id) {
  ByteWriter w;
  w.u64(request_id);
  return seal_frame(FrameType::kSvcBusy, w.data());
}

std::string encode_error(const ErrorFrame& error) {
  ByteWriter w;
  w.u64(error.request_id);
  w.str(error.message);
  return seal_frame(FrameType::kError, w.data());
}

std::string encode_stats_request() {
  return seal_frame(FrameType::kStatsRequest, {});
}

std::string encode_stats_reply(const obs::StatsSnapshot& snapshot) {
  ByteWriter w;
  w.u64(snapshot.counters.size());
  for (const auto& [name, value] : snapshot.counters) {
    w.str(name);
    w.u64(value);
  }
  w.u64(snapshot.gauges.size());
  for (const auto& [name, value] : snapshot.gauges) {
    w.str(name);
    w.i64(value);
  }
  w.u64(snapshot.timers.size());
  for (const auto& [name, s] : snapshot.timers) {
    w.str(name);
    w.u64(s.count);
    w.f64(s.total_ms);
    w.f64(s.p50_ms);
    w.f64(s.p95_ms);
    w.f64(s.max_ms);
  }
  return seal_frame(FrameType::kStatsReply, w.data());
}

Result<FrameHeader> decode_frame_header(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderSize) {
    return Error{format("frame header is {} bytes, got {}", kFrameHeaderSize,
                        bytes.size())};
  }
  if (bytes.substr(0, kFrameMagic.size()) != kFrameMagic) {
    return Error{"not an svc frame (bad magic)"};
  }
  ByteReader r(bytes.substr(kFrameMagic.size()));
  auto version = r.u32();
  if (!version) return version.error();
  if (version.value() != kProtocolVersion) {
    return Error{format("unsupported svc protocol version {} (this peer speaks {})",
                        version.value(), kProtocolVersion)};
  }
  auto type = r.u8();
  if (!type) return type.error();
  switch (static_cast<FrameType>(type.value())) {
    case FrameType::kError:
    case FrameType::kStatsRequest:
    case FrameType::kStatsReply:
    case FrameType::kSvcRequest:
    case FrameType::kSvcReply:
    case FrameType::kSvcBusy:
      break;
    default:
      return Error{format("unknown frame type {}", type.value())};
  }
  auto length = r.u64();
  if (!length) return length.error();
  if (length.value() > kMaxFramePayload) {
    return Error{format("frame payload of {} bytes exceeds the {} byte cap",
                        length.value(), kMaxFramePayload)};
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type.value());
  header.payload_size = length.value();
  return header;
}

Result<std::string> decode_frame_body(const FrameHeader& header,
                                      std::string_view body) {
  if (body.size() != header.payload_size + 4) {
    return Error{format("frame body is {} bytes, expected {} + 4 (CRC)",
                        body.size(), header.payload_size)};
  }
  const std::string_view payload = body.substr(0, header.payload_size);
  ByteReader crc_reader(body.substr(header.payload_size));
  auto stored = crc_reader.u32();
  if (!stored) return stored.error();
  const std::uint32_t actual = crc32(payload);
  if (stored.value() != actual) {
    return Error{format("frame CRC mismatch: stored {:x}, computed {:x}",
                        stored.value(), actual)};
  }
  return std::string(payload);
}

Result<Frame> decode_frame(std::string_view bytes) {
  if (bytes.size() < kFrameOverhead) {
    return Error{format("truncated frame: {} bytes, header + CRC need {}",
                        bytes.size(), kFrameOverhead)};
  }
  auto header = decode_frame_header(bytes.substr(0, kFrameHeaderSize));
  if (!header) return header.error();
  const std::string_view rest = bytes.substr(kFrameHeaderSize);
  if (rest.size() != header.value().payload_size + 4) {
    return Error{format("frame of {} payload bytes, {} bytes after header",
                        header.value().payload_size, rest.size())};
  }
  auto payload = decode_frame_body(header.value(), rest);
  if (!payload) return payload.error();
  Frame frame;
  frame.type = header.value().type;
  frame.payload = std::move(payload).value();
  return frame;
}

Result<EvalRequest> decode_eval_request(std::string_view body) {
  ByteReader r(body);
  EvalRequest request;
  auto machine = read_machine_spec(r);
  if (!machine) return machine.error();
  request.machine = machine.value();
  auto horizon = r.time();
  if (!horizon) return horizon.error();
  request.twin.horizon = horizon.value();
  auto interval = r.time();
  if (!interval) return interval.error();
  request.twin.metric_check_interval = interval.value();
  if (request.twin.metric_check_interval <= 0) {
    return Error{format("bad twin horizon {} / check interval {}",
                        request.twin.horizon, request.twin.metric_check_interval)};
  }
  auto queue_weight = r.f64();
  if (!queue_weight) return queue_weight.error();
  request.twin.queue_weight = queue_weight.value();
  auto util_weight = r.f64();
  if (!util_weight) return util_weight.error();
  request.twin.util_weight = util_weight.value();
  auto trace = read_job_trace(r);
  if (!trace) return trace.error();
  request.trace = std::move(trace).value();
  auto snapshot_bytes = r.str();
  if (!snapshot_bytes) return snapshot_bytes.error();
  auto snapshot = snapshot_io::read_snapshot(snapshot_bytes.value());
  if (!snapshot) {
    return Error{snapshot.error().message, "request snapshot"};
  }
  request.snapshot = std::move(snapshot).value();
  auto candidates = read_candidates(r);
  if (!candidates) return candidates.error();
  request.candidates = std::move(candidates).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after eval request", r.remaining())};
  }
  if (Status fits = check_resumable(request.trace, request.snapshot, request.machine);
      !fits.ok()) {
    return Error{fits.error().message, "request snapshot"};
  }
  return request;
}

Result<std::vector<TwinForkResult>> decode_verdicts(std::string_view body) {
  ByteReader r(body);
  // Smallest encoded fork result: label length prefix + 4 doubles + u64.
  constexpr std::uint64_t kMinEncodedVerdictBytes = 8 + 4 * 8 + 8;
  auto count = r.count(r.remaining() / kMinEncodedVerdictBytes);
  if (!count) return count.error();
  std::vector<TwinForkResult> verdicts;
  verdicts.reserve(count.value());
  for (std::uint64_t i = 0; i < count.value(); ++i) {
    auto verdict = read_fork_result(r);
    if (!verdict) return verdict.error();
    verdicts.push_back(std::move(verdict).value());
  }
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after verdict batch",
                        r.remaining())};
  }
  return verdicts;
}

Result<SvcRequest> decode_svc_request(std::string_view payload) {
  ByteReader r(payload);
  SvcRequest request;
  auto request_id = r.u64();
  if (!request_id) return request_id.error();
  request.request_id = request_id.value();
  auto context = read_trace_context(r);
  if (!context) return context.error();
  request.context = context.value();
  auto plugin = r.u32();
  if (!plugin) return plugin.error();
  request.plugin = plugin.value();
  auto deadline = r.i64();
  if (!deadline) return deadline.error();
  request.deadline_ms = deadline.value();
  auto body = r.str();
  if (!body) return body.error();
  request.body = std::move(body).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after svc request payload",
                        r.remaining())};
  }
  return request;
}

Result<SvcReply> decode_svc_reply(std::string_view payload) {
  ByteReader r(payload);
  SvcReply reply;
  auto request_id = r.u64();
  if (!request_id) return request_id.error();
  reply.request_id = request_id.value();
  auto plugin = r.u32();
  if (!plugin) return plugin.error();
  reply.plugin = plugin.value();
  auto world_version = r.u64();
  if (!world_version) return world_version.error();
  reply.world_version = world_version.value();
  auto body = r.str();
  if (!body) return body.error();
  reply.body = std::move(body).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after svc reply payload",
                        r.remaining())};
  }
  return reply;
}

Result<std::uint64_t> decode_svc_busy(std::string_view payload) {
  ByteReader r(payload);
  auto request_id = r.u64();
  if (!request_id) return request_id.error();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after svc busy payload",
                        r.remaining())};
  }
  return request_id.value();
}

Result<obs::StatsSnapshot> decode_stats_reply(std::string_view payload) {
  ByteReader r(payload);
  obs::StatsSnapshot snapshot;
  // Each entry carries at least a string length prefix plus its smallest
  // fixed-width value; capping the declared counts by remaining bytes over
  // that floor keeps reserve() proportional to bytes actually received.
  constexpr std::uint64_t kMinEncodedScalarBytes = 8 + 8;
  auto n_counters = r.count(r.remaining() / kMinEncodedScalarBytes);
  if (!n_counters) return n_counters.error();
  snapshot.counters.reserve(n_counters.value());
  for (std::uint64_t i = 0; i < n_counters.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto value = r.u64();
    if (!value) return value.error();
    snapshot.counters.emplace_back(std::move(name).value(), value.value());
  }
  auto n_gauges = r.count(r.remaining() / kMinEncodedScalarBytes);
  if (!n_gauges) return n_gauges.error();
  snapshot.gauges.reserve(n_gauges.value());
  for (std::uint64_t i = 0; i < n_gauges.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    auto value = r.i64();
    if (!value) return value.error();
    snapshot.gauges.emplace_back(std::move(name).value(), value.value());
  }
  constexpr std::uint64_t kMinEncodedTimerBytes = 8 + 5 * 8;
  auto n_timers = r.count(r.remaining() / kMinEncodedTimerBytes);
  if (!n_timers) return n_timers.error();
  snapshot.timers.reserve(n_timers.value());
  for (std::uint64_t i = 0; i < n_timers.value(); ++i) {
    auto name = r.str();
    if (!name) return name.error();
    obs::TimerStats s;
    auto count = r.u64();
    if (!count) return count.error();
    s.count = count.value();
    auto total = r.f64();
    if (!total) return total.error();
    s.total_ms = total.value();
    auto p50 = r.f64();
    if (!p50) return p50.error();
    s.p50_ms = p50.value();
    auto p95 = r.f64();
    if (!p95) return p95.error();
    s.p95_ms = p95.value();
    auto max = r.f64();
    if (!max) return max.error();
    s.max_ms = max.value();
    snapshot.timers.emplace_back(std::move(name).value(), s);
  }
  const auto sorted = [](const auto& entries) {
    return std::is_sorted(entries.begin(), entries.end(),
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          });
  };
  if (!sorted(snapshot.counters) || !sorted(snapshot.gauges) ||
      !sorted(snapshot.timers)) {
    return Error{"stats reply entries are not sorted by name"};
  }
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after stats reply", r.remaining())};
  }
  return snapshot;
}

Result<ErrorFrame> decode_error(std::string_view payload) {
  ByteReader r(payload);
  ErrorFrame error;
  auto id = r.u64();
  if (!id) return id.error();
  error.request_id = id.value();
  auto message = r.str();
  if (!message) return message.error();
  error.message = std::move(message).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after error frame", r.remaining())};
  }
  return error;
}

}  // namespace amjs::twinsvc
