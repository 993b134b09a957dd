#include "twinsvc/client.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace amjs::twinsvc {
namespace {

void count(std::string_view name, std::uint64_t n = 1) {
  if (obs::Registry::enabled()) obs::Registry::global().counter(name).add(n);
}

void record_ms(std::string_view name, double ms) {
  if (obs::Registry::enabled()) obs::Registry::global().timer(name).record_ms(ms);
}

constexpr std::string_view kBusyMarker = "server busy (kSvcBusy)";

}  // namespace

Client::Client(ClientConfig config) : config_(std::move(config)) {}

bool Client::is_busy(const Error& error) {
  return error.to_string().find(kBusyMarker) != std::string::npos;
}

Result<Frame> Client::round_trip(std::string_view frame_bytes) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.timeout_ms);
  const auto remaining_ms = [&] {
    return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                                deadline - std::chrono::steady_clock::now())
                                .count());
  };
  if (!socket_.valid()) {
    auto socket = dial(config_.endpoint, remaining_ms());
    if (!socket) return socket.error();
    socket_ = std::move(socket).value();
  }
  // A lapsed budget fails the socket call at once (non-positive timeout).
  Status sent = send_frame(socket_, frame_bytes, remaining_ms());
  Result<Frame> frame =
      sent.ok() ? recv_frame(socket_, remaining_ms()) : Result<Frame>(sent.error());
  if (!frame) socket_.close();  // the stream's state is unknown
  return frame;
}

Result<SvcReply> Client::call(Plugin plugin, std::string_view body,
                              const obs::TraceContext& context) {
  SvcRequest request;  // the envelope; the body goes straight into the frame
  request.request_id = next_request_id_++;
  request.context = context;
  request.plugin = static_cast<std::uint32_t>(plugin);
  request.deadline_ms = config_.deadline_ms;
  auto frame = round_trip(encode_svc_request(request, body));
  if (!frame) return frame.error();
  // Whatever leaves the stream out of step closes the connection; a
  // request-level error or a busy shed keeps it.
  const auto out_of_step = [this](Error error) {
    socket_.close();
    return error;
  };
  const auto mismatch = [&](std::uint64_t got) {
    return out_of_step(Error{format("reply for request {} arrived on request {}",
                                    got, request.request_id)});
  };
  switch (frame.value().type) {
    case FrameType::kSvcReply: {
      auto reply = decode_svc_reply(frame.value().payload);
      if (!reply) return out_of_step(reply.error());
      if (reply.value().request_id != request.request_id) {
        return mismatch(reply.value().request_id);
      }
      last_world_version_ = reply.value().world_version;
      return reply;
    }
    case FrameType::kSvcBusy: {
      auto shed = decode_svc_busy(frame.value().payload);
      if (!shed) return out_of_step(shed.error());
      if (shed.value() != request.request_id) return mismatch(shed.value());
      return Error{format("{} for request {}", kBusyMarker, shed.value())};
    }
    case FrameType::kError: {
      auto error = decode_error(frame.value().payload);
      if (!error) return out_of_step(error.error());
      // Id 0 answers a frame that never decoded; the server hangs up next.
      if (error.value().request_id != request.request_id) {
        return out_of_step(Error{error.value().message});
      }
      return Error{error.value().message};
    }
    default:
      return out_of_step(Error{format("unexpected reply frame type {}",
                                      static_cast<int>(frame.value().type))});
  }
}

Result<obs::StatsSnapshot> Client::stats() {
  auto frame = round_trip(encode_stats_request());
  if (!frame) return frame.error();
  if (frame.value().type != FrameType::kStatsReply) {
    socket_.close();
    return Error{format("stats poll got frame type {}",
                        static_cast<int>(frame.value().type))};
  }
  auto snapshot = decode_stats_reply(frame.value().payload);
  if (!snapshot) socket_.close();
  return snapshot;
}

RemoteTwinEngine::RemoteTwinEngine(MachineSpec machine, RemoteTwinConfig config)
    : machine_(machine),
      config_(std::move(config)),
      fallback_(machine.factory(), config_.twin) {}

Result<std::vector<TwinForkResult>> RemoteTwinEngine::evaluate(
    const JobTrace& trace, const SimSnapshot& snapshot,
    const std::vector<TwinCandidateSpec>& candidates, obs::TraceSink* sink) {
  count("twinsvc.consults");
  const auto consult_start = std::chrono::steady_clock::now();
  if (candidates.empty()) return std::vector<TwinForkResult>{};

  if (config_.workers.empty()) {
    count("twinsvc.fallbacks");
    count("twinsvc.fallback_candidates", candidates.size());
    return fallback_.evaluate(trace, snapshot, candidates, sink);
  }

  // Contiguous chunks, one per worker (fewer when candidates are scarce),
  // balanced so every chunk is non-empty: the first size%count chunks take
  // one extra candidate. Chunk c owns a contiguous index range, so
  // reassembly is a copy.
  const std::size_t chunk_count =
      std::min(config_.workers.size(), candidates.size());
  const std::size_t base_size = candidates.size() / chunk_count;
  const std::size_t extra = candidates.size() % chunk_count;

  const auto outcomes = parallel_map<ChunkOutcome>(
      chunk_count,
      [&](std::size_t c) {
        const std::size_t begin = c * base_size + std::min(c, extra);
        const std::size_t end = begin + base_size + (c < extra ? 1 : 0);
        const std::vector<TwinCandidateSpec> chunk(
            candidates.begin() + static_cast<std::ptrdiff_t>(begin),
            candidates.begin() + static_cast<std::ptrdiff_t>(end));
        return run_chunk(trace, snapshot, chunk, c, sink);
      },
      static_cast<unsigned>(chunk_count));

  std::vector<TwinForkResult> results;
  results.reserve(candidates.size());
  for (const auto& outcome : outcomes) {
    results.insert(results.end(), outcome.results.begin(), outcome.results.end());
  }
  record_ms("twinsvc.consult",
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - consult_start)
                .count());
  return results;
}

RemoteTwinEngine::ChunkOutcome RemoteTwinEngine::run_chunk(
    const JobTrace& trace, const SimSnapshot& snapshot,
    const std::vector<TwinCandidateSpec>& chunk, std::size_t chunk_index,
    obs::TraceSink* sink) {
  const std::uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);

  EvalRequest request;
  request.machine = machine_;
  request.twin = config_.twin;
  request.trace = trace;
  request.snapshot = snapshot;
  request.candidates = chunk;
  // Encoded once; every attempt wraps it in a fresh envelope.
  const auto body = encode_eval_request(request);

  if (body.ok()) {
    for (int attempt_index = 0; attempt_index <= config_.max_retries;
         ++attempt_index) {
      if (attempt_index > 0) {
        count("twinsvc.retries");
        const int backoff = std::min(
            config_.backoff_max_ms, config_.backoff_base_ms << (attempt_index - 1));
        if (backoff > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
        }
      }
      const Endpoint& worker =
          config_.workers[(chunk_index + static_cast<std::size_t>(attempt_index)) %
                          config_.workers.size()];
      count("twinsvc.dispatches");

      obs::TraceContext ctx;
      ctx.run_id = config_.trace_run_id;
      ctx.request_id = request_id;
      ctx.ordinal = static_cast<std::uint32_t>(attempt_index + 1);
      ctx.parent_span = obs::dispatch_span_id(request_id, ctx.ordinal);

      if (sink != nullptr) {
        sink->record(obs::TraceCategory::kTwin, "dispatch", snapshot.now,
                     {obs::arg("worker", worker.to_string()),
                      obs::arg("chunk", chunk_index),
                      obs::arg("attempt", attempt_index),
                      obs::arg("candidates", chunk.size())});
      }
      const double rpc_start_wall =
          sink != nullptr ? sink->now_wall_ms() : 0.0;
      const auto rpc_start = std::chrono::steady_clock::now();
      auto verdicts = attempt(worker, body.value(), ctx, chunk.size());
      const double rpc_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - rpc_start)
                                .count();
      record_ms("twinsvc.rpc", rpc_ms);
      if (sink != nullptr) {
        // The dispatch span the server's request span parents under: one
        // per attempt, success or not, so unanswered dispatches are
        // visible in the merged timeline.
        std::vector<obs::TraceArg> args;
        obs::append_context_args(args, ctx);
        args.push_back(
            obs::arg(std::string(obs::kArgTraceSpan), ctx.parent_span));
        args.push_back(obs::arg("worker", worker.to_string()));
        args.push_back(obs::arg("ok", verdicts.ok() ? 1 : 0));
        sink->record_span(obs::TraceCategory::kTwin, "rpc", snapshot.now,
                          rpc_start_wall, rpc_ms, std::move(args));
      }
      if (verdicts.ok()) {
        count("twinsvc.remote_candidates", chunk.size());
        if (sink != nullptr) {
          sink->record(obs::TraceCategory::kTwin, "remote_verdict", snapshot.now,
                       {obs::arg("worker", worker.to_string()),
                        obs::arg("chunk", chunk_index),
                        obs::arg("verdicts", chunk.size())});
        }
        return ChunkOutcome{std::move(verdicts).value(), /*remote=*/true};
      }
      count("twinsvc.rpc_errors");
      log::info("twinsvc: dispatch to {} failed (attempt {}): {}",
                worker.to_string(), attempt_index + 1,
                verdicts.error().to_string());
    }
  } else {
    // The snapshot cannot travel (unregistered state codec) — remote is
    // off the table for this consult, not an error for the tuner.
    log::warn("twinsvc: request not serializable, consulting in-process: {}",
              body.error().to_string());
  }

  count("twinsvc.fallbacks");
  count("twinsvc.fallback_candidates", chunk.size());
  if (sink != nullptr) {
    sink->record(obs::TraceCategory::kTwin, "fallback", snapshot.now,
                 {obs::arg("chunk", chunk_index),
                  obs::arg("candidates", chunk.size())});
  }
  auto local = fallback_.evaluate(trace, snapshot, chunk, sink);
  // LocalTwinBackend never fails; keep the contract explicit.
  return ChunkOutcome{local.ok() ? std::move(local).value()
                                 : std::vector<TwinForkResult>{},
                      /*remote=*/false};
}

Result<std::vector<TwinForkResult>> RemoteTwinEngine::attempt(
    const Endpoint& worker, const std::string& body,
    const obs::TraceContext& context, std::size_t expected) const {
  Client client(ClientConfig{worker, config_.request_timeout_ms});
  auto reply = client.call(Plugin::kEval, body, context);
  if (!reply) return reply.error();
  auto verdicts = decode_verdicts(reply.value().body);
  if (!verdicts) return verdicts.error();
  if (verdicts.value().size() != expected) {
    return Error{format("{} verdicts for {} candidates",
                        verdicts.value().size(), expected)};
  }
  return verdicts;
}

}  // namespace amjs::twinsvc
