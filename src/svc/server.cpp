#include "svc/server.hpp"

#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/diff.hpp"
#include "campaign/campaign.hpp"
#include "campaign/frame.hpp"
#include "core/twin_backend.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace amjs::svc {
namespace {

using twinsvc::encode_error;
using twinsvc::ErrorFrame;
using twinsvc::Frame;
using twinsvc::FrameType;
using twinsvc::send_frame;
using twinsvc::Socket;

[[nodiscard]] bool known_plugin(std::uint32_t id) {
  switch (static_cast<Plugin>(id)) {
    case Plugin::kSubmitJob:
    case Plugin::kWhatIf:
    case Plugin::kTraceExplain:
    case Plugin::kCampaign:
    case Plugin::kEval:
    case Plugin::kReload:
      return true;
  }
  return false;
}

[[nodiscard]] const char* plugin_counter(Plugin plugin) {
  switch (plugin) {
    case Plugin::kSubmitJob: return "svc.plugin.submit_job";
    case Plugin::kWhatIf: return "svc.plugin.what_if";
    case Plugin::kTraceExplain: return "svc.plugin.trace_explain";
    case Plugin::kCampaign: return "svc.plugin.campaign";
    case Plugin::kEval: return "svc.plugin.eval";
    case Plugin::kReload: return "svc.plugin.reload";
  }
  return "svc.plugin.unknown";
}

/// A request's span joins its caller's "rpc" span in trace_merge, which
/// matches on category: twin consults and campaign cells keep the
/// category of the client that dispatched them.
[[nodiscard]] obs::TraceCategory span_category(Plugin plugin) {
  switch (plugin) {
    case Plugin::kEval: return obs::TraceCategory::kTwin;
    case Plugin::kCampaign: return obs::TraceCategory::kCampaign;
    default: return obs::TraceCategory::kSvc;
  }
}

/// The fork path the what-if and eval plugins share.
[[nodiscard]] Result<std::vector<TwinForkResult>> evaluate_forks(
    const MachineSpec& machine, TwinConfig twin, unsigned threads,
    const JobTrace& trace, const SimSnapshot& snapshot,
    const std::vector<TwinCandidateSpec>& candidates) {
  twin.threads = threads;
  LocalTwinBackend backend(machine.factory(), twin);
  return backend.evaluate(trace, snapshot, candidates);
}

}  // namespace

AdmissionGate::AdmissionGate(int max_inflight, int max_queue)
    : max_inflight_(max_inflight < 1 ? 1 : max_inflight),
      max_queue_(max_queue < 0 ? 0 : max_queue) {}

AdmissionGate::Outcome AdmissionGate::enter(std::int64_t deadline_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (stopped_) return Outcome::kStopped;
  if (in_flight_ < max_inflight_) {
    ++in_flight_;
    return Outcome::kAdmitted;
  }
  if (queued_ >= max_queue_) return Outcome::kBusy;
  ++queued_;
  const auto slot_or_stop = [this] {
    return stopped_ || in_flight_ < max_inflight_;
  };
  bool ready = true;
  if (deadline_ms > 0) {
    ready = slot_free_.wait_for(lock, std::chrono::milliseconds(deadline_ms),
                                slot_or_stop);
  } else {
    slot_free_.wait(lock, slot_or_stop);
  }
  --queued_;
  if (stopped_) return Outcome::kStopped;
  if (!ready) return Outcome::kDeadline;
  ++in_flight_;
  return Outcome::kAdmitted;
}

void AdmissionGate::leave() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    --in_flight_;
  }
  slot_free_.notify_one();
}

void AdmissionGate::stop() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopped_ = true;
  }
  slot_free_.notify_all();
}

std::int64_t AdmissionGate::in_flight() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_;
}

std::int64_t AdmissionGate::queued() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

SchedServer::SchedServer(twinsvc::Listener listener,
                         std::shared_ptr<const World> world,
                         ServerConfig config)
    : config_(config),
      facade_(std::move(world)),
      gate_(config.max_inflight, config.max_queue),
      acceptor_(std::move(listener),
                [this](Socket socket) { serve_connection(std::move(socket)); },
                "sched_server") {
  if (obs::Registry::enabled()) {
    obs::Registry::global().gauge("svc.world_version")
        .set(static_cast<std::int64_t>(facade_.version()));
  }
}

SchedServer::~SchedServer() { stop(); }

void SchedServer::start() { acceptor_.start(); }

void SchedServer::run() { acceptor_.run(); }

void SchedServer::stop() {
  gate_.stop();
  acceptor_.stop();
}

void SchedServer::bump(const char* counter) const {
  if (obs::Registry::enabled()) {
    obs::Registry::global().counter(counter).add();
  }
}

void SchedServer::trace_reject(const SvcRequest& request,
                               const char* reason) const {
  if (config_.trace_sink == nullptr) return;
  config_.trace_sink->record(
      obs::TraceCategory::kSvc, "reject", /*sim_time=*/0,
      {obs::arg("request_id", request.request_id),
       obs::arg("plugin", request.plugin), obs::arg("reason", reason)});
}

void SchedServer::serve_connection(Socket socket) {
  // A connection carries a sequence of requests; it ends on client EOF,
  // an I/O error, or a malformed frame.
  while (!acceptor_.stopping()) {
    auto frame = twinsvc::recv_frame_or_eof(socket, config_.io_timeout_ms);
    if (!frame) {
      // Malformed header/body (includes a stale protocol version): count
      // it, tell the peer why, hang up. request_id 0 — it never decoded.
      bump("svc.rejected.frame");
      (void)send_frame(socket,
                       encode_error(ErrorFrame{0, frame.error().to_string()}),
                       config_.io_timeout_ms);
      return;
    }
    if (!frame.value().has_value()) return;  // clean EOF between requests
    if (!serve_request(socket, *frame.value())) return;
  }
}

bool SchedServer::serve_stats_request(Socket& socket) {
  // Out-of-band telemetry: no counters, no admission, no fault ordinal,
  // so a stats poll never perturbs what it measures.
  if (obs::Registry::enabled()) {
    auto& registry = obs::Registry::global();
    registry.gauge("svc.in_flight").set(gate_.in_flight());
    registry.gauge("svc.queue_depth").set(gate_.queued());
    registry.gauge("svc.world_version")
        .set(static_cast<std::int64_t>(facade_.version()));
    registry.gauge("svc.uptime_ms")
        .set(std::chrono::duration_cast<std::chrono::milliseconds>(
                 std::chrono::steady_clock::now() - start_time_)
                 .count());
  }
  return send_frame(
             socket,
             twinsvc::encode_stats_reply(obs::Registry::global().snapshot()),
             config_.io_timeout_ms)
      .ok();
}

bool SchedServer::serve_request(Socket& socket, const Frame& frame) {
  const auto received = std::chrono::steady_clock::now();
  if (frame.type == FrameType::kStatsRequest) {
    return serve_stats_request(socket);
  }
  if (frame.type != FrameType::kSvcRequest) {
    bump("svc.rejected.plugin");
    (void)send_frame(
        socket,
        encode_error(ErrorFrame{
            0, format("unexpected frame type {} (the server takes svc "
                      "requests and stats polls)",
                      static_cast<int>(frame.type))}),
        config_.io_timeout_ms);
    return false;
  }
  auto decoded = decode_svc_request(frame.payload);
  if (!decoded) {
    bump("svc.rejected.frame");
    (void)send_frame(socket,
                     encode_error(ErrorFrame{0, decoded.error().to_string()}),
                     config_.io_timeout_ms);
    return false;
  }
  const SvcRequest& request = decoded.value();

  // Well-formed frame, unknown plugin: reject the request, keep the
  // connection — the client may speak a newer plugin table.
  if (!known_plugin(request.plugin)) {
    bump("svc.rejected.plugin");
    trace_reject(request, "unknown_plugin");
    return send_frame(
               socket,
               encode_error(ErrorFrame{
                   request.request_id,
                   format("unknown svc plugin {}", request.plugin)}),
               config_.io_timeout_ms)
        .ok();
  }

  // A deadline that lapsed before we even looked fails immediately —
  // never execute work nobody is waiting for.
  if (request.deadline_ms < 0) {
    bump("svc.rejected.deadline");
    trace_reject(request, "deadline_expired");
    return send_frame(
               socket,
               encode_error(ErrorFrame{
                   request.request_id,
                   format("deadline expired {} ms before execution",
                          -request.deadline_ms)}),
               config_.io_timeout_ms)
        .ok();
  }

  switch (gate_.enter(request.deadline_ms)) {
    case AdmissionGate::Outcome::kBusy:
      bump("svc.rejected.busy");
      trace_reject(request, "busy");
      return send_frame(socket, encode_svc_busy(request.request_id),
                        config_.io_timeout_ms)
          .ok();
    case AdmissionGate::Outcome::kDeadline:
      bump("svc.rejected.deadline");
      trace_reject(request, "deadline_queued");
      return send_frame(
                 socket,
                 encode_error(ErrorFrame{
                     request.request_id,
                     format("deadline ({} ms) expired in the admission queue",
                            request.deadline_ms)}),
                 config_.io_timeout_ms)
          .ok();
    case AdmissionGate::Outcome::kStopped:
      (void)send_frame(
          socket,
          encode_error(ErrorFrame{request.request_id, "server stopping"}),
          config_.io_timeout_ms);
      return false;
    case AdmissionGate::Outcome::kAdmitted:
      break;
  }
  struct GateGuard {
    AdmissionGate& gate;
    ~GateGuard() { gate.leave(); }
  } gate_guard{gate_};

  bump("svc.requests");
  // Fault injection counts admitted plugin requests only: stats polls and
  // rejections never reach this point.
  const std::int64_t ordinal =
      request_ordinal_.fetch_add(1, std::memory_order_relaxed) + 1;
  const ServerFaults& faults = config_.faults;
  if (faults.stall_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(faults.stall_ms));
  }
  if (ordinal <= faults.fail_first ||
      (faults.fail_after >= 0 && ordinal > faults.fail_after)) {
    // Crash before replying: the client sees an abrupt close after a
    // complete request, the canonical retry/requeue trigger.
    bump("svc.aborts");
    log::warn("sched_server: fault injection aborting request {} (ordinal {})",
              request.request_id, ordinal);
    return false;
  }

  const double span_start_wall = config_.trace_sink != nullptr
                                     ? config_.trace_sink->now_wall_ms()
                                     : 0.0;
  const auto exec_start = std::chrono::steady_clock::now();
  Result<ExecOutcome> outcome = Error{"unset"};
  if (obs::Registry::enabled()) {
    obs::ScopedTimer scoped(obs::Registry::global().timer("svc.request"));
    outcome = execute(request);
  } else {
    outcome = execute(request);
  }

  const auto plugin = static_cast<Plugin>(request.plugin);
  if (outcome.ok()) bump(plugin_counter(plugin));
  if (config_.trace_sink != nullptr) {
    // Queue time (decode, admission wait, injected stall) and the
    // execution span let trace_merge estimate the wire cost of the
    // caller's round trip.
    const auto now = std::chrono::steady_clock::now();
    std::vector<obs::TraceArg> args;
    obs::append_context_args(args, request.context);
    args.push_back(obs::arg("request_id", request.request_id));
    args.push_back(obs::arg("plugin", to_string(plugin)));
    args.push_back(obs::arg("ok", outcome.ok() ? 1 : 0));
    args.push_back(obs::arg(
        "queue_ms",
        std::chrono::duration<double, std::milli>(exec_start - received).count()));
    config_.trace_sink->record_span(
        span_category(plugin), "request", /*sim_time=*/0, span_start_wall,
        std::chrono::duration<double, std::milli>(now - exec_start).count(),
        std::move(args));
  }

  if (!outcome) {
    // Request-level failure (bad body, infeasible job): the connection
    // is healthy, so reply and keep reading.
    return send_frame(socket,
                      encode_error(ErrorFrame{request.request_id,
                                              outcome.error().to_string()}),
                      config_.io_timeout_ms)
        .ok();
  }
  SvcReply reply;
  reply.request_id = request.request_id;
  reply.plugin = request.plugin;
  reply.world_version = outcome.value().world_version;
  reply.body = std::move(outcome.value().body);
  std::string reply_bytes = encode_svc_reply(reply);
  if (faults.garbage) {
    // Flip one CRC byte so the frame fails validation at the client.
    reply_bytes.back() = static_cast<char>(reply_bytes.back() ^ 0x5a);
  }
  if (Status sent = send_frame(socket, reply_bytes, config_.io_timeout_ms);
      !sent.ok()) {
    log::warn("sched_server: send reply failed: {}", sent.error().to_string());
    return false;
  }
  bump("svc.replies");
  served_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

Result<SchedServer::ExecOutcome> SchedServer::execute(
    const SvcRequest& request) {
  // One pointer grab pins this request's generation; a concurrent reload
  // swaps the facade without touching it.
  const std::shared_ptr<const World> world = facade_.world();
  ExecOutcome out;
  out.world_version = world->version();
  switch (static_cast<Plugin>(request.plugin)) {
    case Plugin::kSubmitJob: {
      auto job = decode_submit_job(request.body);
      if (!job) return job.error();
      auto projection = world->project_start(job.value());
      if (!projection) return projection.error();
      out.body = encode_start_projection(projection.value());
      return out;
    }
    case Plugin::kWhatIf: {
      auto candidates = decode_candidates(request.body);
      if (!candidates) return candidates.error();
      const Dataset& data = world->dataset();
      auto verdicts =
          evaluate_forks(data.machine, data.twin, config_.threads, data.trace,
                         data.snapshot, candidates.value());
      if (!verdicts) return verdicts.error();
      std::vector<TwinForkResult> results = std::move(verdicts).value();
      // wall_ms is the one nondeterministic field; zero it so the reply
      // is byte-identical to a locally-encoded in-process consult.
      for (TwinForkResult& result : results) result.wall_ms = 0.0;
      out.body = encode_verdicts(results);
      return out;
    }
    case Plugin::kEval: {
      auto eval = twinsvc::decode_eval_request(request.body);
      if (!eval) return eval.error();
      const twinsvc::EvalRequest& e = eval.value();
      auto verdicts = evaluate_forks(e.machine, e.twin, config_.threads,
                                     e.trace, e.snapshot, e.candidates);
      if (!verdicts) return verdicts.error();
      // wall_ms stays: the tuner sums it into twin_wall_ms.
      out.body = encode_verdicts(verdicts.value());
      return out;
    }
    case Plugin::kTraceExplain: {
      auto pair = decode_trace_pair(request.body);
      if (!pair) return pair.error();
      std::istringstream a(pair.value().a);
      std::istringstream b(pair.value().b);
      auto report = analysis::diff_traces(a, b);
      if (!report) return report.error();
      std::ostringstream json;
      analysis::write_diff_json(json, report.value());
      out.body = json.str();
      return out;
    }
    case Plugin::kCampaign: {
      auto cell = campaign::decode_run_cell(request.body);
      if (!cell) return cell.error();
      campaign::CellResult result = campaign::run_cell(cell.value());
      result.wall_ms = 0;
      out.body = campaign::encode_cell_result_payload(result);
      return out;
    }
    case Plugin::kReload: {
      auto spec = decode_dataset_spec(request.body);
      if (!spec) return spec.error();
      auto dataset = make_dataset(spec.value());
      if (!dataset) return dataset.error();
      auto next =
          World::build(std::move(dataset).value(), facade_.next_version());
      if (!next) return next.error();
      const std::uint64_t version = next.value()->version();
      facade_.swap(std::move(next).value());
      bump("svc.reloads");
      if (obs::Registry::enabled()) {
        obs::Registry::global().gauge("svc.world_version")
            .set(static_cast<std::int64_t>(version));
      }
      if (config_.trace_sink != nullptr) {
        config_.trace_sink->record(
            obs::TraceCategory::kSvc, "reload", /*sim_time=*/0,
            {obs::arg("label", spec.value().label),
             obs::arg("version", version)});
      }
      log::info("sched_server: hot-swapped dataset {} (version {})",
                spec.value().label, version);
      out.world_version = version;
      out.body = encode_reload_ack(ReloadAck{version, spec.value().label});
      return out;
    }
  }
  return Error{format("unknown svc plugin {}", request.plugin)};
}

}  // namespace amjs::svc
