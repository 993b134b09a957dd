// svc-mixed: the load generator for a running sched_server.
//
// The service is reached only through svc::SvcClient, over two
// connections from this one process. Each connection sends the same mix:
// submit-job / what-if / trace-explain in thirds, a campaign cell every
// kCampaignEvery requests, and (connection 0 only) a reload every
// kReloadEvery requests. Phases:
//
//   warm    a short closed loop, not recorded;
//   ref     open loop at the reference rate, every request timed from
//           when it was due, so a stall also delays the requests behind it;
//   ladder  open loop at each offered rate in turn, stopping after the
//           first rate whose p99 misses the latency limit;
//   batch   closed loop: a fixed number of requests as fast as replies
//           come back, repeated; the server's CPU time per batch (read
//           from /proc around it) is the service's run_s.
//
// Every reply is checked against the in-process answer computed here on
// a World built from the same DatasetSpec the server was given.
#include <unistd.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>
#include <thread>

#include "analysis/diff.hpp"
#include "campaign/campaign.hpp"
#include "campaign/frame.hpp"
#include "core/twin_backend.hpp"
#include "harness.hpp"
#include "obs/trace.hpp"
#include "svc/client.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "util/log.hpp"

namespace perfbench {
namespace {

using namespace amjs;

// The load shape (see perfbench/README.md for why).
constexpr unsigned kConnections = 2;
constexpr double kRefRps = 2000.0;
constexpr double kLadderRps[] = {2000, 3000, 4000, 5000, 6000,
                                 7000, 8000, 10000, 12000};
constexpr double kLatencyLimitMs = 5.0;
constexpr std::uint64_t kReloadEvery = 2000;
constexpr std::uint64_t kCampaignEvery = 50;
constexpr std::int64_t kBatchRequests = 10000;

enum Kind : int { kSubmitJob, kWhatIf, kTraceExplain, kRunCell, kReload, kKinds };
constexpr const char* kKindNames[kKinds] = {"submit_job", "what_if",
                                            "trace_explain", "run_cell",
                                            "reload"};

/// Requests and the answers the service must give, built in process.
struct Inputs {
  /// [0] = the recipe the server booted with, [1] = the reload alternate.
  svc::DatasetSpec datasets[2];
  std::vector<Job> jobs;
  std::vector<TwinCandidateSpec> candidates;
  std::vector<svc::TracePair> pairs;
  std::vector<campaign::CellRequest> cells;

  std::vector<svc::StartProjection> projections[2];
  std::string verdicts[2];
  std::vector<std::string> explains;
  std::vector<std::string> cell_results;
};

std::uint64_t next_random(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

/// Two tiny wall-stripped JSONL traces that diverge at the second event.
svc::TracePair trace_pair(std::uint64_t salt) {
  const auto render = [salt](SimTime second_start) {
    obs::TraceRecorder recorder;
    const auto job = static_cast<std::int64_t>(salt % 97);
    recorder.record(obs::TraceCategory::kJob, "submit", 0, {obs::arg("job", job)});
    recorder.record(obs::TraceCategory::kJob, "start", second_start,
                    {obs::arg("job", job)});
    std::ostringstream out;
    recorder.write_jsonl(out, /*include_wall=*/false);
    return out.str();
  };
  return {render(100), render(100 + static_cast<SimTime>(salt % 300))};
}

Result<Inputs> build_inputs(const SvcOptions& options) {
  Inputs in;
  std::uint64_t rng = options.run.seed * 2654435761ull + 1;
  for (int d = 0; d < 2; ++d) {
    svc::DatasetSpec& spec = in.datasets[d];
    spec.label = d == 0 ? "boot" : "alt";
    spec.machine = MachineSpec::flat(options.dataset_nodes);
    spec.seed = options.dataset_seed + static_cast<std::uint64_t>(d);
    spec.horizon = days(options.dataset_days);
    spec.base_rate_per_hour = options.dataset_rate;
    spec.snapshot_check = static_cast<std::size_t>(options.snapshot_check);
  }
  for (int i = 0; i < 32; ++i) {
    Job job;
    job.id = i;
    job.nodes = static_cast<NodeCount>(1 + next_random(rng) % 64);
    job.walltime = 1800 + static_cast<Duration>(next_random(rng) % 7200);
    job.runtime = job.walltime;
    in.jobs.push_back(job);
  }
  for (const double bf : {0.5, 1.0}) {
    MetricAwareConfig config;
    config.policy = {bf, 4};
    in.candidates.push_back({config.policy.label(), config});
  }
  for (int i = 0; i < 16; ++i) in.pairs.push_back(trace_pair(next_random(rng)));

  campaign::CampaignSpec campaign;
  campaign.machine = MachineSpec::flat(128);
  for (const char* token : {"bf0.5w4", "base"}) {
    auto policy = campaign::PolicySpec::parse(token);
    if (!policy) return policy.error();
    campaign.policies.push_back(policy.value());
  }
  campaign::WorkloadSpec workload;
  workload.synthetic.horizon = days(1);
  workload.synthetic.base_rate_per_hour = 4.0;
  campaign.workloads.push_back(workload);
  campaign.seeds = {options.run.seed};
  auto cells = campaign::enumerate_cells(campaign);
  if (!cells) return cells.error();
  in.cells = std::move(cells).value();

  // The in-process answers.
  for (int d = 0; d < 2; ++d) {
    auto dataset = svc::make_dataset(in.datasets[d]);
    if (!dataset) return dataset.error();
    TwinConfig twin = dataset.value().twin;
    twin.threads = 1;
    LocalTwinBackend local(dataset.value().machine.factory(), twin);
    auto verdicts = local.evaluate(dataset.value().trace,
                                   dataset.value().snapshot, in.candidates);
    if (!verdicts) return verdicts.error();
    std::vector<TwinForkResult> results = std::move(verdicts).value();
    for (TwinForkResult& r : results) r.wall_ms = 0.0;
    in.verdicts[d] = svc::encode_verdicts(results);
    auto world = svc::World::build(std::move(dataset).value(), 1);
    if (!world) return world.error();
    for (const Job& job : in.jobs) {
      auto projection = world.value()->project_start(job);
      if (!projection) return projection.error();
      in.projections[d].push_back(projection.value());
    }
  }
  for (const svc::TracePair& pair : in.pairs) {
    std::istringstream a(pair.a);
    std::istringstream b(pair.b);
    auto report = analysis::diff_traces(a, b);
    if (!report) return report.error();
    std::ostringstream json;
    analysis::write_diff_json(json, report.value());
    in.explains.push_back(json.str());
  }
  for (const campaign::CellRequest& cell : in.cells) {
    campaign::CellResult result = campaign::run_cell(cell);
    result.wall_ms = 0;
    in.cell_results.push_back(campaign::encode_cell_result_payload(result));
  }
  return in;
}

enum class Outcome : std::uint8_t { kOk, kBusy, kError, kWrong };

struct Request {
  Kind kind = kSubmitJob;
  std::uint64_t id = 0;
  Clock::time_point due;
  Clock::time_point sent;
  Clock::time_point done;
  Outcome outcome = Outcome::kOk;
};

/// One client connection and the request stream it sends.
struct Connection {
  Connection(const svc::ClientConfig& config, unsigned ordinal, std::uint64_t seed)
      : client(config), index(ordinal),
        rng(seed * 0x9E3779B97F4A7C15ull + ordinal + 1) {}

  svc::SvcClient client;
  unsigned index;
  std::uint64_t rng;
  std::uint64_t sent = 0;
  /// World version after this connection's last acknowledged reload.
  std::uint64_t acked_version = 1;
  std::string first_failure;
};

/// World version -> dataset recipe: the server boots recipe 0 as version
/// 1, and connection 0 (the only writer) alternates 1, 0, 1, ...
int dataset_of(std::uint64_t version) { return version % 2 == 1 ? 0 : 1; }

Outcome classify(const Error& error, Connection& conn) {
  if (svc::SvcClient::is_busy(error)) return Outcome::kBusy;
  if (conn.first_failure.empty()) conn.first_failure = error.to_string();
  return Outcome::kError;
}

Outcome check(bool ok, Connection& conn, const char* what) {
  if (!ok && conn.first_failure.empty()) {
    conn.first_failure = std::string("wrong ") + what + " reply";
  }
  return ok ? Outcome::kOk : Outcome::kWrong;
}

void send_one(Connection& conn, const Inputs& in, Request& req) {
  ++conn.sent;
  req.id = (static_cast<std::uint64_t>(conn.index) << 40) | conn.sent;
  const std::uint64_t r = next_random(conn.rng);
  if (conn.index == 0 && conn.sent % kReloadEvery == 0) {
    req.kind = kReload;
  } else if (conn.sent % kCampaignEvery == 0) {
    req.kind = kRunCell;
  } else {
    req.kind = static_cast<Kind>(r % 3);
  }
  const std::size_t pick = static_cast<std::size_t>(r >> 8);
  req.sent = Clock::now();
  switch (req.kind) {
    case kSubmitJob: {
      const std::size_t i = pick % in.jobs.size();
      auto reply = conn.client.submit_job(in.jobs[i]);
      if (!reply) {
        req.outcome = classify(reply.error(), conn);
        break;
      }
      const auto& want =
          in.projections[dataset_of(conn.client.last_world_version())][i];
      req.outcome = check(reply.value().start == want.start &&
                              reply.value().wait == want.wait,
                          conn, "submit-job");
      break;
    }
    case kWhatIf: {
      auto reply = conn.client.what_if(in.candidates);
      if (!reply) {
        req.outcome = classify(reply.error(), conn);
        break;
      }
      req.outcome = check(
          svc::encode_verdicts(reply.value()) ==
              in.verdicts[dataset_of(conn.client.last_world_version())],
          conn, "what-if");
      break;
    }
    case kTraceExplain: {
      const std::size_t i = pick % in.pairs.size();
      auto reply = conn.client.trace_explain(in.pairs[i].a, in.pairs[i].b);
      if (!reply) {
        req.outcome = classify(reply.error(), conn);
        break;
      }
      req.outcome = check(reply.value() == in.explains[i], conn, "trace-explain");
      break;
    }
    case kRunCell: {
      const std::size_t i = pick % in.cells.size();
      auto reply = conn.client.run_cell(in.cells[i]);
      if (!reply) {
        req.outcome = classify(reply.error(), conn);
        break;
      }
      campaign::CellResult result = std::move(reply).value();
      result.wall_ms = 0;
      req.outcome = check(campaign::encode_cell_result_payload(result) ==
                              in.cell_results[i],
                          conn, "campaign-cell");
      break;
    }
    case kReload: {
      const std::uint64_t next = conn.acked_version + 1;
      auto ack = conn.client.reload(in.datasets[dataset_of(next)]);
      if (!ack) {
        req.outcome = classify(ack.error(), conn);
        break;
      }
      req.outcome = check(ack.value().version == next, conn, "reload");
      conn.acked_version = ack.value().version;
      break;
    }
    case kKinds:
      break;
  }
  req.done = Clock::now();
}

/// User plus system CPU time of process `pid` so far, ms (-1 if unreadable).
double process_cpu_ms(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)), {});
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(text.substr(close + 2));
  std::string skip;
  for (int field = 3; field < 14; ++field) fields >> skip;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  if (!(fields >> utime >> stime)) return -1.0;
  return 1000.0 * static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

void wait_until(Clock::time_point due) {
  for (;;) {
    const auto now = Clock::now();
    if (now >= due) return;
    const auto left = due - now;
    if (left > std::chrono::microseconds(300)) {
      std::this_thread::sleep_for(left - std::chrono::microseconds(200));
    } else {
      std::this_thread::yield();
    }
  }
}

/// A phase's requests from every connection, in send order per connection.
struct Phase {
  std::string name;
  double offered_rps = 0.0;  // 0 = closed loop
  double duration_ms = 0.0;
  Clock::time_point start;
  Clock::time_point end;
  std::vector<Request> requests;
};

/// Open loop: connection c sends at rate/connections, its schedule offset
/// by half a period from the other's, for `duration_ms`.
Phase open_loop(std::vector<Connection>& conns, const Inputs& in,
                const std::string& name, double rate_rps, double duration_ms) {
  Phase phase;
  phase.name = name;
  phase.offered_rps = rate_rps;
  std::vector<std::vector<Request>> per_conn(conns.size());
  const double period_ms = 1000.0 * static_cast<double>(conns.size()) / rate_rps;
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      const double offset_ms = period_ms * static_cast<double>(c) /
                               static_cast<double>(conns.size());
      for (std::size_t i = 0;; ++i) {
        const double at_ms = offset_ms + period_ms * static_cast<double>(i);
        if (at_ms >= duration_ms) break;
        Request req;
        req.due = t0 + std::chrono::nanoseconds(
                           static_cast<std::int64_t>(at_ms * 1e6));
        wait_until(req.due);
        send_one(conns[c], in, req);
        per_conn[c].push_back(req);
      }
    });
  }
  for (auto& t : threads) t.join();
  phase.start = t0;
  phase.end = Clock::now();
  phase.duration_ms = ms_between(t0, phase.end);
  for (auto& list : per_conn) {
    phase.requests.insert(phase.requests.end(), list.begin(), list.end());
  }
  return phase;
}

/// Closed loop: `total` requests split over the connections, each sent
/// as soon as the previous reply arrives.
Phase closed_loop(std::vector<Connection>& conns, const Inputs& in,
                  const std::string& name, std::int64_t total) {
  Phase phase;
  phase.name = name;
  std::vector<std::vector<Request>> per_conn(conns.size());
  const auto t0 = Clock::now();
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < conns.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::int64_t share = total / static_cast<std::int64_t>(conns.size());
      for (std::int64_t i = 0; i < share; ++i) {
        Request req;
        req.due = Clock::now();
        send_one(conns[c], in, req);
        per_conn[c].push_back(req);
      }
    });
  }
  for (auto& t : threads) t.join();
  phase.start = t0;
  phase.end = Clock::now();
  phase.duration_ms = ms_between(t0, phase.end);
  for (auto& list : per_conn) {
    phase.requests.insert(phase.requests.end(), list.begin(), list.end());
  }
  return phase;
}

double p99_from_due(const Phase& phase) {
  std::vector<double> lat;
  for (const Request& r : phase.requests) lat.push_back(ms_between(r.due, r.done));
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  return lat[static_cast<std::size_t>(0.99 * static_cast<double>(lat.size() - 1))];
}

void write_phase(JsonWriter& json, const Phase& phase, bool samples) {
  json.open_object();
  json.string("name", phase.name);
  json.number("offered_rps", phase.offered_rps);
  json.number("duration_ms", phase.duration_ms);
  std::uint64_t counts[4] = {0, 0, 0, 0};
  std::vector<double> due, lat, lag;
  std::vector<double> rtt[kKinds];
  for (const Request& r : phase.requests) {
    ++counts[static_cast<int>(r.outcome)];
    if (!samples) continue;
    due.push_back(ms_between(phase.start, r.due));
    lat.push_back(ms_between(r.due, r.done));
    lag.push_back(ms_between(r.due, r.sent));
    rtt[r.kind].push_back(ms_between(r.sent, r.done));
  }
  json.number("attempted", static_cast<double>(phase.requests.size()));
  json.number("ok", static_cast<double>(counts[0]));
  json.number("busy", static_cast<double>(counts[1]));
  json.number("errors", static_cast<double>(counts[2]));
  json.number("wrong", static_cast<double>(counts[3]));
  if (samples) {
    json.numbers("due_ms", due);
    json.numbers("lat_ms", lat);
    json.numbers("lag_ms", lag);
    json.open_object("rtt_ms");
    for (int k = 0; k < kKinds; ++k) json.numbers(kKindNames[k], rtt[k]);
    json.close_object();
  }
  json.number("p99_ms", p99_from_due(phase));
  json.close_object();
}

}  // namespace

int run_svc(const SvcOptions& options) {
  auto endpoint = twinsvc::Endpoint::parse(options.endpoint);
  if (!endpoint) {
    std::fprintf(stderr, "%s\n", endpoint.error().to_string().c_str());
    return 2;
  }
  log::set_level(log::Level::kError);  // make_dataset warns per skipped job
  auto built = build_inputs(options);
  if (!built) {
    std::fprintf(stderr, "svc inputs: %s\n", built.error().to_string().c_str());
    return 1;
  }
  const Inputs& in = built.value();

  svc::ClientConfig config;
  config.endpoint = endpoint.value();
  config.timeout_ms = 30000;
  std::vector<Connection> conns;
  conns.reserve(kConnections);
  for (unsigned c = 0; c < kConnections; ++c) {
    conns.emplace_back(config, c, options.run.seed);
  }

  const double budget_ms = options.run.seconds * 1000.0;
  (void)closed_loop(conns, in, "warm", 400);

  std::vector<Phase> recorded;
  recorded.push_back(open_loop(conns, in, "ref", kRefRps,
                               options.phases == "ref" ? 0.6 * budget_ms
                                                       : 0.25 * budget_ms));
  std::vector<Phase> ladder;
  std::vector<double> batch_ms;
  std::vector<double> batch_cpu_ms;
  if (options.phases == "all") {
    const double rung_ms =
        std::max(500.0, 0.2 * budget_ms / static_cast<double>(std::size(kLadderRps)));
    for (const double rate : kLadderRps) {
      ladder.push_back(open_loop(conns, in, "ladder", rate, rung_ms));
      if (p99_from_due(ladder.back()) > kLatencyLimitMs) break;
    }
    const auto batch_start = Clock::now();
    do {
      const double cpu_before = process_cpu_ms(options.server_pid);
      recorded.push_back(
          closed_loop(conns, in, "batch", kBatchRequests));
      batch_ms.push_back(recorded.back().duration_ms);
      batch_cpu_ms.push_back(process_cpu_ms(options.server_pid) - cpu_before);
    } while (batch_ms.size() < 3 ||
             ms_between(batch_start, Clock::now()) + batch_ms.back() <=
                 0.4 * budget_ms);
  }

  Result<obs::StatsSnapshot> stats = obs::StatsSnapshot{};
  if (options.run.trace) stats = conns[0].client.stats();

  SpanLog spans(options.run.trace);
  std::uint64_t ops = 0;
  std::uint64_t failed_ops = 0;
  const auto tally = [&](const Phase& phase) {
    const std::uint64_t phase_span =
        spans.add("phase." + phase.name, 0, phase.start, phase.end);
    for (const Request& r : phase.requests) {
      ++ops;
      if (r.outcome != Outcome::kOk) ++failed_ops;
      spans.add(std::string("svc.") + kKindNames[r.kind], phase_span, r.sent,
                r.done, r.id);
    }
  };
  for (const Phase& p : recorded) tally(p);
  for (const Phase& p : ladder) tally(p);

  Checks checks;
  for (const Connection& conn : conns) {
    checks.expect(conn.first_failure.empty(),
                  "connection " + std::to_string(conn.index) + ": " +
                      conn.first_failure);
  }
  checks.expect(stats.ok(), "stats poll: " +
                                (stats.ok() ? std::string() : stats.error().to_string()));

  JsonWriter json;
  json.open_object();
  json.string("mode", "svc");
  json.number("ops", static_cast<double>(ops));
  json.number("failed_ops", static_cast<double>(failed_ops));
  json.number("latency_limit_ms", kLatencyLimitMs);
  json.numbers("batch_ms", batch_ms);
  json.numbers("batch_cpu_ms", batch_cpu_ms);
  json.open_array("phases");
  // Samples feed the traced run's layers and its untraced baseline.
  const bool samples = options.run.trace || options.phases == "ref";
  for (const Phase& p : recorded) write_phase(json, p, samples);
  json.close_array();
  json.open_array("ladder");
  for (const Phase& p : ladder) write_phase(json, p, false);
  json.close_array();
  json.checks("checks", checks);
  json.number("spans", static_cast<double>(spans.spans().size()));
  if (stats.ok()) json.registry("registry", stats.value());
  json.close_object();
  if (!spans.append_jsonl(options.run.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n",
                 options.run.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace perfbench
