// sched_server: the server binary of the service (src/svc).
//
// Loads a synthetic dataset (machine + workload + snapshot + calendar
// plan) at startup, then serves plugin requests — submit-job, what-if,
// trace-explain, campaign cells, twin evals — from any number of
// concurrent clients, with the reload admin plugin hot-swapping the
// resident dataset live. The server side of `svc_client --connect`,
// `policy_explorer --twin-remote` and `campaign_driver --workers`.
//
//   $ ./sched_server --listen unix:/tmp/sched.sock
//   $ ./sched_server --listen tcp:127.0.0.1:7801 --machine flat:256
//
// --ready-file PATH writes the resolved endpoint (ephemeral tcp ports
// included) once the server is accepting, so scripts can wait for it.
// --max-inflight / --max-queue bound admission (excess load is shed with
// kSvcBusy). --fail-first / --fail-after / --stall-ms / --garbage are the
// fault-injection harness CI uses: they abort requests, blow deadlines,
// or corrupt reply CRCs on a deterministic schedule.
#include <chrono>
#include <csignal>
#include <cstdio>
#include <string>
#include <thread>

#include "obs/session.hpp"
#include "svc/facade.hpp"
#include "svc/server.hpp"
#include "util/flags.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

using namespace amjs;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

Result<MachineSpec> parse_machine(const std::string& text) {
  if (text == "intrepid") return MachineSpec::partitioned();
  if (text.rfind("flat:", 0) == 0) {
    const auto nodes = parse_i64(std::string_view(text).substr(5));
    if (!nodes || *nodes <= 0) {
      return Error{"machine flat:<nodes> needs a positive node count"};
    }
    return MachineSpec::flat(*nodes);
  }
  return Error{"unknown machine '" + text + "' (intrepid or flat:<nodes>)"};
}

}  // namespace

int main(int argc, const char** argv) {
  Flags flags;
  flags.define("listen", "unix:/tmp/amjs_sched_server.sock",
               "endpoint to serve (unix:/path or tcp:host:port; tcp port 0 "
               "picks an ephemeral port)");
  flags.define("ready-file", "",
               "write the resolved endpoint here once accepting");
  flags.define("machine", "flat:512",
               "resident machine model (intrepid or flat:<nodes>)");
  flags.define("dataset-label", "boot", "label of the initial dataset");
  flags.define("seed", "2012", "synthetic workload seed");
  flags.define("days", "2", "synthetic workload horizon in days");
  flags.define("rate", "6.0", "mean arrival rate, jobs/hour");
  flags.define("snapshot-check", "8",
               "capture the resident snapshot at this metric check");
  flags.define("threads", "0", "what-if fork fan-out threads (0 = auto)");
  flags.define("io-timeout-ms", "30000", "per-socket-operation timeout");
  flags.define("max-inflight", "8", "requests executing concurrently");
  flags.define("max-queue", "32",
               "requests waiting for a slot before kSvcBusy shedding");
  flags.define("stall-ms", "0",
               "fault injection: sleep inside every admitted request");
  flags.define("fail-first", "0",
               "fault injection: drop each of the first N admitted requests "
               "without a reply");
  flags.define("fail-after", "-1",
               "fault injection: serve N admitted requests, then drop every "
               "later one (-1 = never)");
  flags.define_bool("garbage",
                    "fault injection: corrupt the CRC of every reply");
  obs::add_flags(flags);
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("sched_server").c_str());
    return 1;
  }
  // Checked before anything starts: a negative count would otherwise
  // wrap (--threads) or fail every request (--io-timeout-ms).
  for (const char* name : {"threads", "io-timeout-ms", "stall-ms", "fail-first"}) {
    if (flags.get_i64(name) < 0) {
      std::fprintf(stderr, "--%s must be at least 0\n%s", name,
                   flags.usage("sched_server").c_str());
      return 1;
    }
  }
  if (flags.get_i64("fail-after") < -1) {
    std::fprintf(stderr, "--fail-after must be at least -1 (-1 = never)\n%s",
                 flags.usage("sched_server").c_str());
    return 1;
  }
  obs::Session obs_session(flags);

  auto machine = parse_machine(flags.get("machine"));
  if (!machine.ok()) {
    std::fprintf(stderr, "%s\n", machine.error().to_string().c_str());
    return 1;
  }

  svc::DatasetSpec spec;
  spec.label = flags.get("dataset-label");
  spec.machine = machine.value();
  spec.seed = static_cast<std::uint64_t>(flags.get_i64("seed"));
  spec.horizon = days(flags.get_i64("days"));
  spec.base_rate_per_hour = flags.get_f64("rate");
  spec.snapshot_check =
      static_cast<std::size_t>(flags.get_i64("snapshot-check"));

  log::info("sched_server: building dataset {} ({}, seed {})", spec.label,
            spec.machine.label(), spec.seed);
  auto dataset = svc::make_dataset(spec);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.error().to_string().c_str());
    return 1;
  }
  auto world = svc::World::build(std::move(dataset).value(), /*version=*/1);
  if (!world.ok()) {
    std::fprintf(stderr, "%s\n", world.error().to_string().c_str());
    return 1;
  }

  twinsvc::ListenOptions listen_options;
  listen_options.ready_file = flags.get("ready-file");
  auto listener = twinsvc::bind_listener(flags.get("listen"), listen_options);
  if (!listener.ok()) {
    std::fprintf(stderr, "%s\n", listener.error().to_string().c_str());
    return 1;
  }

  svc::ServerConfig config;
  config.threads = static_cast<unsigned>(flags.get_i64("threads"));
  config.io_timeout_ms = static_cast<int>(flags.get_i64("io-timeout-ms"));
  config.max_inflight = static_cast<int>(flags.get_i64("max-inflight"));
  config.max_queue = static_cast<int>(flags.get_i64("max-queue"));
  config.faults.stall_ms = flags.get_i64("stall-ms");
  config.faults.fail_first = flags.get_i64("fail-first");
  config.faults.fail_after = flags.get_i64("fail-after");
  config.faults.garbage = flags.get_bool("garbage");
  // Request spans carry the caller's trace context, so driver and server
  // traces join in trace_merge.
  config.trace_sink = obs_session.sink();

  svc::SchedServer server(std::move(listener).value(),
                          std::move(world).value(), config);
  log::set_tag(server.endpoint().to_string());
  log::info("sched_server: serving {} (world version {})",
            server.endpoint().to_string(), server.facade().version());

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  server.start();
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  log::info("sched_server: stopping ({} requests served, world version {})",
            server.requests_served(), server.facade().version());
  server.stop();
  return 0;
}
