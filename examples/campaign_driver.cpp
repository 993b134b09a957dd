// campaign_driver: fan a (policy × workload × seed × fault) campaign
// across a sched_server fleet — or run it in-process — and aggregate the
// cells into one deterministic report.
//
//   # 24 cells, all local:
//   $ ./campaign_driver --policies base,bf0.5w4,2d --seeds 1,2,3,4
//       --fault-rates 0,1e-4 --days 2
//
//   # same campaign over three servers (one may die; the driver requeues
//   # and finishes locally if it must), byte-identical --result-json:
//   $ ./sched_server --listen unix:/tmp/w1.sock &   # x3
//   $ ./campaign_driver ... --workers unix:/tmp/w1.sock,unix:/tmp/w2.sock
//       --workers unix:/tmp/w3.sock --result-json campaign.json
//
// Each cell is one request to the server's campaign plugin.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>

#include "campaign/aggregate.hpp"
#include "campaign/driver.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "twinsvc/stats.hpp"
#include "util/flags.hpp"
#include "util/fmt.hpp"
#include "util/strings.hpp"
#include "workload/synthetic.hpp"

using namespace amjs;

namespace {

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
  flags.define("machine", "intrepid", "machine model (intrepid or flat:<nodes>)");
  flags.define_list("policies", "base,bf0.5w4,2d,dynp,relaxed,lookahead",
                    "policy tokens (base, bf<F>w<N>, bf-adaptive, w-adaptive, "
                    "2d, dynp, relaxed, lookahead)");
  flags.define("days", "7", "synthetic workload horizon in days");
  flags.define("rate", "8", "synthetic base arrival rate (jobs/hour)");
  flags.define_list("seeds", "2012", "workload seeds (one axis point each)");
  flags.define_list("fault-rates", "",
                    "node failure rates per node-hour (empty = no fault axis)");
  flags.define("fairness-stride", "0",
               "fair-start sampling stride per cell (0 = skip the oracle)");
  flags.define_list("workers", "",
                    "sched_server endpoints (unix:/path or tcp:host:port); "
                    "empty runs every cell in-process");
  flags.define("cell-timeout-ms", "120000", "per-dispatch deadline per cell");
  flags.define("max-attempts", "3", "remote dispatches per cell before local");
  flags.define("backoff-ms", "100", "base backoff between failed dispatches");
  flags.define("result-json", "",
               "write the deterministic campaign report here (byte-identical "
               "for identical campaigns, local or distributed)");
  flags.define("trace-run-id", "1",
               "trace-context run id stamped into every dispatched cell "
               "(joins driver and server traces in trace_merge)");
  flags.define("fleet-stats", "",
               "poll servers' registries over kStatsRequest and write the "
               "folded fleet.<endpoint>.* stats JSON here");
  flags.define("fleet-stats-interval-ms", "1000",
               "fleet poll cadence while the campaign runs (<= 0 polls only "
               "once at the end)");
  flags.define_bool("list-cells", "print the cell enumeration and exit");
  obs::add_flags(flags);
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("campaign_driver").c_str());
    return 1;
  }
  if (flags.get_i64("fairness-stride") < 0) {
    std::fprintf(stderr, "--fairness-stride must be at least 0 (0 skips the oracle)\n%s",
                 flags.usage("campaign_driver").c_str());
    return 1;
  }
  obs::Session obs_session(flags);

  auto machine = parse_machine(flags.get("machine"));
  if (!machine.ok()) {
    std::fprintf(stderr, "%s\n", machine.error().to_string().c_str());
    return 1;
  }

  campaign::CampaignSpec spec;
  spec.machine = machine.value();
  for (const std::string& token : flags.get_list("policies")) {
    auto policy = campaign::PolicySpec::parse(token);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.error().to_string().c_str());
      return 1;
    }
    spec.policies.push_back(std::move(policy).value());
  }
  {
    campaign::WorkloadSpec workload;
    workload.synthetic.horizon = days(flags.get_i64("days"));
    workload.synthetic.base_rate_per_hour = flags.get_f64("rate");
    workload.label = format("synthetic-{}d", flags.get_i64("days"));
    spec.workloads.push_back(std::move(workload));
  }
  spec.seeds.clear();
  for (const std::int64_t seed : flags.get_i64_list("seeds")) {
    spec.seeds.push_back(static_cast<std::uint64_t>(seed));
  }
  for (const double rate : flags.get_f64_list("fault-rates")) {
    campaign::FaultProfileSpec profile;
    profile.label = rate > 0.0 ? format("fail:{}", rate) : "none";
    profile.model.rate_per_node_hour = rate;
    spec.fault_profiles.push_back(std::move(profile));
  }
  spec.fairness_stride =
      static_cast<std::uint64_t>(flags.get_i64("fairness-stride"));

  auto cells = campaign::enumerate_cells(spec);
  if (!cells.ok()) {
    std::fprintf(stderr, "%s\n", cells.error().to_string().c_str());
    return 1;
  }
  if (flags.get_bool("list-cells")) {
    for (const campaign::CellRequest& cell : cells.value()) {
      std::printf("%4llu  %-14s %-14s seed=%llu fault=%s\n",
                  static_cast<unsigned long long>(cell.cell_id),
                  cell.policy_label.c_str(), cell.workload_label.c_str(),
                  static_cast<unsigned long long>(cell.seed),
                  cell.fault_label.c_str());
    }
    return 0;
  }

  campaign::CampaignConfig config;
  for (const std::string& text : flags.get_list("workers")) {
    auto endpoint = twinsvc::Endpoint::parse(text);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "%s\n", endpoint.error().to_string().c_str());
      return 1;
    }
    config.workers.push_back(std::move(endpoint).value());
  }
  config.cell_timeout_ms = static_cast<int>(flags.get_i64("cell-timeout-ms"));
  config.max_remote_attempts = static_cast<int>(flags.get_i64("max-attempts"));
  config.backoff_base_ms = static_cast<int>(flags.get_i64("backoff-ms"));
  config.trace_sink = obs_session.sink();
  config.trace_run_id = static_cast<std::uint64_t>(flags.get_i64("trace-run-id"));

  std::printf("campaign: %zu cells (%zu policies x %zu workloads x %zu seeds "
              "x %zu faults) over %zu workers\n",
              cells.value().size(), spec.policies.size(), spec.workloads.size(),
              spec.seeds.size(),
              spec.fault_profiles.empty() ? 1 : spec.fault_profiles.size(),
              config.workers.size());

  // Fleet telemetry: poll every server's registry while the campaign runs
  // and once more after it, folding per-endpoint counters into this
  // process's registry as fleet.<endpoint>.* (the folds need the registry
  // armed even when --obs-stats was not given).
  const std::string fleet_stats_path = flags.get("fleet-stats");
  std::unique_ptr<twinsvc::FleetMonitor> fleet;
  if (!fleet_stats_path.empty() && !config.workers.empty()) {
    obs::Registry::set_enabled(true);
    twinsvc::FleetMonitorConfig fleet_config;
    fleet_config.interval_ms =
        static_cast<int>(flags.get_i64("fleet-stats-interval-ms"));
    fleet = std::make_unique<twinsvc::FleetMonitor>(config.workers,
                                                    fleet_config);
    fleet->start();
  }

  const campaign::CampaignOutcome outcome =
      campaign::run_cells(cells.value(), config);

  if (fleet != nullptr) {
    (void)fleet->final_poll();
    std::ofstream out(fleet_stats_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", fleet_stats_path.c_str());
      return 1;
    }
    obs::write_stats_json(out,
                          obs::Registry::global().snapshot_prefixed("fleet."));
  }
  auto report = campaign::build_report(spec, outcome.cells);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().to_string().c_str());
    return 1;
  }

  campaign::campaign_table(report.value()).print(std::cout);
  std::printf("\ncells: %zu remote, %zu local; %zu requeues, %zu duplicates, "
              "%zu workers retired\n",
              outcome.remote_cells, outcome.local_cells, outcome.requeues,
              outcome.duplicate_results, outcome.retired_workers);

  if (const std::string path = flags.get("result-json"); !path.empty()) {
    std::ofstream out(path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    campaign::write_campaign_json(out, report.value());
  }
  return 0;
}
