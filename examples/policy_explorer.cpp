// policy_explorer: sweep the (BF, W) policy space over any workload and
// emit CSV for plotting.
//
// The workload is either an SWF file (positional argument) replayed on a
// flat machine sized by --nodes, or — with no argument — the synthetic
// Intrepid workload on the BG/P partition machine.
//
//   $ ./policy_explorer                          # synthetic Intrepid
//   $ ./policy_explorer LLNL-Atlas.swf --nodes 9216 --procs-per-node 8
//   $ ./policy_explorer --bf 1,0.5 --w 1,4 --fairness
//   $ ./policy_explorer --what-if                # twin tuner vs reactive
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/balancer.hpp"
#include "core/what_if.hpp"
#include "metrics/fairness.hpp"
#include "metrics/report.hpp"
#include "obs/registry.hpp"
#include "obs/session.hpp"
#include "platform/flat.hpp"
#include "platform/machine_spec.hpp"
#include "platform/partition.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "snapshot_io/checkpoint.hpp"
#include "twinsvc/client.hpp"
#include "twinsvc/stats.hpp"
#include "util/flags.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "workload/swf.hpp"
#include "workload/synthetic.hpp"

using namespace amjs;

namespace {

}  // namespace

int main(int argc, const char** argv) {
  Flags flags;
  flags.define("nodes", "0", "machine size for SWF replays (0 = max job size)");
  flags.define("procs-per-node", "1", "SWF processor -> node divisor");
  flags.define("days", "7", "synthetic horizon (no-SWF mode)");
  flags.define("seed", "2012", "synthetic seed");
  flags.define_list("bf", "1,0.75,0.5,0.25,0", "balance factors to sweep");
  flags.define_list("w", "1,2,4", "window sizes to sweep");
  flags.define_bool("fairness", "evaluate the (expensive) unfair-job count");
  flags.define("fairness-stride", "4", "fair-start sampling stride");
  flags.define_bool("what-if",
                    "compare the digital-twin WhatIfTuner against the "
                    "reactive tuners instead of sweeping the (BF, W) grid");
  flags.define("what-if-horizon-hours", "6", "twin fork horizon (what-if mode)");
  flags.define("twin-remote", "",
               "comma-separated sched_server endpoints (unix:/path or "
               "tcp:host:port); what-if consults run remotely, degrading to "
               "the in-process engine when no server answers");
  flags.define("twin-timeout-ms", "60000", "per-attempt remote consult deadline");
  flags.define("trace-run-id", "1",
               "trace-context run id stamped into every remote consult "
               "(joins this trace with the servers' in trace_merge)");
  flags.define("fleet-stats", "",
               "poll --twin-remote servers' registries and write the folded "
               "fleet.<endpoint>.* stats JSON here after the run");
  flags.define("result-json", "",
               "write the traced run's deterministic SimResult JSON here "
               "(what-if mode: the twin-tuner run; sweep mode: grid cell 0)");
  obs::add_flags(flags);
  snapshot_io::add_flags(flags);
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("policy_explorer").c_str());
    return 1;
  }
  if (flags.get_i64("fairness-stride") < 1) {
    std::fprintf(stderr, "--fairness-stride must be at least 1\n%s",
                 flags.usage("policy_explorer").c_str());
    return 1;
  }
  obs::Session obs_session(flags);
  // Checkpoint/resume applies to the *traced* run: the what-if row in
  // --what-if mode, grid cell 0 in sweep mode (the other cells are
  // independent re-runs a snapshot of one cell says nothing about).
  const auto ckpt = snapshot_io::CheckpointOptions::from_flags(flags);

  // Load or synthesize the workload and pick the machine model. The model
  // is kept as a MachineSpec (data, not a closure) so --twin-remote can
  // ship it to servers; the factory is derived from the spec, keeping the
  // local and remote fork machines one definition.
  JobTrace trace;
  MachineSpec machine_spec;
  std::function<std::unique_ptr<Machine>()> machine_factory;
  if (!flags.positional().empty()) {
    SwfReadOptions options;
    options.procs_per_node = static_cast<int>(flags.get_i64("procs-per-node"));
    auto loaded = read_swf_file(flags.positional().front(), options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.error().to_string().c_str());
      return 1;
    }
    trace = std::move(loaded).value();
    NodeCount nodes = flags.get_i64("nodes");
    if (nodes <= 0) nodes = trace.stats().max_nodes;
    machine_spec = MachineSpec::flat(nodes);
    machine_factory = machine_spec.factory();
    std::fprintf(stderr, "replaying %zu jobs on a %lld-node flat machine\n",
                 trace.size(), static_cast<long long>(nodes));
  } else {
    SyntheticConfig cfg;
    cfg.seed = static_cast<std::uint64_t>(flags.get_i64("seed"));
    cfg.horizon = days(flags.get_i64("days"));
    cfg.base_rate_per_hour = 8.0;
    cfg.runtime_log_sigma = 1.3;
    cfg.bursts = {{96.0, 12.0, 4.5}};
    trace = SyntheticTraceBuilder(cfg).build();
    machine_spec = MachineSpec::partitioned();
    machine_factory = machine_spec.factory();
    std::fprintf(stderr, "synthetic Intrepid workload: %zu jobs, load %.2f\n",
                 trace.size(), trace.stats().offered_load(kIntrepidNodes));
  }

  // --what-if: head-to-head of the digital-twin tuner against the paper's
  // reactive schemes on this workload, with the twin's overhead reported.
  if (flags.get_bool("what-if")) {
    std::unique_ptr<twinsvc::FleetMonitor> fleet;
    std::vector<BalancerSpec> specs = {
        BalancerSpec::bf_adaptive(),
        BalancerSpec::two_d(),
        BalancerSpec::what_if(machine_factory,
                              hours(flags.get_i64("what-if-horizon-hours"))),
    };
    // --twin-remote: the what-if row consults sched_server processes
    // (the eval plugin) instead of forking in-process. Remote verdicts
    // are bit-identical, so this changes who does the work, never the
    // schedule.
    if (const std::string remote = flags.get("twin-remote"); !remote.empty()) {
      twinsvc::RemoteTwinConfig remote_config;
      for (const auto field : split(remote, ',')) {
        auto endpoint = twinsvc::Endpoint::parse(field);
        if (!endpoint.ok()) {
          std::fprintf(stderr, "%s\n", endpoint.error().to_string().c_str());
          return 1;
        }
        remote_config.workers.push_back(std::move(endpoint).value());
      }
      remote_config.twin.horizon = specs.back().wi_horizon;
      remote_config.request_timeout_ms =
          static_cast<int>(flags.get_i64("twin-timeout-ms"));
      remote_config.trace_run_id =
          static_cast<std::uint64_t>(flags.get_i64("trace-run-id"));
      specs.back().wi_backend = std::make_shared<twinsvc::RemoteTwinEngine>(
          machine_spec, remote_config);
      // Fleet telemetry over the same endpoints (the folds need the
      // registry armed even without --obs-stats).
      if (const std::string path = flags.get("fleet-stats"); !path.empty()) {
        obs::Registry::set_enabled(true);
        fleet = std::make_unique<twinsvc::FleetMonitor>(remote_config.workers);
        fleet->start();
      }
    }
    CsvWriter csv(std::cout);
    csv.write_row({"policy", "avg_wait_min", "utilization", "loss_of_capacity",
                   "mean_queue_depth_min", "wall_ms"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const auto& spec = specs[i];
      auto machine = machine_factory();
      const auto scheduler = MetricsBalancer::make(spec);
      SimConfig config;
      // Trace only the twin-tuner run (the last spec): one policy per
      // trace file keeps the stream deterministic and Perfetto-readable.
      const bool instrumented = i + 1 == specs.size();
      if (instrumented) {
        config.trace_sink = obs_session.sink();
        snapshot_io::arm_checkpoint_sink(config, ckpt);
      }
      Simulator sim(*machine, *scheduler, config);
      const auto start = std::chrono::steady_clock::now();
      const auto run = instrumented ? snapshot_io::run_or_resume(sim, trace, ckpt)
                                    : Result<SimResult>(sim.run(trace));
      if (!run.ok()) {
        std::fprintf(stderr, "resume failed: %s\n",
                     run.error().to_string().c_str());
        return 1;
      }
      const SimResult& result = run.value();
      const double wall_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
      if (instrumented) {
        if (const std::string path = flags.get("result-json"); !path.empty()) {
          std::ofstream out(path);
          write_result_json(out, result);
        }
      }
      const auto report = make_report(spec.display_name(), trace, result);
      csv.write_row({spec.display_name(), TextTable::num(report.avg_wait_min, 2),
                     TextTable::num(report.utilization, 4),
                     TextTable::num(report.loss_of_capacity, 4),
                     TextTable::num(result.queue_depth.mean_value(), 1),
                     TextTable::num(wall_ms, 0)});
      if (const auto* tuner = dynamic_cast<const WhatIfTuner*>(scheduler.get())) {
        const auto& s = tuner->stats();
        std::fprintf(stderr,
                     "what-if overhead: %zu consultations, %zu forks, %zu "
                     "adoptions, %.0f ms in forks (%.1f ms/fork)\n",
                     s.evaluations, s.forks, s.adoptions, s.twin_wall_ms,
                     s.wall_ms_per_fork());
      }
    }
    if (fleet != nullptr) {
      (void)fleet->final_poll();
      const std::string path = flags.get("fleet-stats");
      std::ofstream out(path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      obs::write_stats_json(
          out, obs::Registry::global().snapshot_prefixed("fleet."));
    }
    return 0;
  }

  const bool with_fairness = flags.get_bool("fairness");
  const auto stride = static_cast<std::size_t>(flags.get_i64("fairness-stride"));

  // Build the (BF, W) grid, sweep it in parallel (each cell is an
  // independent simulation), then emit rows in grid order.
  struct Cell {
    double bf;
    double w;
  };
  std::vector<Cell> grid;
  for (const double bf : flags.get_f64_list("bf")) {
    for (const double w : flags.get_f64_list("w")) grid.push_back({bf, w});
  }

  std::string cell0_error;
  const auto rows = parallel_map<std::vector<std::string>>(
      grid.size(), [&](std::size_t i) {
        const auto [bf, w] = grid[i];
        const auto spec = BalancerSpec::fixed(bf, static_cast<int>(w));
        auto machine = machine_factory();
        const auto scheduler = MetricsBalancer::make(spec);
        SimConfig config;
        // The sweep runs cells concurrently; trace (and checkpoint) only
        // the first cell so the event stream stays a single coherent run.
        if (i == 0) {
          config.trace_sink = obs_session.sink();
          snapshot_io::arm_checkpoint_sink(config, ckpt);
        }
        Simulator sim(*machine, *scheduler, config);
        const auto run = i == 0 ? snapshot_io::run_or_resume(sim, trace, ckpt)
                                : Result<SimResult>(sim.run(trace));
        if (!run.ok()) {
          cell0_error = run.error().to_string();  // only cell 0 can fail
          return std::vector<std::string>{};
        }
        const SimResult& result = run.value();
        if (i == 0) {
          if (const std::string path = flags.get("result-json"); !path.empty()) {
            std::ofstream out(path);
            write_result_json(out, result);
          }
        }

        std::string unfair = "";
        if (with_fairness) {
          FairStartEvaluator eval(machine_factory, MetricsBalancer::factory(spec));
          unfair = std::to_string(
              eval.evaluate(trace, result, hours(4), stride).unfair_count());
        }
        const auto report = make_report(spec.display_name(), trace, result);
        return std::vector<std::string>{
            TextTable::num(bf, 2), TextTable::num(w, 0),
            TextTable::num(report.avg_wait_min, 2),
            TextTable::num(report.max_wait_min, 2),
            TextTable::num(report.utilization, 4),
            TextTable::num(report.loss_of_capacity, 4),
            TextTable::num(report.avg_bounded_slowdown, 3), unfair};
      });

  if (!cell0_error.empty()) {
    std::fprintf(stderr, "resume failed: %s\n", cell0_error.c_str());
    return 1;
  }
  CsvWriter csv(std::cout);
  csv.write_row({"bf", "w", "avg_wait_min", "max_wait_min", "utilization",
                 "loss_of_capacity", "avg_bounded_slowdown", "unfair_jobs"});
  for (const auto& row : rows) csv.write_row(row);
  return 0;
}
