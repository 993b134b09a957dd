// intrepid_campaign: a month-in-the-life comparison on the Intrepid-class
// machine — now a thin preset over the campaign orchestrator
// (src/campaign), so the same run can fan across sched_server fleets.
//
// Generates an Intrepid-calibrated synthetic workload (40,960-node BG/P
// partition machine, diurnal arrivals, one deep submission burst), then
// runs it under six operating points a center might actually choose:
//
//   * FCFS + EASY        (the industry default; paper's base case)
//   * BF=0.5 / W=4       (the paper's best static metric-aware policy)
//   * 2D adaptive        (the paper's headline configuration)
//   * dynP               (related-work self-tuning policy switcher)
//   * Relaxed(0.5)       (Ward et al. relaxed backfilling)
//   * Lookahead          (Shmueli-Feitelson packing)
//
// and prints a Table-II-style comparison. Fairness (the expensive oracle)
// is evaluated on a systematic sample; pass --fairness-stride 1 for the
// full count. --result-json writes the campaign aggregator's
// deterministic report — byte-identical whether the cells ran here or on
// a server fleet (--workers).
//
//   $ ./intrepid_campaign [--days 7] [--seed 2012] [--fairness-stride 4]
//       [--workers unix:/tmp/w1.sock,...] [--result-json out.json]
#include <cstdio>
#include <fstream>
#include <iostream>

#include "campaign/aggregate.hpp"
#include "campaign/driver.hpp"
#include "metrics/report.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/synthetic.hpp"

using namespace amjs;

namespace {

SyntheticConfig workload(std::int64_t days_count) {
  SyntheticConfig cfg;
  cfg.horizon = days(days_count);
  cfg.base_rate_per_hour = 8.0;
  cfg.runtime_log_sigma = 1.3;
  cfg.bursts = {{96.0, 12.0, 4.5}};
  return cfg;
}

}  // namespace

int main(int argc, const char** argv) {
  Flags flags;
  flags.define("days", "7", "workload horizon in days");
  flags.define("seed", "2012", "workload seed");
  flags.define("fairness-stride", "4", "fair-start sampling stride (1 = every job)");
  flags.define_list("workers", "",
                    "sched_server endpoints; empty runs every cell in-process");
  flags.define("result-json", "",
               "write the deterministic campaign report here");
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("intrepid_campaign").c_str());
    return 1;
  }
  if (flags.get_i64("fairness-stride") < 0) {
    std::fprintf(stderr, "--fairness-stride must be at least 0 (0 skips the oracle)\n%s",
                 flags.usage("intrepid_campaign").c_str());
    return 1;
  }

  campaign::CampaignSpec spec;
  spec.machine = MachineSpec::partitioned();
  for (const char* token :
       {"base", "bf0.5w4", "2d", "dynp", "relaxed", "lookahead"}) {
    auto policy = campaign::PolicySpec::parse(token);
    if (!policy.ok()) {
      std::fprintf(stderr, "%s\n", policy.error().to_string().c_str());
      return 1;
    }
    spec.policies.push_back(std::move(policy).value());
  }
  {
    campaign::WorkloadSpec workload_spec;
    workload_spec.synthetic = workload(flags.get_i64("days"));
    workload_spec.label = "intrepid";
    spec.workloads.push_back(std::move(workload_spec));
  }
  spec.seeds = {static_cast<std::uint64_t>(flags.get_i64("seed"))};
  spec.fairness_stride =
      static_cast<std::uint64_t>(flags.get_i64("fairness-stride"));
  spec.fairness_tolerance = hours(4);

  const auto trace =
      SyntheticTraceBuilder(
          [&] {
            SyntheticConfig cfg = spec.workloads[0].synthetic;
            cfg.seed = spec.seeds[0];
            return cfg;
          }())
          .build();
  const auto stats = trace.stats();
  std::printf("workload: %zu jobs over %.0f h, offered load %.2f on %d nodes\n\n",
              trace.size(), to_hours(stats.last_submit),
              stats.offered_load(kIntrepidNodes), static_cast<int>(kIntrepidNodes));

  campaign::CampaignConfig config;
  for (const std::string& text : flags.get_list("workers")) {
    auto endpoint = twinsvc::Endpoint::parse(text);
    if (!endpoint.ok()) {
      std::fprintf(stderr, "%s\n", endpoint.error().to_string().c_str());
      return 1;
    }
    config.workers.push_back(std::move(endpoint).value());
  }

  auto outcome = campaign::run_campaign(spec, config);
  if (!outcome.ok()) {
    std::fprintf(stderr, "%s\n", outcome.error().to_string().c_str());
    return 1;
  }
  auto report = campaign::build_report(spec, outcome.value().cells);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.error().to_string().c_str());
    return 1;
  }

  // One workload and seed, so the classic extended table reads cleanly:
  // one row per policy, in campaign (cell-id) order.
  TextTable table(MetricsReport::extended_headers());
  for (const campaign::CellReport& cell : report.value().cells) {
    table.add_row(cell.metrics.extended_row());
  }
  table.print(std::cout);
  std::printf("\n(unfair counts are sampled every %lld jobs; tolerance 4 h — "
              "see EXPERIMENTS.md)\n",
              static_cast<long long>(flags.get_i64("fairness-stride")));

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
