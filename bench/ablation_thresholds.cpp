// Ablation D3 — sensitivity of adaptive BF tuning to the queue-depth
// threshold Th (the paper fixes Th = 1000 min, "set based on the whole
// month's average").
//
// Sweeps Th and reports average wait, peak queue depth, and unfair count:
// too low a threshold keeps the scheduler in SJF-mode (fairness pays);
// too high and the scheme never fires (waits revert to FCFS).
#include <cstdio>
#include <iostream>

#include "common.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"

namespace amjs::bench {
namespace {

int run(int argc, const char** argv) {
  Flags flags;
  flags.define("horizon-days", "7", "trace length in days");
  flags.define("seed", "2012", "workload seed");
  flags.define("fairness-stride", "1",
               "evaluate every k-th job's fair start (1 = every job)");
  if (const auto parsed = flags.parse(argc, argv); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("ablation_thresholds").c_str());
    return 1;
  }
  if (flags.get_i64("fairness-stride") < 1) {
    std::fprintf(stderr, "--fairness-stride must be at least 1\n%s",
                 flags.usage("ablation_thresholds").c_str());
    return 1;
  }
  const auto trace = intrepid_trace(days(flags.get_i64("horizon-days")),
                                    static_cast<std::uint64_t>(flags.get_i64("seed")));
  const auto stride = static_cast<std::size_t>(flags.get_i64("fairness-stride"));

  std::printf("=== Ablation D3: QD-threshold sensitivity of adaptive BF ===\n");
  std::printf("trace: %zu jobs; unfair tolerance %.0f min; stride %zu\n\n",
              trace.size(), to_minutes(kUnfairTolerance), stride);

  TextTable t({"threshold (min)", "avg wait (min)", "peak QD (min)", "unfair #",
               "adjustments"});
  for (const double threshold : {125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0,
                                 8000.0}) {
    const auto spec = BalancerSpec::bf_adaptive(threshold);
    auto machine = intrepid_machine();
    const auto scheduler = MetricsBalancer::make(spec);
    Simulator sim(*machine, *scheduler);
    const auto result = sim.run(trace);

    FairStartEvaluator eval(&intrepid_machine, MetricsBalancer::factory(spec));
    const auto fairness = eval.evaluate(trace, result, kUnfairTolerance, stride);

    const auto* adaptive = dynamic_cast<const AdaptiveScheduler*>(scheduler.get());
    t.add_row({TextTable::num(threshold, 0),
               TextTable::num(avg_wait_minutes(result), 1),
               TextTable::num(result.queue_depth.max_value(), 0),
               TextTable::num(static_cast<std::int64_t>(fairness.unfair_count())),
               TextTable::num(static_cast<std::int64_t>(
                   adaptive ? adaptive->adjustments() : 0))});
  }
  t.print(std::cout);
  std::printf("\nreading: waits should rise with the threshold (the scheme fires\n"
              "later) while unfair counts fall; the paper's 1000-minute choice\n"
              "sits on the knee of that trade-off for this workload.\n");
  return 0;
}

}  // namespace
}  // namespace amjs::bench

int main(int argc, const char** argv) { return amjs::bench::run(argc, argv); }
