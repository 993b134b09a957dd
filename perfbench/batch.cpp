// Batch workloads, run in process against the amjs libraries.
//
//   fairstart  7-day Intrepid traces; the three W=1 Table II rows, each
//              with exact (stride 1) fair-start fairness and make_report.
//              The fair-start oracle does almost all of the work.
//   window7    2-day Intrepid traces; one BF=0.5/W=7 run each, no
//              fairness. The W! window search does almost all of the work.
//
// A run covers K traces (K fixed by --seconds): each a perturbation of the
// calibration trace drawn from (seed, k). The search and oracle costs of
// one trace swing by tens of percent with its queue's shape, so one run
// averages over many. The timed run (--trace 0) reports every trace's
// generation time and the summed wall time of the layer calls. The
// traced run covers half as many traces
// twice: untraced (the overhead baseline), then with spans around each
// layer call and the obs registry on around the primary simulations only,
// so its sim/core timers describe the primary runs and not the oracle's
// probe re-simulations.
#include <algorithm>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "core/balancer.hpp"
#include "harness.hpp"
#include "metrics/fairness.hpp"
#include "metrics/report.hpp"
#include "platform/partition.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "workload/synthetic.hpp"

namespace perfbench {
namespace {

using namespace amjs;

struct Plan {
  Duration horizon = 0;
  /// Length of the hour-96 submission surge (0 = none).
  double burst_hours = 0.0;
  std::vector<BalancerSpec> rows;
  bool fairness = false;
  /// Traces per second of budget at this machine's speed; fixes K so
  /// every run with the same --seconds does the same work.
  double traces_per_second = 1.0;
};

bool plan_for(const std::string& workload, Plan& plan) {
  if (workload == "fairstart") {
    // The calibration's 12-hour surge cut to 4 hours keeps one trace's
    // three rows near 2 s.
    plan.horizon = days(7);
    plan.burst_hours = 4.0;
    // The W=1 rows of Table II; BF Adapt. on table2_overall's threshold.
    plan.rows = {BalancerSpec::fixed(1.0, 1), BalancerSpec::fixed(0.5, 1),
                 BalancerSpec::bf_adaptive(250.0)};
    plan.fairness = true;
    plan.traces_per_second = 0.5;
    return true;
  }
  if (workload == "window7") {
    plan.horizon = days(2);
    plan.rows = {BalancerSpec::fixed(0.5, 7)};
    plan.fairness = false;
    plan.traces_per_second = 10.0;
    return true;
  }
  return false;
}

/// The Intrepid calibration of the paper benches (bench/common.cpp),
/// repeated here so the benchmark's inputs stay fixed whatever the
/// benches do later.
SyntheticConfig intrepid_workload(const Plan& plan, std::uint64_t seed) {
  SyntheticConfig cfg;
  cfg.seed = seed;
  cfg.horizon = plan.horizon;
  cfg.base_rate_per_hour = 8.0;
  cfg.diurnal_amplitude = 0.35;
  cfg.runtime_log_sigma = 1.3;
  cfg.bursts.clear();
  if (plan.burst_hours > 0.0) cfg.bursts.push_back({96.0, plan.burst_hours, 4.5});
  return cfg;
}

/// The trace the paper benches use by default.
constexpr std::uint64_t kCalibrationSeed = 2012;

/// Trace k of a run: the calibration trace with every submit time moved by
/// up to +-5 minutes and every runtime scaled by up to +-10% (never past
/// the walltime), drawn from (seed, k). Every trace keeps the calibration's
/// offered load and burst; each gets its own schedule.
Result<JobTrace> workload_trace(const JobTrace& base, std::uint64_t seed,
                                std::uint64_t k) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + k);
  const auto uniform = [&rng](double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
  };
  std::vector<Job> jobs(base.jobs().begin(), base.jobs().end());
  for (Job& job : jobs) {
    job.submit = std::max<SimTime>(
        0, job.submit + static_cast<SimTime>(std::llround(uniform(-300.0, 300.0))));
    const double runtime = static_cast<double>(job.runtime) * uniform(0.9, 1.1);
    job.runtime = std::clamp<Duration>(static_cast<Duration>(std::llround(runtime)),
                                       1, job.walltime);
  }
  return JobTrace::from_jobs(std::move(jobs));
}

constexpr Duration kUnfairTolerance = hours(4);

std::unique_ptr<Machine> intrepid_machine() {
  return std::make_unique<PartitionMachine>();
}

struct RowOutput {
  std::string name;
  SimResult result;
  FairnessResult fairness;
  MetricsReport report;
  double sim_ms = 0.0;
  double eval_ms = 0.0;
  double report_ms = 0.0;
  [[nodiscard]] double wall_ms() const { return sim_ms + eval_ms + report_ms; }
};

/// One row on one trace: the primary run, its fairness (when the plan has
/// it) and its report, each timed as a layer call. Checks and digests
/// happen afterwards, outside the timed calls.
RowOutput run_row(const JobTrace& trace, const Plan& plan, const BalancerSpec& spec,
                  SpanLog& spans, std::uint64_t parent, bool registry_on_sim) {
  RowOutput row;
  row.name = spec.display_name();

  auto t0 = Clock::now();
  {
    auto machine = intrepid_machine();
    const auto scheduler = MetricsBalancer::make(spec);
    Simulator sim(*machine, *scheduler);
    if (registry_on_sim) obs::Registry::set_enabled(true);
    row.result = sim.run(trace);
    if (registry_on_sim) obs::Registry::set_enabled(false);
  }
  auto t1 = Clock::now();
  row.sim_ms = ms_between(t0, t1);
  spans.add("sim.run", parent, t0, t1);

  if (plan.fairness) {
    const FairStartEvaluator evaluator(&intrepid_machine,
                                       MetricsBalancer::factory(spec));
    t0 = Clock::now();
    row.fairness = evaluator.evaluate(trace, row.result, kUnfairTolerance, 1);
    t1 = Clock::now();
    row.eval_ms = ms_between(t0, t1);
    spans.add("fairness.evaluate", parent, t0, t1);
  }

  t0 = Clock::now();
  row.report = make_report(row.name, trace, row.result,
                           plan.fairness ? &row.fairness : nullptr);
  t1 = Clock::now();
  row.report_ms = ms_between(t0, t1);
  spans.add("metrics.report", parent, t0, t1);
  return row;
}

std::string result_digest(const SimResult& result) {
  std::ostringstream json;
  write_result_json(json, result);
  return fnv1a_hex(json.str());
}

std::string fair_start_digest(const FairnessResult& fairness) {
  std::string text;
  for (const SimTime t : fairness.fair_start) {
    text += std::to_string(t);
    text += ',';
  }
  return fnv1a_hex(text);
}

/// Jobs the oracle had to re-simulate: started, but not at submission
/// (a job that starts on arrival is fair by definition). Counted from
/// the outputs, so any oracle implementation reports the same base.
std::size_t probe_count(const SimResult& result) {
  std::size_t probes = 0;
  for (const ScheduleEntry& e : result.schedule) {
    if (!e.skipped && e.started() && e.start != e.submit) ++probes;
  }
  return probes;
}

/// Seed-independent invariants of one row's outputs.
void check_row(const JobTrace& trace, const RowOutput& row, bool fairness,
               Checks& checks) {
  const SimResult& r = row.result;
  const std::string& name = row.name;
  checks.expect(r.schedule.size() == trace.size(),
                name + ": schedule has one entry per job");

  bool once = true;
  bool no_early = true;
  std::string first_bad;
  std::vector<std::pair<SimTime, std::int64_t>> deltas;
  deltas.reserve(2 * r.schedule.size());
  for (std::size_t i = 0; i < r.schedule.size(); ++i) {
    const ScheduleEntry& e = r.schedule[i];
    const bool started_once = e.job == static_cast<JobId>(i) && !e.skipped &&
                              e.started() && e.end != kNever &&
                              e.end >= e.start && e.attempts == 1;
    if (!started_once && once) {
      once = false;
      first_bad = std::to_string(i);
    }
    if (e.started() && (e.start < e.submit ||
                        e.submit != trace.job(static_cast<JobId>(i)).submit)) {
      no_early = false;
    }
    if (e.started() && e.end != kNever) {
      deltas.emplace_back(e.start, e.occupied);
      deltas.emplace_back(e.end, -static_cast<std::int64_t>(e.occupied));
    }
  }
  checks.expect(once, name + ": every job starts exactly once (first bad job " +
                          first_bad + ")");
  checks.expect(no_early, name + ": no job starts before its submit");

  // Releases before acquisitions at one instant: a job ending at t frees
  // its nodes for a job starting at t.
  std::sort(deltas.begin(), deltas.end());
  std::int64_t busy = 0;
  std::int64_t peak = 0;
  for (const auto& [time, delta] : deltas) {
    busy += delta;
    peak = std::max(peak, busy);
  }
  checks.expect(peak <= r.machine_nodes && busy == 0,
                name + ": busy nodes stay within the machine at every instant");
  checks.expect(row.report.jobs_finished == trace.size(),
                name + ": the report counts every job finished");

  if (fairness) {
    bool fair_ok = row.fairness.fair_start.size() == trace.size();
    for (std::size_t i = 0; fair_ok && i < trace.size(); ++i) {
      const SimTime f = row.fairness.fair_start[i];
      fair_ok = f != kNever && f >= trace.job(static_cast<JobId>(i)).submit;
    }
    checks.expect(fair_ok, name + ": every fair start is at or after submit");
  }
}

/// Layer totals of the traced round.
struct Traced {
  double run_ms = 0.0;
  double self_ms = 0.0;  // per-trace pass time inside no layer call
  double sim_ms = 0.0;
  double eval_ms = 0.0;
  double report_ms = 0.0;
  double probes = 0.0;
};

}  // namespace

int run_batch(const RunOptions& options) {
  Plan plan;
  if (!plan_for(options.workload, plan)) {
    std::fprintf(stderr, "unknown batch workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  const double budget_traces =
      std::max(1.0, std::round(options.seconds * plan.traces_per_second));
  const auto traces_k = static_cast<std::size_t>(
      options.trace ? std::ceil(budget_traces / 2.0) : budget_traces);

  // Set-up: trace generation, the calibration draw plus its perturbation,
  // once per trace.
  SpanLog spans(options.trace);
  Checks checks;
  std::vector<double> setup_ms;
  std::vector<JobTrace> traces;
  for (std::size_t k = 0; k < traces_k; ++k) {
    const auto t0 = Clock::now();
    const JobTrace base =
        SyntheticTraceBuilder(intrepid_workload(plan, kCalibrationSeed)).build();
    auto built = workload_trace(base, options.seed, k);
    const auto t1 = Clock::now();
    if (!built) {
      std::fprintf(stderr, "trace: %s\n", built.error().to_string().c_str());
      return 1;
    }
    traces.push_back(std::move(built).value());
    setup_ms.push_back(ms_between(t0, t1));
    spans.add("workload.build", 0, t0, t1);
  }

  SpanLog untraced(false);
  double run_ms = 0.0;
  Traced traced;
  std::uint64_t units = 0;
  std::uint64_t failed_units = 0;
  std::vector<std::string> result_digests;
  std::vector<std::string> fair_digests;
  for (int round = 0; round < (options.trace ? 2 : 1); ++round) {
    const bool trace_this = round == 1;
    if (trace_this) obs::Registry::global().reset_values();
    SpanLog& log = trace_this ? spans : untraced;
    for (std::size_t k = 0; k < traces_k; ++k) {
      const auto pass_start = Clock::now();
      const std::uint64_t pass_span = log.begin("pass");
      double layer_ms = 0.0;
      std::vector<RowOutput> rows;
      for (const BalancerSpec& spec : plan.rows) {
        rows.push_back(run_row(traces[k], plan, spec, log, pass_span, trace_this));
        layer_ms += rows.back().wall_ms();
      }
      log.end(pass_span);
      const double pass_ms = ms_between(pass_start, Clock::now());

      if (trace_this) {
        traced.run_ms += layer_ms;
        traced.self_ms += pass_ms - layer_ms;
        for (const RowOutput& row : rows) {
          traced.sim_ms += row.sim_ms;
          traced.eval_ms += row.eval_ms;
          traced.report_ms += row.report_ms;
          if (plan.fairness) {
            traced.probes += static_cast<double>(probe_count(row.result));
          }
        }
        continue;
      }
      run_ms += layer_ms;
      for (const RowOutput& row : rows) {
        ++units;
        Checks row_checks;
        check_row(traces[k], row, plan.fairness, row_checks);
        if (row_checks.failed() > 0) ++failed_units;
        checks.merge(row_checks);
        // Trace 0 of each row is the one pinned for the default seed.
        if (k == 0) {
          result_digests.push_back(result_digest(row.result));
          fair_digests.push_back(plan.fairness ? fair_start_digest(row.fairness)
                                               : "");
        }
      }
    }
  }
  const double rss_mb = peak_rss_mb();

  JsonWriter json;
  json.open_object();
  json.string("mode", "batch").string("workload", options.workload);
  json.number("traces", static_cast<double>(traces_k));
  json.number("jobs", static_cast<double>(traces.front().size()));
  json.number("rss_mb", rss_mb);
  json.number("ops", static_cast<double>(units));
  json.number("failed_ops", static_cast<double>(failed_units));
  json.numbers("setup_ms", setup_ms);
  json.number("run_ms", run_ms);
  json.open_array("rows");
  for (std::size_t i = 0; i < plan.rows.size(); ++i) {
    json.open_object();
    json.string("name", plan.rows[i].display_name());
    json.string("result_digest", result_digests[i]);
    json.string("fair_start_digest", fair_digests[i]);
    json.close_object();
  }
  json.close_array();
  json.checks("checks", checks);
  if (options.trace) {
    json.open_object("traced");
    json.number("untraced_run_ms", run_ms);
    json.number("run_ms", traced.run_ms);
    json.number("pass_self_ms", traced.self_ms);
    json.number("sim_ms", traced.sim_ms);
    json.number("eval_ms", traced.eval_ms);
    json.number("report_ms", traced.report_ms);
    json.number("probes", traced.probes);
    json.number("spans", static_cast<double>(spans.spans().size()));
    json.registry("registry", obs::Registry::global().snapshot());
    json.close_object();
  }
  json.close_object();
  if (!spans.append_jsonl(options.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", options.spans_path.c_str());
    return 1;
  }
  std::printf("%s\n", json.str().c_str());
  return 0;
}

}  // namespace perfbench
