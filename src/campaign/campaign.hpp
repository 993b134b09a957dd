// Campaign orchestration — the experiment-matrix layer (DESIGN.md
// "Campaign orchestration").
//
// A campaign is a cross product (policy × workload × seed × fault
// profile); each combination is one *cell*: a fully self-contained
// simulation request (machine model as data, workload as config or inline
// trace, policy as a parseable token) that any process can run and whose
// result is bit-reproducible. Cells are what the campaign driver
// (campaign/driver.hpp) fans across scheduler-service fleets through the
// campaign plugin, and what the aggregator (campaign/aggregate.hpp)
// folds back into Table-II-style reports — in cell-id order, so the final
// report is byte-identical no matter where or in what order cells ran.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics/fairness.hpp"
#include "platform/machine_spec.hpp"
#include "sim/failures.hpp"
#include "sim/result.hpp"
#include "sim/simulator.hpp"
#include "util/result.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace amjs::campaign {

/// A scheduling policy as a wire-safe token. Tokens cover every
/// configuration the paper's tables compare (BalancerSpec rows except the
/// what-if tuner, whose spec holds process-local closures, plus the
/// related-work baselines):
///
///   "base" / "fcfs"  FCFS + EASY (BF=1, W=1)
///   "bf<F>w<N>"      static metric-aware policy, e.g. "bf0.5w4"
///   "bf-adaptive"    adaptive BF, queue-depth monitor
///   "w-adaptive"     adaptive W, utilization monitor
///   "2d"             both adaptive schemes
///   "dynp"           dynP policy switching (Streit)
///   "relaxed"        relaxed backfilling (Ward et al.)
///   "lookahead"      lookahead packing (Shmueli-Feitelson)
struct PolicySpec {
  std::string token;
  /// Display label; empty = derived from the token (Table-II style).
  std::string label;

  /// Validates and canonicalizes `token` (case/whitespace-insensitive).
  [[nodiscard]] static Result<PolicySpec> parse(std::string_view token);

  [[nodiscard]] std::string display_name() const;

  /// Fresh scheduler instance (asserts the token parses; use parse()
  /// first for untrusted input).
  [[nodiscard]] std::unique_ptr<Scheduler> make() const;

  /// Factory closure — what the fair-start oracle replays per probe.
  [[nodiscard]] std::function<std::unique_ptr<Scheduler>()> factory() const;
};

struct WorkloadSpec {
  enum class Kind : std::uint8_t { kSynthetic = 0, kInline = 1 };

  Kind kind = Kind::kSynthetic;
  /// kSynthetic: generator config. The campaign's seed axis overrides
  /// `synthetic.seed` per cell.
  SyntheticConfig synthetic;
  /// kInline: a fixed trace shipped verbatim inside each cell (SWF
  /// replays). The seed axis does not perturb an inline trace.
  JobTrace inline_trace;
  std::string label = "synthetic";
};

/// One point on the fault axis; the default profile injects nothing.
struct FaultProfileSpec {
  std::string label = "none";
  FailureModel model;
};

struct CampaignSpec {
  MachineSpec machine = MachineSpec::partitioned();
  std::vector<PolicySpec> policies;
  std::vector<WorkloadSpec> workloads;
  std::vector<std::uint64_t> seeds = {2012};
  /// Empty = one implicit no-fault profile.
  std::vector<FaultProfileSpec> fault_profiles;

  /// Paper's C_i, applied to every cell.
  Duration metric_check_interval = minutes(30);

  /// Fair-start oracle sampling: 0 skips fairness entirely (the oracle is
  /// O(n) simulations per cell); k >= 1 evaluates every k-th job.
  std::uint64_t fairness_stride = 0;
  Duration fairness_tolerance = hours(4);
};

/// One self-contained unit of campaign work. Everything needed to run the
/// simulation travels with the cell, so any worker can serve any cell and
/// a retry is always safe.
struct CellRequest {
  std::uint64_t cell_id = 0;

  std::string policy_token;
  std::string policy_label;
  std::string workload_label;
  std::string fault_label;
  std::uint64_t seed = 0;

  MachineSpec machine;
  WorkloadSpec::Kind workload_kind = WorkloadSpec::Kind::kSynthetic;
  /// kSynthetic: `synthetic.seed` is already the cell's seed.
  SyntheticConfig synthetic;
  JobTrace inline_trace;

  FailureModel failures;
  Duration metric_check_interval = minutes(30);
  std::uint64_t fairness_stride = 0;
  Duration fairness_tolerance = hours(4);

  /// The cell's workload (generates or copies the trace).
  [[nodiscard]] JobTrace build_trace() const;
};

/// Expand the cross product into cells with the deterministic id
///   ((p * W + w) * S + s) * F + f
/// over policy index p, workload index w, seed index s, fault index f —
/// the order the aggregator reports rows in. Fails on an empty axis, an
/// invalid machine, or an unparseable policy token.
[[nodiscard]] Result<std::vector<CellRequest>> enumerate_cells(
    const CampaignSpec& spec);

struct CellResult {
  std::uint64_t cell_id = 0;
  SimResult result;
  /// Fairness is present iff the cell's stride was nonzero; computed where
  /// the cell ran (it is the dominant cost, so it distributes too).
  bool has_fairness = false;
  FairnessResult fairness;
  /// Wall-clock cost of the run; diagnostic only — excluded from every
  /// deterministic output.
  std::int64_t wall_ms = 0;
};

/// Run one cell to completion. Shared by the server's campaign plugin
/// and the driver's local/fallback path, so a cell's result is bit-identical
/// wherever it runs (wall_ms excepted).
[[nodiscard]] CellResult run_cell(const CellRequest& cell);

}  // namespace amjs::campaign
