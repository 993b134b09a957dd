#include "campaign/frame.hpp"

#include "snapshot_io/binio.hpp"
#include "snapshot_io/snapshot_codec.hpp"
#include "twinsvc/frame.hpp"
#include "util/fmt.hpp"

namespace amjs::campaign {
namespace {

using snapshot_io::ByteReader;
using snapshot_io::ByteWriter;

/// Smallest plausible element encodings, capping reserve() on decode so a
/// corrupt count field cannot drive a huge allocation.
constexpr std::uint64_t kMinBurstBytes = 3 * 8;
constexpr std::uint64_t kMinScalarBytes = 8;

void write_synthetic(ByteWriter& w, const SyntheticConfig& cfg) {
  w.u64(cfg.seed);
  w.i64(cfg.horizon);
  w.f64(cfg.base_rate_per_hour);
  w.f64(cfg.diurnal_amplitude);
  w.u64(cfg.bursts.size());
  for (const BurstSpec& burst : cfg.bursts) {
    w.f64(burst.start_hour);
    w.f64(burst.duration_hours);
    w.f64(burst.rate_multiplier);
  }
  w.u64(cfg.sizes.size());
  for (const NodeCount size : cfg.sizes) w.i64(size);
  w.u64(cfg.size_weights.size());
  for (const double weight : cfg.size_weights) w.f64(weight);
  w.f64(cfg.runtime_log_mu);
  w.f64(cfg.runtime_log_sigma);
  w.i64(cfg.runtime_min);
  w.i64(cfg.runtime_max);
  w.u8(static_cast<std::uint8_t>(cfg.estimate_kind));
  w.f64(cfg.estimate_max_factor);
  w.i64(cfg.user_count);
}

Result<SyntheticConfig> read_synthetic(ByteReader& r) {
  SyntheticConfig cfg;
  auto seed = r.u64();
  if (!seed) return seed.error();
  cfg.seed = seed.value();
  auto horizon = r.i64();
  if (!horizon) return horizon.error();
  cfg.horizon = horizon.value();
  auto base_rate = r.f64();
  if (!base_rate) return base_rate.error();
  cfg.base_rate_per_hour = base_rate.value();
  auto diurnal = r.f64();
  if (!diurnal) return diurnal.error();
  cfg.diurnal_amplitude = diurnal.value();
  auto burst_count = r.count(r.remaining() / kMinBurstBytes);
  if (!burst_count) return burst_count.error();
  cfg.bursts.clear();
  cfg.bursts.reserve(burst_count.value());
  for (std::uint64_t i = 0; i < burst_count.value(); ++i) {
    BurstSpec burst;
    auto start = r.f64();
    if (!start) return start.error();
    burst.start_hour = start.value();
    auto duration = r.f64();
    if (!duration) return duration.error();
    burst.duration_hours = duration.value();
    auto multiplier = r.f64();
    if (!multiplier) return multiplier.error();
    burst.rate_multiplier = multiplier.value();
    cfg.bursts.push_back(burst);
  }
  auto size_count = r.count(r.remaining() / kMinScalarBytes);
  if (!size_count) return size_count.error();
  cfg.sizes.clear();
  cfg.sizes.reserve(size_count.value());
  for (std::uint64_t i = 0; i < size_count.value(); ++i) {
    auto size = r.i64();
    if (!size) return size.error();
    cfg.sizes.push_back(size.value());
  }
  auto weight_count = r.count(r.remaining() / kMinScalarBytes);
  if (!weight_count) return weight_count.error();
  cfg.size_weights.clear();
  cfg.size_weights.reserve(weight_count.value());
  for (std::uint64_t i = 0; i < weight_count.value(); ++i) {
    auto weight = r.f64();
    if (!weight) return weight.error();
    cfg.size_weights.push_back(weight.value());
  }
  if (cfg.sizes.size() != cfg.size_weights.size() || cfg.sizes.empty()) {
    return Error{format("size ladder ({}) and weights ({}) mismatch",
                        cfg.sizes.size(), cfg.size_weights.size())};
  }
  auto log_mu = r.f64();
  if (!log_mu) return log_mu.error();
  cfg.runtime_log_mu = log_mu.value();
  auto log_sigma = r.f64();
  if (!log_sigma) return log_sigma.error();
  cfg.runtime_log_sigma = log_sigma.value();
  auto runtime_min = r.i64();
  if (!runtime_min) return runtime_min.error();
  cfg.runtime_min = runtime_min.value();
  auto runtime_max = r.i64();
  if (!runtime_max) return runtime_max.error();
  cfg.runtime_max = runtime_max.value();
  auto estimate_kind = r.u8();
  if (!estimate_kind) return estimate_kind.error();
  if (estimate_kind.value() > static_cast<std::uint8_t>(EstimateKind::kBucketed)) {
    return Error{format("unknown estimate kind {}", estimate_kind.value())};
  }
  cfg.estimate_kind = static_cast<EstimateKind>(estimate_kind.value());
  auto max_factor = r.f64();
  if (!max_factor) return max_factor.error();
  cfg.estimate_max_factor = max_factor.value();
  auto user_count = r.i64();
  if (!user_count) return user_count.error();
  cfg.user_count = static_cast<int>(user_count.value());
  return cfg;
}

void write_failure_model(ByteWriter& w, const FailureModel& model) {
  w.f64(model.rate_per_node_hour);
  w.i64(model.max_restarts);
  w.u64(model.seed);
}

Result<FailureModel> read_failure_model(ByteReader& r) {
  FailureModel model;
  auto rate = r.f64();
  if (!rate) return rate.error();
  model.rate_per_node_hour = rate.value();
  auto max_restarts = r.i64();
  if (!max_restarts) return max_restarts.error();
  model.max_restarts = static_cast<int>(max_restarts.value());
  auto seed = r.u64();
  if (!seed) return seed.error();
  model.seed = seed.value();
  return model;
}

}  // namespace

std::string encode_run_cell_payload(const CellRequest& cell) {
  ByteWriter w;
  w.u64(cell.cell_id);
  w.str(cell.policy_token);
  w.str(cell.policy_label);
  w.str(cell.workload_label);
  w.str(cell.fault_label);
  w.u64(cell.seed);
  twinsvc::write_machine_spec(w, cell.machine);
  w.u8(static_cast<std::uint8_t>(cell.workload_kind));
  if (cell.workload_kind == WorkloadSpec::Kind::kSynthetic) {
    write_synthetic(w, cell.synthetic);
  } else {
    twinsvc::write_job_trace(w, cell.inline_trace);
  }
  write_failure_model(w, cell.failures);
  w.i64(cell.metric_check_interval);
  w.u64(cell.fairness_stride);
  w.i64(cell.fairness_tolerance);
  return std::move(w).take();
}

Result<CellRequest> decode_run_cell(std::string_view payload) {
  ByteReader r(payload);
  CellRequest cell;
  auto cell_id = r.u64();
  if (!cell_id) return cell_id.error();
  cell.cell_id = cell_id.value();
  auto policy_token = r.str();
  if (!policy_token) return policy_token.error();
  cell.policy_token = std::move(policy_token).value();
  auto policy_label = r.str();
  if (!policy_label) return policy_label.error();
  cell.policy_label = std::move(policy_label).value();
  auto workload_label = r.str();
  if (!workload_label) return workload_label.error();
  cell.workload_label = std::move(workload_label).value();
  auto fault_label = r.str();
  if (!fault_label) return fault_label.error();
  cell.fault_label = std::move(fault_label).value();
  auto seed = r.u64();
  if (!seed) return seed.error();
  cell.seed = seed.value();
  auto machine = twinsvc::read_machine_spec(r);
  if (!machine) return machine.error();
  cell.machine = machine.value();
  auto workload_kind = r.u8();
  if (!workload_kind) return workload_kind.error();
  if (workload_kind.value() >
      static_cast<std::uint8_t>(WorkloadSpec::Kind::kInline)) {
    return Error{format("unknown workload kind {}", workload_kind.value())};
  }
  cell.workload_kind = static_cast<WorkloadSpec::Kind>(workload_kind.value());
  if (cell.workload_kind == WorkloadSpec::Kind::kSynthetic) {
    auto synthetic = read_synthetic(r);
    if (!synthetic) return synthetic.error();
    cell.synthetic = std::move(synthetic).value();
  } else {
    auto trace = twinsvc::read_job_trace(r);
    if (!trace) return trace.error();
    cell.inline_trace = std::move(trace).value();
  }
  auto failures = read_failure_model(r);
  if (!failures) return failures.error();
  cell.failures = failures.value();
  auto interval = r.i64();
  if (!interval) return interval.error();
  cell.metric_check_interval = interval.value();
  if (cell.metric_check_interval <= 0) {
    return Error{format("bad metric check interval {}",
                        cell.metric_check_interval)};
  }
  auto stride = r.u64();
  if (!stride) return stride.error();
  cell.fairness_stride = stride.value();
  auto tolerance = r.i64();
  if (!tolerance) return tolerance.error();
  cell.fairness_tolerance = tolerance.value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after run-cell payload",
                        r.remaining())};
  }
  if (auto policy = PolicySpec::parse(cell.policy_token); !policy.ok()) {
    return policy.error();
  }
  return cell;
}

std::string encode_cell_result_payload(const CellResult& result) {
  ByteWriter w;
  w.u64(result.cell_id);
  snapshot_io::write_sim_result(w, result.result);
  w.boolean(result.has_fairness);
  if (result.has_fairness) {
    w.u64(result.fairness.fair_start.size());
    for (const SimTime t : result.fairness.fair_start) w.i64(t);
    w.u64(result.fairness.unfair_jobs.size());
    for (const JobId id : result.fairness.unfair_jobs) w.i64(id);
  }
  w.i64(result.wall_ms);
  return std::move(w).take();
}

Result<CellResult> decode_cell_result(std::string_view payload) {
  ByteReader r(payload);
  CellResult result;
  auto cell_id = r.u64();
  if (!cell_id) return cell_id.error();
  result.cell_id = cell_id.value();
  auto sim_result = snapshot_io::read_sim_result(r);
  if (!sim_result) return sim_result.error();
  result.result = std::move(sim_result).value();
  auto has_fairness = r.boolean();
  if (!has_fairness) return has_fairness.error();
  result.has_fairness = has_fairness.value();
  if (result.has_fairness) {
    auto start_count = r.count(r.remaining() / kMinScalarBytes);
    if (!start_count) return start_count.error();
    result.fairness.fair_start.clear();
    result.fairness.fair_start.reserve(start_count.value());
    for (std::uint64_t i = 0; i < start_count.value(); ++i) {
      auto t = r.i64();
      if (!t) return t.error();
      result.fairness.fair_start.push_back(t.value());
    }
    auto unfair_count = r.count(r.remaining() / kMinScalarBytes);
    if (!unfair_count) return unfair_count.error();
    result.fairness.unfair_jobs.clear();
    result.fairness.unfair_jobs.reserve(unfair_count.value());
    for (std::uint64_t i = 0; i < unfair_count.value(); ++i) {
      auto id = r.i64();
      if (!id) return id.error();
      result.fairness.unfair_jobs.push_back(static_cast<JobId>(id.value()));
    }
  }
  auto wall_ms = r.i64();
  if (!wall_ms) return wall_ms.error();
  result.wall_ms = wall_ms.value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after cell-result payload",
                        r.remaining())};
  }
  return result;
}

}  // namespace amjs::campaign
