#include "svc/frame.hpp"

#include <utility>

#include "snapshot_io/binio.hpp"
#include "util/fmt.hpp"

namespace amjs::svc {

using snapshot_io::ByteReader;
using snapshot_io::ByteWriter;

// --- Plugin bodies. ----------------------------------------------------

std::string encode_submit_job(const Job& job) {
  ByteWriter w;
  twinsvc::write_job(w, job);
  return std::move(w).take();
}

Result<Job> decode_submit_job(std::string_view body) {
  ByteReader r(body);
  auto job = twinsvc::read_job(r);
  if (!job) return job.error();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after submit-job body",
                        r.remaining())};
  }
  if (job.value().walltime <= 0 || job.value().nodes <= 0) {
    return Error{format("submit-job {}: walltime and nodes must be positive",
                        job.value().id)};
  }
  return job;
}

std::string encode_start_projection(const StartProjection& p) {
  ByteWriter w;
  w.i64(p.start);
  w.i64(p.wait);
  return std::move(w).take();
}

Result<StartProjection> decode_start_projection(std::string_view body) {
  ByteReader r(body);
  StartProjection projection;
  auto start = r.i64();
  if (!start) return start.error();
  projection.start = start.value();
  auto wait = r.i64();
  if (!wait) return wait.error();
  projection.wait = wait.value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after start-projection body",
                        r.remaining())};
  }
  return projection;
}

std::string encode_candidates(
    const std::vector<TwinCandidateSpec>& candidates) {
  ByteWriter w;
  twinsvc::write_candidates(w, candidates);
  return std::move(w).take();
}

Result<std::vector<TwinCandidateSpec>> decode_candidates(
    std::string_view body) {
  ByteReader r(body);
  auto candidates = twinsvc::read_candidates(r);
  if (!candidates) return candidates.error();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after candidate batch",
                        r.remaining())};
  }
  return candidates;
}

std::string encode_trace_pair(const TracePair& pair) {
  ByteWriter w;
  w.str(pair.a);
  w.str(pair.b);
  return std::move(w).take();
}

Result<TracePair> decode_trace_pair(std::string_view body) {
  ByteReader r(body);
  TracePair pair;
  auto a = r.str();
  if (!a) return a.error();
  pair.a = std::move(a).value();
  auto b = r.str();
  if (!b) return b.error();
  pair.b = std::move(b).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after trace pair", r.remaining())};
  }
  return pair;
}

std::string encode_dataset_spec(const DatasetSpec& spec) {
  ByteWriter w;
  w.str(spec.label);
  twinsvc::write_machine_spec(w, spec.machine);
  w.u64(spec.seed);
  w.i64(spec.horizon);
  w.f64(spec.base_rate_per_hour);
  w.u64(spec.snapshot_check);
  w.i64(spec.twin.horizon);
  w.i64(spec.twin.metric_check_interval);
  w.f64(spec.twin.queue_weight);
  w.f64(spec.twin.util_weight);
  return std::move(w).take();
}

Result<DatasetSpec> decode_dataset_spec(std::string_view body) {
  ByteReader r(body);
  DatasetSpec spec;
  auto label = r.str();
  if (!label) return label.error();
  spec.label = std::move(label).value();
  auto machine = twinsvc::read_machine_spec(r);
  if (!machine) return machine.error();
  spec.machine = machine.value();
  auto seed = r.u64();
  if (!seed) return seed.error();
  spec.seed = seed.value();
  auto horizon = r.time();
  if (!horizon) return horizon.error();
  spec.horizon = horizon.value();
  auto rate = r.f64();
  if (!rate) return rate.error();
  spec.base_rate_per_hour = rate.value();
  auto check = r.u64();
  if (!check) return check.error();
  spec.snapshot_check = check.value();
  auto twin_horizon = r.time();
  if (!twin_horizon) return twin_horizon.error();
  spec.twin.horizon = twin_horizon.value();
  auto twin_interval = r.time();
  if (!twin_interval) return twin_interval.error();
  spec.twin.metric_check_interval = twin_interval.value();
  auto queue_weight = r.f64();
  if (!queue_weight) return queue_weight.error();
  spec.twin.queue_weight = queue_weight.value();
  auto util_weight = r.f64();
  if (!util_weight) return util_weight.error();
  spec.twin.util_weight = util_weight.value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after dataset spec", r.remaining())};
  }
  if (spec.horizon <= 0 || spec.base_rate_per_hour <= 0.0 ||
      spec.snapshot_check == 0) {
    return Error{format("dataset spec {}: bad workload shape", spec.label)};
  }
  if (spec.twin.horizon <= 0 || spec.twin.metric_check_interval <= 0) {
    return Error{format("dataset spec {}: bad twin config", spec.label)};
  }
  return spec;
}

std::string encode_reload_ack(const ReloadAck& ack) {
  ByteWriter w;
  w.u64(ack.version);
  w.str(ack.label);
  return std::move(w).take();
}

Result<ReloadAck> decode_reload_ack(std::string_view body) {
  ByteReader r(body);
  ReloadAck ack;
  auto version = r.u64();
  if (!version) return version.error();
  ack.version = version.value();
  auto label = r.str();
  if (!label) return label.error();
  ack.label = std::move(label).value();
  if (!r.exhausted()) {
    return Error{format("{} trailing bytes after reload ack", r.remaining())};
  }
  return ack;
}

}  // namespace amjs::svc
