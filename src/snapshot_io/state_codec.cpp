#include "snapshot_io/state_codec.hpp"

#include <cstddef>
#include <optional>
#include <string_view>
#include <utility>

#include "core/adaptive.hpp"
#include "core/metric_aware.hpp"
#include "core/what_if.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "util/fmt.hpp"

namespace amjs::snapshot_io {
namespace {

// --- Shared fragments. -------------------------------------------------

void write_alloc(ByteWriter& w, const RunningAlloc& a) {
  w.i64(a.job);
  w.i64(a.occupied);
  w.i64(a.start);
  w.i64(a.predicted_end);
}

Result<RunningAlloc> read_alloc(ByteReader& r) {
  RunningAlloc a;
  auto job = r.i64();
  if (!job) return job.error();
  a.job = static_cast<JobId>(job.value());
  auto occupied = r.i64();
  if (!occupied) return occupied.error();
  a.occupied = occupied.value();
  auto start = r.i64();
  if (!start) return start.error();
  a.start = start.value();
  auto end = r.i64();
  if (!end) return end.error();
  a.predicted_end = end.value();
  return a;
}

void write_leaf_mask(ByteWriter& w, const PartitionMachine::LeafMask& mask) {
  static_assert(PartitionMachine::kMaxLeaves == 128);
  for (int word = 0; word < 2; ++word) {
    std::uint64_t bits = 0;
    for (int bit = 0; bit < 64; ++bit) {
      if (mask[static_cast<std::size_t>(word * 64 + bit)]) bits |= 1ULL << bit;
    }
    w.u64(bits);
  }
}

Result<PartitionMachine::LeafMask> read_leaf_mask(ByteReader& r) {
  PartitionMachine::LeafMask mask;
  for (int word = 0; word < 2; ++word) {
    auto bits = r.u64();
    if (!bits) return bits.error();
    for (int bit = 0; bit < 64; ++bit) {
      if ((bits.value() >> bit & 1ULL) != 0) {
        mask.set(static_cast<std::size_t>(word * 64 + bit));
      }
    }
  }
  return mask;
}

/// The encoders write allocations in ascending job order, each under its
/// own job, so a decoded table is sorted by construction. An entry keyed
/// by another job than it holds, or whose job does not follow the previous
/// entry's (a repeat, or one out of order), is refused by name.
Status check_alloc_entry(std::optional<JobId> previous, JobId key, JobId held) {
  if (key != held) {
    return Error{amjs::format("machine allocation keyed by job {} holds job {}", key, held)};
  }
  if (previous && key == *previous) {
    return Error{amjs::format("machine allocations name job {} twice", key)};
  }
  if (previous && key < *previous) {
    return Error{amjs::format("machine allocation of job {} follows job {}", key, *previous)};
  }
  return Status::success();
}

// --- Machine state codecs. ---------------------------------------------

Status encode_flat(ByteWriter& w, const MachineState& state) {
  const auto& s = dynamic_cast<const FlatMachineState&>(state);
  w.i64(s.total);
  w.i64(s.busy);
  w.u64(s.allocs.size());
  for (const RunningAlloc& alloc : s.allocs) {
    w.i64(alloc.job);
    write_alloc(w, alloc);
  }
  return Status::success();
}

Result<std::unique_ptr<MachineState>> decode_flat(ByteReader& r) {
  auto s = std::make_unique<FlatMachineState>();
  auto total = r.i64();
  if (!total) return total.error();
  s->total = total.value();
  auto busy = r.i64();
  if (!busy) return busy.error();
  s->busy = busy.value();
  auto n = r.count(r.remaining());
  if (!n) return n.error();
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto job = r.i64();
    if (!job) return job.error();
    auto alloc = read_alloc(r);
    if (!alloc) return alloc.error();
    const auto previous =
        s->allocs.empty() ? std::nullopt : std::optional(s->allocs.back().job);
    if (Status ok = check_alloc_entry(previous, static_cast<JobId>(job.value()),
                                      alloc.value().job);
        !ok.ok()) {
      return ok.error();
    }
    s->allocs.push_back(alloc.value());
  }
  return {std::move(s)};
}

Status encode_partition(ByteWriter& w, const MachineState& state) {
  const auto& s = dynamic_cast<const PartitionMachineState&>(state);
  w.i64(s.config.leaf_nodes);
  w.i64(s.config.row_leaves);
  w.i64(s.config.rows);
  write_leaf_mask(w, s.busy_mask);
  w.i64(s.busy_nodes);
  w.u64(s.allocs.size());
  for (const auto& live : s.allocs) {
    w.i64(live.alloc.job);
    write_alloc(w, live.alloc);
    w.i64(live.partition);
  }
  return Status::success();
}

Result<std::unique_ptr<MachineState>> decode_partition(ByteReader& r) {
  auto s = std::make_unique<PartitionMachineState>();
  auto leaf_nodes = r.i64();
  if (!leaf_nodes) return leaf_nodes.error();
  s->config.leaf_nodes = leaf_nodes.value();
  auto row_leaves = r.i64();
  if (!row_leaves) return row_leaves.error();
  s->config.row_leaves = static_cast<int>(row_leaves.value());
  auto rows = r.i64();
  if (!rows) return rows.error();
  s->config.rows = static_cast<int>(rows.value());
  auto mask = read_leaf_mask(r);
  if (!mask) return mask.error();
  s->busy_mask = mask.value();
  auto busy = r.i64();
  if (!busy) return busy.error();
  s->busy_nodes = busy.value();
  auto n = r.count(r.remaining());
  if (!n) return n.error();
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto job = r.i64();
    if (!job) return job.error();
    auto alloc = read_alloc(r);
    if (!alloc) return alloc.error();
    auto partition = r.i64();
    if (!partition) return partition.error();
    const auto previous =
        s->allocs.empty() ? std::nullopt : std::optional(s->allocs.back().alloc.job);
    if (Status ok = check_alloc_entry(previous, static_cast<JobId>(job.value()),
                                      alloc.value().job);
        !ok.ok()) {
      return ok.error();
    }
    s->allocs.push_back(PartitionMachine::LiveAlloc{
        alloc.value(), static_cast<int>(partition.value())});
  }
  return {std::move(s)};
}

// --- Scheduler state codecs. -------------------------------------------

Status encode_metric_aware(ByteWriter& w, const SchedulerState& state) {
  const auto& s = dynamic_cast<const MetricAwareState&>(state);
  w.f64(s.policy.balance_factor);
  w.i64(s.policy.window_size);
  w.u64(s.stats.schedule_calls);
  w.u64(s.stats.jobs_started);
  w.u64(s.stats.jobs_backfilled);
  w.u64(s.stats.permutations_tried);
  return Status::success();
}

Result<std::unique_ptr<SchedulerState>> decode_metric_aware(ByteReader& r) {
  auto s = std::make_unique<MetricAwareState>();
  auto bf = r.f64();
  if (!bf) return bf.error();
  s->policy.balance_factor = bf.value();
  auto w = r.i64();
  if (!w) return w.error();
  s->policy.window_size = static_cast<int>(w.value());
  auto calls = r.u64();
  if (!calls) return calls.error();
  s->stats.schedule_calls = calls.value();
  auto started = r.u64();
  if (!started) return started.error();
  s->stats.jobs_started = started.value();
  auto backfilled = r.u64();
  if (!backfilled) return backfilled.error();
  s->stats.jobs_backfilled = backfilled.value();
  auto perms = r.u64();
  if (!perms) return perms.error();
  s->stats.permutations_tried = perms.value();
  return {std::move(s)};
}

Status encode_adaptive(ByteWriter& w, const SchedulerState& state) {
  const auto& s = dynamic_cast<const AdaptiveState&>(state);
  if (Status inner = write_scheduler_state(w, s.inner.get()); !inner.ok()) {
    return inner;
  }
  write_series(w, s.bf_history);
  write_series(w, s.w_history);
  w.u64(s.adjustments);
  return Status::success();
}

Result<std::unique_ptr<SchedulerState>> decode_adaptive(ByteReader& r) {
  auto s = std::make_unique<AdaptiveState>();
  auto inner = read_scheduler_state(r);
  if (!inner) return inner.error();
  s->inner = std::move(inner).value();
  auto bf = read_series(r);
  if (!bf) return bf.error();
  s->bf_history = bf.value();
  auto wh = read_series(r);
  if (!wh) return wh.error();
  s->w_history = wh.value();
  auto adjustments = r.u64();
  if (!adjustments) return adjustments.error();
  s->adjustments = adjustments.value();
  return {std::move(s)};
}

Status encode_what_if(ByteWriter& w, const SchedulerState& state) {
  const auto& s = dynamic_cast<const WhatIfState&>(state);
  if (Status inner = write_scheduler_state(w, s.inner.get()); !inner.ok()) {
    return inner;
  }
  w.u64(s.stats.evaluations);
  w.u64(s.stats.forks);
  w.u64(s.stats.adoptions);
  w.f64(s.stats.twin_wall_ms);
  write_series(w, s.bf_history);
  write_series(w, s.w_history);
  w.u64(s.checks_seen);
  return Status::success();
}

Result<std::unique_ptr<SchedulerState>> decode_what_if(ByteReader& r) {
  auto s = std::make_unique<WhatIfState>();
  auto inner = read_scheduler_state(r);
  if (!inner) return inner.error();
  s->inner = std::move(inner).value();
  auto evaluations = r.u64();
  if (!evaluations) return evaluations.error();
  s->stats.evaluations = evaluations.value();
  auto forks = r.u64();
  if (!forks) return forks.error();
  s->stats.forks = forks.value();
  auto adoptions = r.u64();
  if (!adoptions) return adoptions.error();
  s->stats.adoptions = adoptions.value();
  auto wall = r.f64();
  if (!wall) return wall.error();
  s->stats.twin_wall_ms = wall.value();
  auto bf = read_series(r);
  if (!bf) return bf.error();
  s->bf_history = bf.value();
  auto wh = read_series(r);
  if (!wh) return wh.error();
  s->w_history = wh.value();
  auto checks = r.u64();
  if (!checks) return checks.error();
  s->checks_seen = checks.value();
  return {std::move(s)};
}

// --- Tag tables. -------------------------------------------------------

template <typename Derived, typename Base>
bool is_a(const Base& state) {
  return dynamic_cast<const Derived*>(&state) != nullptr;
}

/// One concrete state type's tag and functions. `matches` probes the
/// concrete type on encode. `encode` returns Status so a wrapper codec can
/// pass on a nested-encode failure (an inner state no codec covers)
/// instead of emitting a structurally corrupt payload under a valid CRC.
template <typename State>
struct TaggedCodec {
  std::string_view tag;
  bool (*matches)(const State&);
  Status (*encode)(ByteWriter&, const State&);
  Result<std::unique_ptr<State>> (*decode)(ByteReader&);
};

constexpr TaggedCodec<MachineState> kMachineCodecs[] = {
    {"flat.v1", is_a<FlatMachineState, MachineState>, encode_flat, decode_flat},
    {"partition.v1", is_a<PartitionMachineState, MachineState>, encode_partition,
     decode_partition},
};

constexpr TaggedCodec<SchedulerState> kSchedulerCodecs[] = {
    {"metric_aware.v1", is_a<MetricAwareState, SchedulerState>, encode_metric_aware,
     decode_metric_aware},
    {"adaptive.v1", is_a<AdaptiveState, SchedulerState>, encode_adaptive,
     decode_adaptive},
    {"what_if.v1", is_a<WhatIfState, SchedulerState>, encode_what_if, decode_what_if},
};

template <typename State, std::size_t N>
Status write_tagged(const TaggedCodec<State> (&codecs)[N], ByteWriter& w,
                    const State* state, const char* kind) {
  if (state == nullptr) {
    w.str("");
    return Status::success();
  }
  for (const TaggedCodec<State>& codec : codecs) {
    if (!codec.matches(*state)) continue;
    w.str(codec.tag);
    return codec.encode(w, *state);
  }
  return Error{amjs::format("no {} state codec registered for this type", kind)};
}

template <typename State, std::size_t N>
Result<std::unique_ptr<State>> read_tagged(const TaggedCodec<State> (&codecs)[N],
                                           ByteReader& r, const char* kind) {
  auto tag = r.str();
  if (!tag) return tag.error();
  if (tag.value().empty()) return std::unique_ptr<State>{};
  for (const TaggedCodec<State>& codec : codecs) {
    if (codec.tag == tag.value()) return codec.decode(r);
  }
  return Error{amjs::format("unknown {} state tag \"{}\"", kind, tag.value())};
}

}  // namespace

Status write_machine_state(ByteWriter& w, const MachineState* state) {
  return write_tagged(kMachineCodecs, w, state, "machine");
}

Status write_scheduler_state(ByteWriter& w, const SchedulerState* state) {
  return write_tagged(kSchedulerCodecs, w, state, "scheduler");
}

Result<std::unique_ptr<MachineState>> read_machine_state(ByteReader& r) {
  return read_tagged(kMachineCodecs, r, "machine");
}

Result<std::unique_ptr<SchedulerState>> read_scheduler_state(ByteReader& r) {
  return read_tagged(kSchedulerCodecs, r, "scheduler");
}

}  // namespace amjs::snapshot_io
