// Durable snapshot codec: serialize -> deserialize -> resume must be
// bit-identical to the uninterrupted run for every machine model and
// scheduler family, and any corrupted file — truncated, bit-flipped,
// version-bumped, wrong magic — must be rejected with a clean Result
// error, never decoded into a garbage snapshot.
#include "snapshot_io/snapshot_codec.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/adaptive.hpp"
#include "core/metric_aware.hpp"
#include "core/what_if.hpp"
#include "platform/flat.hpp"
#include "platform/partition.hpp"
#include "sched/easy.hpp"
#include "sim/simulator.hpp"
#include "sim/snapshot.hpp"
#include "snapshot_io/checkpoint.hpp"
#include "twin/twin.hpp"
#include "util/fmt.hpp"

namespace amjs {
namespace {

Job make_job(SimTime submit, Duration runtime, NodeCount nodes) {
  Job j;
  j.submit = submit;
  j.runtime = runtime;
  j.walltime = runtime + 600;
  j.nodes = nodes;
  return j;
}

JobTrace trace_of(std::vector<Job> jobs) {
  auto t = JobTrace::from_jobs(std::move(jobs));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

/// Overloaded workload so snapshots carry non-trivial state: running jobs,
/// a populated queue, and pending end events (same shape as the in-memory
/// roundtrip suite in tests/twin).
JobTrace contended_trace() {
  std::vector<Job> jobs;
  for (int i = 0; i < 30; ++i) {
    jobs.push_back(make_job(i * 400, 1200 + (i % 5) * 900, 20 + (i % 4) * 15));
  }
  return trace_of(std::move(jobs));
}

PartitionConfig small_partition_config() {
  PartitionConfig cfg;
  cfg.leaf_nodes = 32;
  cfg.row_leaves = 8;
  cfg.rows = 2;
  return cfg;
}

void expect_results_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.schedule.size(), b.schedule.size());
  for (std::size_t i = 0; i < a.schedule.size(); ++i) {
    EXPECT_EQ(a.schedule[i].start, b.schedule[i].start) << "job " << i;
    EXPECT_EQ(a.schedule[i].end, b.schedule[i].end) << "job " << i;
    EXPECT_EQ(a.schedule[i].occupied, b.schedule[i].occupied) << "job " << i;
    EXPECT_EQ(a.schedule[i].attempts, b.schedule[i].attempts) << "job " << i;
    EXPECT_EQ(a.schedule[i].abandoned, b.schedule[i].abandoned) << "job " << i;
  }
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time, b.events[i].time) << "event " << i;
    EXPECT_EQ(a.events[i].idle, b.events[i].idle) << "event " << i;
  }
  ASSERT_EQ(a.queue_depth.size(), b.queue_depth.size());
  for (std::size_t i = 0; i < a.queue_depth.size(); ++i) {
    EXPECT_EQ(a.queue_depth.points()[i].time, b.queue_depth.points()[i].time);
    // Bitwise-identical, not approximately equal.
    EXPECT_EQ(a.queue_depth.points()[i].value, b.queue_depth.points()[i].value);
  }
  ASSERT_EQ(a.busy_nodes.size(), b.busy_nodes.size());
  EXPECT_EQ(a.machine_nodes, b.machine_nodes);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.skipped_jobs, b.skipped_jobs);
  EXPECT_EQ(a.failure_stats.failures, b.failure_stats.failures);
  EXPECT_EQ(a.failure_stats.restarts, b.failure_stats.restarts);
  EXPECT_EQ(a.failure_stats.abandoned, b.failure_stats.abandoned);
  EXPECT_EQ(a.failure_stats.wasted_node_seconds,
            b.failure_stats.wasted_node_seconds);
}

/// Run the trace capturing the snapshot at `check_index`, push it through
/// the byte codec, resume from the *decoded* copy, and compare against the
/// uninterrupted run.
template <typename MakeMachine, typename MakeScheduler>
void roundtrip_through_bytes(const JobTrace& trace, const MakeMachine& make_machine,
                             const MakeScheduler& make_scheduler,
                             std::size_t check_index, SimConfig config = {}) {
  SimSnapshot snapshot;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == check_index) snapshot = s;
  };

  auto machine_a = make_machine();
  auto sched_a = make_scheduler();
  Simulator full(*machine_a, *sched_a, config);
  const SimResult baseline = full.run(trace);
  ASSERT_TRUE(snapshot.valid()) << "run never reached check " << check_index;

  const auto bytes = snapshot_io::write_snapshot(snapshot);
  ASSERT_TRUE(bytes.ok()) << bytes.error().to_string();
  const auto decoded = snapshot_io::read_snapshot(bytes.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  // The decoded snapshot re-encodes to the very same bytes: the codec
  // loses nothing (field-level check by proxy, bit-exact by construction).
  const auto bytes2 = snapshot_io::write_snapshot(decoded.value());
  ASSERT_TRUE(bytes2.ok());
  EXPECT_EQ(bytes.value(), bytes2.value());

  SimConfig resume_config;
  resume_config.failures = config.failures;
  auto machine_b = make_machine();
  auto sched_b = make_scheduler();
  Simulator forked(*machine_b, *sched_b, resume_config);
  const SimResult resumed =
      forked.resume(trace, decoded.value(), ResumeScheduler::kRestore);
  expect_results_identical(baseline, resumed);
}

TEST(SnapshotCodec, FlatMachineMetricAware) {
  roundtrip_through_bytes(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] {
        MetricAwareConfig cfg;
        cfg.policy = {0.5, 2};
        return std::make_unique<MetricAwareScheduler>(cfg);
      },
      4);
}

TEST(SnapshotCodec, FlatMachineStatelessEasy) {
  // Stateless policy: the snapshot's scheduler state is null, which the
  // codec must represent (empty tag) and restore as null.
  roundtrip_through_bytes(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] { return std::make_unique<EasyBackfillScheduler>(); }, 3);
}

TEST(SnapshotCodec, PartitionMachineAdaptive) {
  roundtrip_through_bytes(
      contended_trace(),
      [] { return std::make_unique<PartitionMachine>(small_partition_config()); },
      [] {
        return std::make_unique<AdaptiveScheduler>(
            MetricAwareConfig{}, std::vector<AdaptiveScheme>{
                                     AdaptiveScheme::bf_queue_depth(100.0)});
      },
      3);
}

TEST(SnapshotCodec, WhatIfTunerNestedState) {
  // The what-if state nests the wrapped scheduler's state; the codec must
  // recurse through the registry.
  roundtrip_through_bytes(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] {
        WhatIfConfig cfg;
        cfg.base.policy = {1.0, 1};
        cfg.bf_candidates = {0.5, 1.0};
        cfg.w_candidates = {1, 2};
        cfg.twin.horizon = hours(2);
        cfg.twin.threads = 1;
        cfg.machine_factory = [] { return std::make_unique<FlatMachine>(100); };
        cfg.evaluate_every = 2;
        return std::make_unique<WhatIfTuner>(cfg);
      },
      5);
}

TEST(SnapshotCodec, FailureInjectionAccounting) {
  // failure_stats, attempts, failure_pending, and attempt_start must all
  // survive the byte roundtrip for the resumed accounting to match.
  SimConfig config;
  config.failures.rate_per_node_hour = 2e-3;
  config.failures.max_restarts = 1;
  roundtrip_through_bytes(
      contended_trace(), [] { return std::make_unique<FlatMachine>(100); },
      [] {
        MetricAwareConfig cfg;
        cfg.policy = {0.5, 2};
        return std::make_unique<MetricAwareScheduler>(cfg);
      },
      4, config);
}

TEST(SnapshotCodec, SeedsTwinEngineIdentically) {
  // A deserialized snapshot is as good a fork seed as the live one: the
  // twin's candidate scores must match exactly.
  const auto trace = contended_trace();
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == 4) snapshot = s;
  };
  FlatMachine machine(100);
  MetricAwareScheduler sched(MetricAwareConfig{{0.5, 2}});
  (void)Simulator(machine, sched, config).run(trace);
  ASSERT_TRUE(snapshot.valid());

  const auto bytes = snapshot_io::write_snapshot(snapshot);
  ASSERT_TRUE(bytes.ok());
  const auto decoded = snapshot_io::read_snapshot(bytes.value());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  const auto machine_factory = [] { return std::make_unique<FlatMachine>(100); };
  TwinConfig twin_cfg;
  twin_cfg.horizon = hours(2);
  twin_cfg.threads = 1;
  TwinEngine twin(machine_factory, twin_cfg);
  std::vector<TwinCandidate> candidates;
  for (const double bf : {0.25, 1.0}) {
    MetricAwareConfig cfg;
    cfg.policy = {bf, 2};
    candidates.push_back(TwinCandidate{
        "bf", [cfg] { return std::make_unique<MetricAwareScheduler>(cfg); }});
  }
  const auto live = twin.evaluate(trace, snapshot, candidates);
  const auto from_disk = twin.evaluate(trace, decoded.value(), candidates);
  ASSERT_EQ(live.size(), from_disk.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(live[i].objective, from_disk[i].objective) << "fork " << i;
    EXPECT_EQ(live[i].jobs_started, from_disk[i].jobs_started) << "fork " << i;
  }
  EXPECT_EQ(TwinEngine::best_index(live), TwinEngine::best_index(from_disk));
}

// --- Byte pin. ---------------------------------------------------------

/// 64-bit FNV-1a.
std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The metric-check snapshot at `check_index` of one contended_trace() run.
SimSnapshot snapshot_at(Machine& machine, Scheduler& scheduler, std::size_t check_index) {
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == check_index) snapshot = s;
  };
  (void)Simulator(machine, scheduler, config).run(contended_trace());
  EXPECT_TRUE(snapshot.valid());
  return snapshot;
}

/// The flat-machine snapshot of the byte pin and the corruption tests.
SimSnapshot flat_snapshot() {
  FlatMachine machine(100);
  MetricAwareScheduler scheduler(MetricAwareConfig{{0.5, 2}});
  return snapshot_at(machine, scheduler, 4);
}

/// The partition-machine snapshot of the byte pin and the corruption tests.
SimSnapshot partition_snapshot() {
  PartitionMachine machine(small_partition_config());
  AdaptiveScheduler scheduler(MetricAwareConfig{},
                              {AdaptiveScheme::bf_queue_depth(100.0)});
  return snapshot_at(machine, scheduler, 3);
}

TEST(SnapshotCodecPin, MetricCheckSnapshotBytes) {
  // Digests of two fixed runs' container bytes, one per machine model.
  // The codec writes each allocation table in job order, whatever holds
  // it in memory, so a change to the machines' storage moves none of these
  // bytes; only a format change may, and it bumps the version.
  const SimSnapshot flat = flat_snapshot();
  const SimSnapshot partition = partition_snapshot();
  ASSERT_GE(dynamic_cast<const FlatMachineState&>(*flat.machine).allocs.size(), 2u);
  ASSERT_GE(dynamic_cast<const PartitionMachineState&>(*partition.machine).allocs.size(), 2u);

  EXPECT_EQ(snapshot_io::kSnapshotFormatVersion, 1u);
  const auto flat_bytes = snapshot_io::write_snapshot(flat);
  ASSERT_TRUE(flat_bytes.ok());
  EXPECT_EQ(fnv1a(flat_bytes.value()), 0x79207cb5cf98c1aeULL);
  const auto partition_bytes = snapshot_io::write_snapshot(partition);
  ASSERT_TRUE(partition_bytes.ok());
  EXPECT_EQ(fnv1a(partition_bytes.value()), 0x0dd02da5db5845b9ULL);
}

// --- Corruption rejection. ---------------------------------------------

/// A small but fully populated snapshot.
SimSnapshot sample_snapshot() {
  const auto trace = contended_trace();
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == 3) snapshot = s;
  };
  FlatMachine machine(100);
  MetricAwareScheduler sched(MetricAwareConfig{{0.5, 2}});
  (void)Simulator(machine, sched, config).run(trace);
  EXPECT_TRUE(snapshot.valid());
  return snapshot;
}

/// sample_snapshot()'s container, to corrupt.
std::string sample_container() {
  auto bytes = snapshot_io::write_snapshot(sample_snapshot());
  EXPECT_TRUE(bytes.ok());
  return std::move(bytes).value();
}

TEST(SnapshotCodecCorruption, EmptyAndBadMagic) {
  EXPECT_FALSE(snapshot_io::read_snapshot("").ok());
  EXPECT_FALSE(snapshot_io::read_snapshot("AMJS").ok());
  EXPECT_FALSE(snapshot_io::read_snapshot("not a snapshot at all").ok());

  std::string container = sample_container();
  container[0] ^= 0x01;
  const auto r = snapshot_io::read_snapshot(container);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("magic"), std::string::npos);
}

TEST(SnapshotCodecCorruption, VersionBumpRejected) {
  std::string container = sample_container();
  container[8] += 1;  // format version is the u32 after the 8-byte magic
  const auto r = snapshot_io::read_snapshot(container);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("version"), std::string::npos);
}

TEST(SnapshotCodecCorruption, TruncationAtEveryPrefixRejected) {
  const std::string container = sample_container();
  // Every proper prefix must fail cleanly — no crash, no accepted decode.
  // Sample densely at the front (header boundaries) and then stride.
  for (std::size_t len = 0; len < container.size();
       len += (len < 64 ? 1 : 37)) {
    const auto r = snapshot_io::read_snapshot(container.substr(0, len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SnapshotCodecCorruption, BitFlipsRejected) {
  const std::string container = sample_container();
  // Flip one bit in every stride-th byte of the payload + CRC region.
  // The CRC must catch every payload flip; header flips fail structurally.
  for (std::size_t i = 0; i < container.size(); i += 13) {
    std::string corrupted = container;
    corrupted[i] ^= 0x10;
    const auto r = snapshot_io::read_snapshot(corrupted);
    EXPECT_FALSE(r.ok()) << "flip at byte " << i << " decoded";
  }
}

TEST(SnapshotCodecCorruption, NowPastTheWireBoundRejected) {
  // A twin adds its horizon to the snapshot's now: a now outside
  // [0, kMaxWireTime] must not decode. The bound itself does.
  SimSnapshot snapshot = sample_snapshot();
  for (const SimTime now : {snapshot_io::kMaxWireTime + 1, kNever, SimTime{-1}}) {
    snapshot.now = now;
    const auto bytes = snapshot_io::write_snapshot(snapshot);
    ASSERT_TRUE(bytes.ok());
    const auto r = snapshot_io::read_snapshot(bytes.value());
    ASSERT_FALSE(r.ok()) << "now " << now << " decoded";
    EXPECT_NE(r.error().message.find("outside"), std::string::npos) << r.error().message;
  }
  snapshot.now = snapshot_io::kMaxWireTime;
  const auto bytes = snapshot_io::write_snapshot(snapshot);
  ASSERT_TRUE(bytes.ok());
  EXPECT_TRUE(snapshot_io::read_snapshot(bytes.value()).ok());
}

/// `snapshot` with its machine allocations edited by `edit`, round-tripped
/// through the codec.
template <typename State, typename Edit>
Result<SimSnapshot> reread_with_allocs(SimSnapshot snapshot, const Edit& edit) {
  auto machine = std::make_shared<State>(dynamic_cast<const State&>(*snapshot.machine));
  edit(machine->allocs);
  snapshot.machine = machine;
  const auto bytes = snapshot_io::write_snapshot(snapshot);
  EXPECT_TRUE(bytes.ok());
  return snapshot_io::read_snapshot(bytes.value());
}

TEST(SnapshotCodecCorruption, RepeatedOrDisorderedAllocationRejected) {
  // A machine holds each job's allocation once, in job order: a second
  // entry for a job, or an entry out of order, must fail the decode by
  // the job's name, on both machine models.
  const auto expect_refused = [](const Result<SimSnapshot>& r, JobId job,
                                 const std::string& what) {
    ASSERT_FALSE(r.ok()) << what;
    EXPECT_NE(r.error().message.find(amjs::format("job {}", job)), std::string::npos)
        << what << ": " << r.error().message;
  };
  const auto repeat_first = [](auto& allocs) { allocs.insert(allocs.begin() + 1, allocs[0]); };
  const auto swap_first = [](auto& allocs) { std::swap(allocs[0], allocs[1]); };

  const SimSnapshot flat = flat_snapshot();
  const auto& flat_allocs = dynamic_cast<const FlatMachineState&>(*flat.machine).allocs;
  ASSERT_GE(flat_allocs.size(), 2u);
  expect_refused(reread_with_allocs<FlatMachineState>(flat, repeat_first),
                 flat_allocs[0].job, "flat repeat");
  expect_refused(reread_with_allocs<FlatMachineState>(flat, swap_first),
                 flat_allocs[0].job, "flat order");

  const SimSnapshot partition = partition_snapshot();
  const auto& partition_allocs =
      dynamic_cast<const PartitionMachineState&>(*partition.machine).allocs;
  ASSERT_GE(partition_allocs.size(), 2u);
  expect_refused(reread_with_allocs<PartitionMachineState>(partition, repeat_first),
                 partition_allocs[0].alloc.job, "partition repeat");
  expect_refused(reread_with_allocs<PartitionMachineState>(partition, swap_first),
                 partition_allocs[0].alloc.job, "partition order");
}

TEST(SnapshotCodecCorruption, TrailingGarbageRejected) {
  std::string container = sample_container();
  container += "xx";
  EXPECT_FALSE(snapshot_io::read_snapshot(container).ok());
}

TEST(SnapshotCodecCorruption, EndOfInstantSnapshotRefused) {
  // The format has no snapshot-point field; encoding an end-of-instant
  // snapshot would decode as a metric-check one and replay a tail that
  // already ran. Both writers must refuse it.
  SimSnapshot snapshot;
  SimConfig config;
  config.on_instant_end = [&](const SchedContext& ctx) {
    if (ctx.now() >= 2000 && !snapshot.valid()) snapshot = ctx.capture();
  };
  FlatMachine machine(100);
  EasyBackfillScheduler sched;
  (void)Simulator(machine, sched, config).run(contended_trace());
  ASSERT_TRUE(snapshot.valid());
  ASSERT_EQ(snapshot.point, SnapshotPoint::kInstantEnd);

  const auto bytes = snapshot_io::write_snapshot(snapshot);
  ASSERT_FALSE(bytes.ok());
  EXPECT_NE(bytes.error().message.find("end-of-instant"), std::string::npos);

  const std::string path = ::testing::TempDir() + "amjs_codec_instant_end.snap";
  EXPECT_FALSE(snapshot_io::write_snapshot_file(snapshot, path).ok());
  EXPECT_FALSE(snapshot_io::read_snapshot_file(path).ok()) << "a file was written";
}

// --- File round-trip. --------------------------------------------------

TEST(SnapshotCodecFile, WriteReadRoundtrip) {
  const auto trace = contended_trace();
  SimSnapshot snapshot;
  SimConfig config;
  config.snapshot_sink = [&](const SimSnapshot& s) {
    if (s.check_index == 2) snapshot = s;
  };
  FlatMachine machine(100);
  EasyBackfillScheduler sched;
  const SimResult baseline = Simulator(machine, sched, config).run(trace);
  ASSERT_TRUE(snapshot.valid());

  const std::string path = ::testing::TempDir() + "amjs_codec_test.snap";
  const auto written = snapshot_io::write_snapshot_file(snapshot, path);
  ASSERT_TRUE(written.ok()) << written.error().to_string();
  const auto loaded = snapshot_io::read_snapshot_file(path);
  ASSERT_TRUE(loaded.ok()) << loaded.error().to_string();

  FlatMachine machine2(100);
  EasyBackfillScheduler sched2;
  Simulator forked(machine2, sched2);
  const SimResult resumed =
      forked.resume(trace, loaded.value(), ResumeScheduler::kRestore);
  expect_results_identical(baseline, resumed);
  std::remove(path.c_str());
}

TEST(SnapshotCodecFile, MissingFileIsError) {
  const auto r = snapshot_io::read_snapshot_file("/nonexistent/amjs.snap");
  ASSERT_FALSE(r.ok());
  EXPECT_FALSE(r.error().context.empty());
}

}  // namespace
}  // namespace amjs
