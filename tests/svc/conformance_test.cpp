// Service conformance: every plugin reply must be byte-identical to the
// in-process equivalent — a what-if served over the socket is the
// LocalTwinBackend's verdict batch (wall_ms zeroed), a submit-job is a
// direct calendar query against the restored snapshot, a trace-explain
// is write_diff_json verbatim, a campaign cell is run_cell's result.
// If these hold, moving a query behind the service changes who does the
// work, never what the answer is. Flat and partition machines both.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/diff.hpp"
#include "campaign/campaign.hpp"
#include "campaign/frame.hpp"
#include "core/twin_backend.hpp"
#include "obs/catalog.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/test_server.hpp"
#include "svc/client.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "svc/server.hpp"

namespace amjs::svc {
namespace {

// BF {0.5, 1} x W {1, 4}: W=4 is the one svc-level window search past
// two permutations.
std::vector<TwinCandidateSpec> grid_candidates() {
  return test_support::grid_candidates({0.5, 1.0}, {1, 4});
}

DatasetSpec small_spec(std::string label, MachineSpec machine) {
  DatasetSpec spec = test_support::small_dataset_spec();
  spec.label = std::move(label);
  spec.machine = machine;
  return spec;
}

Job probe_job(NodeCount nodes, Duration walltime, SimTime submit = 0) {
  Job job;
  job.id = 9001;
  job.submit = submit;
  job.runtime = walltime;
  job.walltime = walltime;
  job.nodes = nodes;
  return job;
}

/// Server + client over a kernel-picked loopback port, one world.
class SvcConformance : public ::testing::Test {
 protected:
  void start(const DatasetSpec& spec) {
    // The server builds its own copy of this (deterministic) dataset.
    auto dataset = make_dataset(spec);
    ASSERT_TRUE(dataset.ok()) << dataset.error().to_string();
    dataset_ = std::move(dataset).value();
    server_ = test_support::start_server({}, spec);
    ClientConfig client_config;
    client_config.endpoint = server_->endpoint();
    client_ = std::make_unique<SvcClient>(client_config);
  }

  void TearDown() override {
    client_.reset();
    if (server_ != nullptr) server_->stop();
  }

  /// The in-process ground truth for a submit-job reply: restore the
  /// snapshot into a fresh machine and ask the calendar plan directly.
  StartProjection direct_calendar_query(const Job& job) {
    auto machine = dataset_.machine.make();
    machine->restore_state(*dataset_.snapshot.machine);
    auto provider = make_plan_provider(*machine);
    auto plan = provider->plan(dataset_.snapshot.now);
    const SimTime earliest = std::max(job.submit, dataset_.snapshot.now);
    StartProjection expected;
    expected.start = plan->find_start(job, earliest);
    expected.wait = expected.start - earliest;
    return expected;
  }

  /// The in-process ground truth for a what-if reply body.
  std::string local_verdict_bytes(
      const std::vector<TwinCandidateSpec>& candidates) {
    TwinConfig twin = dataset_.twin;
    twin.threads = 1;
    LocalTwinBackend local(dataset_.machine.factory(), twin);
    auto verdicts = local.evaluate(dataset_.trace, dataset_.snapshot,
                                   candidates);
    EXPECT_TRUE(verdicts.ok());
    std::vector<TwinForkResult> results = std::move(verdicts).value();
    for (TwinForkResult& result : results) result.wall_ms = 0.0;
    return encode_verdicts(results);
  }

  Dataset dataset_;
  std::unique_ptr<SchedServer> server_;
  std::unique_ptr<SvcClient> client_;
};

TEST_F(SvcConformance, SubmitJobMatchesDirectCalendarQueryOnFlat) {
  start(small_spec("flat", MachineSpec::flat(100)));
  // Jobs of different shapes, including one submitted before the
  // snapshot instant (earliest must clamp to now) and one submitted
  // after it.
  const std::vector<Job> probes = {
      probe_job(10, 1800), probe_job(60, 7200),
      probe_job(100, 3600, dataset_.snapshot.now + 900),
      probe_job(1, 600, dataset_.snapshot.now / 2)};
  for (const Job& job : probes) {
    const StartProjection expected = direct_calendar_query(job);
    auto reply = client_->call(Plugin::kSubmitJob, encode_submit_job(job));
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    // Byte identity, not just value identity: the wire body IS the
    // locally-encoded projection.
    EXPECT_EQ(reply.value().body, encode_start_projection(expected));
    EXPECT_EQ(reply.value().world_version, 1u);
    auto projection = client_->submit_job(job);
    ASSERT_TRUE(projection.ok());
    EXPECT_EQ(projection.value().start, expected.start);
    EXPECT_EQ(projection.value().wait, expected.wait);
    EXPECT_GE(projection.value().wait, 0);
  }
}

TEST_F(SvcConformance, WhatIfReplyByteIdenticalToLocalBackend) {
  start(small_spec("flat", MachineSpec::flat(100)));
  const auto candidates = grid_candidates();
  const std::string expected = local_verdict_bytes(candidates);

  auto reply = client_->call(Plugin::kWhatIf, encode_candidates(candidates));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().body, expected);

  // And the typed client surface decodes the same verdicts, in order.
  auto typed = client_->what_if(candidates);
  ASSERT_TRUE(typed.ok());
  auto local = decode_verdicts(expected);
  ASSERT_TRUE(local.ok());
  ASSERT_EQ(typed.value().size(), local.value().size());
  for (std::size_t i = 0; i < typed.value().size(); ++i) {
    EXPECT_EQ(typed.value()[i].label, local.value()[i].label);
    EXPECT_EQ(typed.value()[i].objective, local.value()[i].objective);
    EXPECT_EQ(typed.value()[i].jobs_started, local.value()[i].jobs_started);
  }
  // served_ is bumped after the reply hits the wire; quiesce the server
  // before reading it (stop() joins every connection thread).
  client_.reset();
  server_->stop();
  EXPECT_GE(server_->requests_served(), 2u);
}

TEST_F(SvcConformance, TraceExplainReplyIsLocalDiffJsonVerbatim) {
  start(small_spec("flat", MachineSpec::flat(100)));
  const auto render = [](SimTime second_start) {
    obs::TraceRecorder recorder;
    recorder.record(obs::TraceCategory::kJob, "submit", 0,
                    {obs::arg("job", std::int64_t{7})});
    recorder.record(obs::TraceCategory::kJob, "start", second_start,
                    {obs::arg("job", std::int64_t{7})});
    std::ostringstream out;
    recorder.write_jsonl(out, /*include_wall=*/false);
    return out.str();
  };
  const std::string a = render(100);
  const std::string b = render(160);

  std::istringstream stream_a(a);
  std::istringstream stream_b(b);
  auto report = analysis::diff_traces(stream_a, stream_b);
  ASSERT_TRUE(report.ok()) << report.error().to_string();
  std::ostringstream expected;
  analysis::write_diff_json(expected, report.value());

  auto remote = client_->trace_explain(a, b);
  ASSERT_TRUE(remote.ok()) << remote.error().to_string();
  EXPECT_EQ(remote.value(), expected.str());
}

TEST_F(SvcConformance, CampaignCellByteIdenticalToLocalRunCell) {
  start(small_spec("flat", MachineSpec::flat(100)));
  campaign::CellRequest cell;
  cell.cell_id = 42;
  cell.policy_token = "base";
  cell.policy_label = "FCFS+EASY";
  cell.workload_label = "synthetic";
  cell.seed = 7;
  cell.machine = MachineSpec::flat(64);
  cell.synthetic.seed = 7;
  cell.synthetic.horizon = hours(6);
  cell.synthetic.base_rate_per_hour = 6.0;

  campaign::CellResult expected = campaign::run_cell(cell);
  expected.wall_ms = 0;

  auto reply = client_->call(Plugin::kCampaign,
                             campaign::encode_run_cell_payload(cell));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().body,
            campaign::encode_cell_result_payload(expected));

  auto typed = client_->run_cell(cell);
  ASSERT_TRUE(typed.ok());
  EXPECT_EQ(typed.value().cell_id, expected.cell_id);
  EXPECT_EQ(typed.value().result.finished_count(),
            expected.result.finished_count());
  EXPECT_EQ(typed.value().result.end_time, expected.result.end_time);
  EXPECT_EQ(typed.value().wall_ms, 0);
}

TEST_F(SvcConformance, PartitionMachineConformsOnSubmitAndWhatIf) {
  PartitionConfig topology;
  topology.leaf_nodes = 64;
  topology.row_leaves = 4;
  topology.rows = 2;
  DatasetSpec spec =
      small_spec("partition", MachineSpec::partitioned(topology));
  spec.base_rate_per_hour = 4.0;
  start(spec);

  for (const Job& job :
       {probe_job(64, 3600), probe_job(128, 7200), probe_job(512, 1800)}) {
    const StartProjection expected = direct_calendar_query(job);
    auto reply = client_->call(Plugin::kSubmitJob, encode_submit_job(job));
    ASSERT_TRUE(reply.ok()) << reply.error().to_string();
    EXPECT_EQ(reply.value().body, encode_start_projection(expected));
  }
  const auto candidates = grid_candidates();
  auto reply = client_->call(Plugin::kWhatIf, encode_candidates(candidates));
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().body, local_verdict_bytes(candidates));
}

TEST_F(SvcConformance, InfeasibleJobFailsOnBothPathsAlike) {
  start(small_spec("flat", MachineSpec::flat(100)));
  // More nodes than the machine has: the service must reject exactly
  // like the in-process projection, as a request error that keeps the
  // connection alive.
  auto rejected = client_->submit_job(probe_job(101, 3600));
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.error().to_string().find("exceed"), std::string::npos)
      << rejected.error().to_string();
  // The connection survived the request-level failure.
  auto ok = client_->submit_job(probe_job(10, 3600));
  EXPECT_TRUE(ok.ok());
}

TEST_F(SvcConformance, ReloadHotSwapsWorldAndStampsVersions) {
  start(small_spec("flat", MachineSpec::flat(100)));
  auto before = client_->submit_job(probe_job(10, 3600));
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(client_->last_world_version(), 1u);

  DatasetSpec next = small_spec("generation-2", MachineSpec::flat(100));
  next.seed = 777;
  auto ack = client_->reload(next);
  ASSERT_TRUE(ack.ok()) << ack.error().to_string();
  EXPECT_EQ(ack.value().version, 2u);
  EXPECT_EQ(ack.value().label, "generation-2");
  EXPECT_EQ(server_->facade().version(), 2u);

  // Queries now run against the swapped dataset: the reply stamps the
  // new version and matches a direct query against generation 2.
  auto rebuilt = make_dataset(next);
  ASSERT_TRUE(rebuilt.ok());
  dataset_ = std::move(rebuilt).value();
  const Job job = probe_job(25, 5400);
  const StartProjection expected = direct_calendar_query(job);
  auto reply = client_->call(Plugin::kSubmitJob, encode_submit_job(job));
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply.value().world_version, 2u);
  EXPECT_EQ(reply.value().body, encode_start_projection(expected));
}

TEST_F(SvcConformance, EveryServedSvcMetricIsCataloged) {
  obs::Registry::set_enabled(true);
  obs::Registry::global().reset_values();
  start(small_spec("flat", MachineSpec::flat(100)));

  // Touch every plugin plus a rejection and a stats poll, so the full
  // svc.* surface is minted, then hold each name against the catalog.
  ASSERT_TRUE(client_->submit_job(probe_job(10, 3600)).ok());
  ASSERT_TRUE(client_->what_if(grid_candidates()).ok());
  EXPECT_FALSE(client_->call(static_cast<Plugin>(999), "").ok());
  DatasetSpec next = small_spec("catalog", MachineSpec::flat(100));
  next.seed = 5;
  ASSERT_TRUE(client_->reload(next).ok());
  auto stats = client_->stats();
  obs::Registry::set_enabled(false);
  ASSERT_TRUE(stats.ok()) << stats.error().to_string();

  const auto snapshot = obs::Registry::global().snapshot_prefixed("svc.");
  EXPECT_FALSE(snapshot.empty());
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented counter " << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented gauge " << name;
  }
  for (const auto& [name, value] : snapshot.timers) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented timer " << name;
  }
  // The stats frame carries the live service gauges.
  EXPECT_EQ(stats.value().counter_value("svc.reloads"), 1u);
  bool saw_version = false;
  for (const auto& [name, value] : stats.value().gauges) {
    if (name == "svc.world_version") {
      saw_version = true;
      EXPECT_EQ(value, 2);
    }
  }
  EXPECT_TRUE(saw_version);
}

}  // namespace
}  // namespace amjs::svc
