// Distributed-trace conformance on a loopback campaign: the driver's
// "rpc" spans and the servers' "request" spans join completely through
// obs/context (no orphans, every dispatch served), the merged canonical
// JSONL and summary are byte-identical across identical runs, the fleet
// fold mirrors the servers' own registry values, and every metric name a
// campaign touches is documented in the catalog.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/merge.hpp"
#include "campaign/driver.hpp"
#include "obs/catalog.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/test_server.hpp"
#include "twinsvc/stats.hpp"

namespace amjs::campaign {
namespace {

constexpr std::uint64_t kRunId = 42;

/// One in-process "server process": a real SchedServer with its own
/// recorder standing in for the per-process JSONL trace a sched_server
/// writes (declared first, so it outlives the server).
struct WorkerHarness {
  obs::TraceRecorder recorder;
  std::unique_ptr<svc::SchedServer> server;

  [[nodiscard]] twinsvc::Endpoint endpoint() const {
    return server->endpoint();
  }
};

class TraceConformance : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    obs::Registry::global().reset_values();
    spec_.machine = MachineSpec::flat(100);
    auto policy = PolicySpec::parse("base");
    ASSERT_TRUE(policy.ok());
    spec_.policies.push_back(std::move(policy).value());
    WorkloadSpec workload;
    workload.synthetic.horizon = hours(6);
    workload.synthetic.base_rate_per_hour = 10.0;
    workload.synthetic.sizes = {8, 16, 32};
    workload.synthetic.size_weights = {0.5, 0.3, 0.2};
    workload.label = "tiny";
    spec_.workloads.push_back(std::move(workload));
    spec_.seeds = {7, 11};
    FaultProfileSpec faulty;
    faulty.label = "fail:1e-4";
    faulty.model.rate_per_node_hour = 1e-4;
    spec_.fault_profiles = {FaultProfileSpec{}, faulty};

    auto cells = enumerate_cells(spec_);
    ASSERT_TRUE(cells.ok());
    cells_ = std::move(cells).value();
    ASSERT_EQ(cells_.size(), 4u);
  }

  void TearDown() override { obs::Registry::set_enabled(false); }

  [[nodiscard]] std::unique_ptr<WorkerHarness> start_worker() {
    auto harness = std::make_unique<WorkerHarness>();
    svc::ServerConfig config;
    config.trace_sink = &harness->recorder;
    harness->server = test_support::start_server(config);
    return harness;
  }

  /// One traced distributed run over two fresh workers; returns the three
  /// "per-process" traces (driver first — it fixes pid lane 0).
  [[nodiscard]] std::vector<analysis::ProcessTrace> run_traced_campaign() {
    auto w1 = start_worker();
    auto w2 = start_worker();
    obs::TraceRecorder driver_recorder;
    CampaignConfig config;
    config.workers = {w1->endpoint(), w2->endpoint()};
    config.cell_timeout_ms = 10000;
    config.backoff_base_ms = 1;
    config.backoff_max_ms = 2;
    config.trace_sink = &driver_recorder;
    config.trace_run_id = kRunId;
    const CampaignOutcome outcome = run_cells(cells_, config);
    EXPECT_EQ(outcome.cells.size(), cells_.size());
    EXPECT_EQ(outcome.remote_cells, cells_.size());

    std::vector<analysis::ProcessTrace> traces(3);
    traces[0].label = "driver.jsonl";
    traces[0].events = driver_recorder.events();
    traces[1].label = "w1.jsonl";
    traces[1].events = w1->recorder.events();
    traces[2].label = "w2.jsonl";
    traces[2].events = w2->recorder.events();
    return traces;
  }

  CampaignSpec spec_;
  std::vector<CellRequest> cells_;
};

TEST_F(TraceConformance, LoopbackCampaignJoinsWithZeroOrphans) {
  auto merged = analysis::merge_traces(run_traced_campaign());
  ASSERT_TRUE(merged.ok()) << merged.error().to_string();
  const analysis::MergeResult& m = merged.value();

  // Healthy workers: every cell dispatched once, every dispatch served.
  EXPECT_EQ(m.pairs.size(), cells_.size());
  EXPECT_EQ(m.joined, m.pairs.size());
  EXPECT_EQ(m.unserved_dispatches, 0u);
  EXPECT_TRUE(m.orphans.empty());

  for (const analysis::MergedPair& pair : m.pairs) {
    EXPECT_EQ(pair.context.run_id, kRunId);
    EXPECT_EQ(pair.context.ordinal, 1u);
    EXPECT_EQ(pair.driver_span.name, "rpc");
    EXPECT_EQ(pair.worker_span.name, "request");
    EXPECT_GT(pair.worker_process, 0u);  // served by w1 or w2, not the driver
  }
}

TEST_F(TraceConformance, MergedOutputsAreByteIdenticalAcrossRuns) {
  auto first = analysis::merge_traces(run_traced_campaign());
  auto second = analysis::merge_traces(run_traced_campaign());
  ASSERT_TRUE(first.ok()) << first.error().to_string();
  ASSERT_TRUE(second.ok()) << second.error().to_string();

  std::ostringstream jsonl_a, jsonl_b, summary_a, summary_b;
  analysis::write_merged_jsonl(jsonl_a, first.value());
  analysis::write_merged_jsonl(jsonl_b, second.value());
  EXPECT_EQ(jsonl_a.str(), jsonl_b.str());
  EXPECT_FALSE(jsonl_a.str().empty());

  analysis::write_merge_summary_json(summary_a, first.value(), false);
  analysis::write_merge_summary_json(summary_b, second.value(), false);
  EXPECT_EQ(summary_a.str(), summary_b.str());
}

TEST_F(TraceConformance, FleetFoldMirrorsTheWorkersOwnRegistry) {
  auto w1 = start_worker();
  CampaignConfig config;
  config.workers = {w1->endpoint()};
  config.cell_timeout_ms = 10000;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 2;
  const CampaignOutcome outcome = run_cells(cells_, config);
  ASSERT_EQ(outcome.remote_cells, cells_.size());

  twinsvc::FleetMonitor monitor({w1->endpoint()});
  ASSERT_EQ(monitor.poll_once(), 1u);

  // In-process harness: the "server's own registry" is the global one, so
  // the fold must land exactly the values the server would print itself.
  auto& registry = obs::Registry::global();
  const std::string prefix = "fleet." + w1->endpoint().to_string() + ".";
  EXPECT_EQ(registry.counter(prefix + "svc.plugin.campaign").value(),
            registry.counter("svc.plugin.campaign").value());
  EXPECT_EQ(registry.counter("svc.plugin.campaign").value(), cells_.size());
  EXPECT_GE(registry.gauge(prefix + "heartbeat_age_ms").value(), 0);
}

TEST_F(TraceConformance, EveryTouchedMetricNameIsInTheCatalog) {
  auto w1 = start_worker();
  CampaignConfig config;
  config.workers = {w1->endpoint()};
  config.cell_timeout_ms = 10000;
  config.backoff_base_ms = 1;
  config.backoff_max_ms = 2;
  (void)run_cells(cells_, config);
  twinsvc::FleetMonitor monitor({w1->endpoint()});
  ASSERT_EQ(monitor.poll_once(), 1u);

  const obs::StatsSnapshot snapshot = obs::Registry::global().snapshot();
  EXPECT_FALSE(snapshot.empty());
  for (const auto& [name, value] : snapshot.counters) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented counter " << name;
  }
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented gauge " << name;
  }
  for (const auto& [name, stats] : snapshot.timers) {
    EXPECT_TRUE(obs::catalog_contains(name)) << "undocumented timer " << name;
  }
}

}  // namespace
}  // namespace amjs::campaign
