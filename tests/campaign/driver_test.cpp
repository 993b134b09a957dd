// Campaign driver fault matrix: whatever the server fleet does — serves
// cleanly, aborts mid-campaign, stalls past the deadline, corrupts
// replies, or never existed — every cell completes and the aggregated
// report is byte-identical to the all-local reference run. The campaign.*
// counters pin the exact requeue/fallback path taken.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/aggregate.hpp"
#include "campaign/driver.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/test_server.hpp"

namespace amjs::campaign {
namespace {

std::uint64_t counter(std::string_view name) {
  return obs::Registry::global().counter(name).value();
}

/// Cells a server has served: the campaign plugin's counter.
std::uint64_t cells_served() { return counter("svc.plugin.campaign"); }

/// Shared scenario: a cheap 8-cell campaign (2 policies x 2 seeds x 2
/// fault profiles on a 100-node flat machine) plus its all-local
/// reference JSON, which every degraded distributed run must reproduce.
class CampaignDriver : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    obs::Registry::global().reset_values();
    spec_.machine = MachineSpec::flat(100);
    for (const char* token : {"base", "bf0.5w4"}) {
      auto policy = PolicySpec::parse(token);
      ASSERT_TRUE(policy.ok());
      spec_.policies.push_back(std::move(policy).value());
    }
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
    ASSERT_EQ(cells_.size(), 8u);

    CampaignConfig local;
    reference_json_ = outcome_json(run_cells(cells_, local));
    obs::Registry::global().reset_values();  // drop setup-time samples
  }

  void TearDown() override { obs::Registry::set_enabled(false); }

  [[nodiscard]] std::string outcome_json(const CampaignOutcome& outcome) {
    auto report = build_report(spec_, outcome.cells);
    EXPECT_TRUE(report.ok()) << report.error().to_string();
    std::ostringstream out;
    write_campaign_json(out, report.value());
    return out.str();
  }

  /// A real in-process server.
  [[nodiscard]] static std::unique_ptr<svc::SchedServer> start_faulty(
      svc::ServerFaults faults) {
    svc::ServerConfig config;
    config.faults = faults;
    return test_support::start_server(config);
  }

  [[nodiscard]] CampaignConfig fleet_config(
      std::vector<twinsvc::Endpoint> workers) const {
    CampaignConfig config;
    config.workers = std::move(workers);
    config.cell_timeout_ms = 10000;
    config.backoff_base_ms = 1;  // keep deterministic tests fast
    config.backoff_max_ms = 2;
    return config;
  }

  CampaignSpec spec_;
  std::vector<CellRequest> cells_;
  std::string reference_json_;
};

TEST_F(CampaignDriver, LocalRunCompletesEveryCellInOrder) {
  const CampaignOutcome outcome = run_cells(cells_, CampaignConfig{});
  ASSERT_EQ(outcome.cells.size(), 8u);
  for (std::size_t i = 0; i < outcome.cells.size(); ++i) {
    EXPECT_EQ(outcome.cells[i].cell_id, i);
  }
  EXPECT_EQ(outcome.local_cells, 8u);
  EXPECT_EQ(outcome.remote_cells, 0u);
  EXPECT_EQ(outcome.requeues, 0u);
  EXPECT_EQ(counter("campaign.cells"), 8u);
  EXPECT_EQ(counter("campaign.local_cells"), 8u);
  EXPECT_EQ(counter("campaign.dispatches"), 0u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, HealthyWorkerServesEveryCellBitIdentically) {
  auto worker = test_support::start_server();
  obs::TraceRecorder sink;
  CampaignConfig config = fleet_config({worker->endpoint()});
  config.trace_sink = &sink;

  const CampaignOutcome outcome = run_cells(cells_, config);
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 8u);
  EXPECT_EQ(outcome.local_cells, 0u);
  EXPECT_EQ(outcome.requeues, 0u);
  EXPECT_EQ(outcome.duplicate_results, 0u);
  EXPECT_EQ(cells_served(), 8u);
  EXPECT_EQ(counter("campaign.dispatches"), 8u);
  EXPECT_EQ(counter("campaign.remote_cells"), 8u);
  EXPECT_EQ(counter("campaign.rpc_errors"), 0u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kCampaign, "dispatch"), 8u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kCampaign, "cell_result"), 8u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, AbortedCellIsRequeuedAndRetriedOnTheSameWorker) {
  // fail_first = 1: the server aborts exactly its first request (abrupt
  // close, no reply), then behaves. One requeue, one extra dispatch, and
  // the campaign still never leaves the fleet.
  svc::ServerFaults faults;
  faults.fail_first = 1;
  auto worker = start_faulty(faults);
  obs::TraceRecorder sink;
  CampaignConfig config = fleet_config({worker->endpoint()});
  config.trace_sink = &sink;

  const CampaignOutcome outcome = run_cells(cells_, config);
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 8u);
  EXPECT_EQ(outcome.local_cells, 0u);
  EXPECT_EQ(outcome.requeues, 1u);
  EXPECT_EQ(outcome.duplicate_results, 0u);
  EXPECT_EQ(outcome.retired_workers, 0u);
  EXPECT_EQ(cells_served(), 8u);
  EXPECT_EQ(counter("campaign.dispatches"), 9u);  // 8 cells + 1 retry
  EXPECT_EQ(counter("campaign.requeues"), 1u);
  EXPECT_EQ(counter("campaign.rpc_errors"), 1u);
  EXPECT_EQ(counter("campaign.remote_cells"), 8u);
  EXPECT_EQ(counter("campaign.local_cells"), 0u);
  EXPECT_EQ(counter("svc.aborts"), 1u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kCampaign, "requeue"), 1u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, DyingWorkerRetiresAndTheSweepFinishes) {
  // fail_after = 2: the lone server serves two cells, then aborts every
  // later request — the kill-a-worker CI smoke, in-process and exactly
  // pinned. Three consecutive aborts retire it; the stranded six cells
  // run in the completion sweep.
  svc::ServerFaults faults;
  faults.fail_after = 2;
  auto worker = start_faulty(faults);
  const CampaignConfig config = fleet_config({worker->endpoint()});

  const CampaignOutcome outcome = run_cells(cells_, config);
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 2u);
  EXPECT_EQ(outcome.local_cells, 6u);
  EXPECT_EQ(outcome.requeues, 3u);
  EXPECT_EQ(outcome.retired_workers, 1u);
  EXPECT_EQ(cells_served(), 2u);
  EXPECT_EQ(counter("campaign.dispatches"), 5u);  // 2 served + 3 aborted
  EXPECT_EQ(counter("campaign.rpc_errors"), 3u);
  EXPECT_EQ(counter("svc.aborts"), 3u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, HealthyWorkerCoversForADyingPeer) {
  // The two-dispatcher integration shape: however the race between the
  // healthy and the dying endpoint plays out, every cell completes and
  // the report matches the reference. (The exact split is timing-
  // dependent; the single-worker tests pin the counters.)
  auto healthy = test_support::start_server();
  svc::ServerFaults faults;
  faults.fail_after = 2;
  auto dying = start_faulty(faults);
  const CampaignConfig config =
      fleet_config({healthy->endpoint(), dying->endpoint()});

  const CampaignOutcome outcome = run_cells(cells_, config);
  healthy->stop();
  dying->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells + outcome.local_cells, 8u);
  EXPECT_LE(dying->requests_served(), 2u);
  EXPECT_EQ(cells_served(), outcome.remote_cells);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, StalledWorkerBlowsDeadlinesNotTheCampaign) {
  // The server sleeps far past the per-cell deadline on every request.
  // The driver must spend at most worker_failure_limit deadlines before
  // retiring it and finishing locally — bounded wall clock, no hang.
  svc::ServerFaults faults;
  faults.stall_ms = 2000;
  auto worker = start_faulty(faults);
  CampaignConfig config = fleet_config({worker->endpoint()});
  config.cell_timeout_ms = 200;
  config.worker_failure_limit = 2;

  const auto start = std::chrono::steady_clock::now();
  const CampaignOutcome outcome = run_cells(cells_, config);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 0u);
  EXPECT_EQ(outcome.local_cells, 8u);
  EXPECT_EQ(outcome.requeues, 2u);
  EXPECT_EQ(outcome.retired_workers, 1u);
  EXPECT_EQ(counter("campaign.rpc_errors"), 2u);
  EXPECT_LT(elapsed, 5000);  // 2 deadlines + backoff + 8 local cells
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, CorruptResultFramesAreRejectedAndRerunLocally) {
  // Every reply's CRC is wrong: nothing the server says can be
  // trusted, so after bounded retries the cells run locally — and the
  // report still matches the reference bit for bit.
  svc::ServerFaults faults;
  faults.garbage = true;
  auto worker = start_faulty(faults);
  CampaignConfig config = fleet_config({worker->endpoint()});
  config.worker_failure_limit = 3;

  const CampaignOutcome outcome = run_cells(cells_, config);
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 0u);
  EXPECT_EQ(outcome.local_cells, 8u);
  EXPECT_EQ(outcome.retired_workers, 1u);
  EXPECT_EQ(counter("campaign.rpc_errors"), 3u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, UnreachableFleetDegradesToAllLocal) {
  const twinsvc::Endpoint dead =
      twinsvc::Endpoint::unix_path("/tmp/amjs_campaign_test_no_server.sock");
  obs::TraceRecorder sink;
  CampaignConfig config = fleet_config({dead});
  config.cell_timeout_ms = 200;
  config.worker_failure_limit = 2;
  config.trace_sink = &sink;

  const CampaignOutcome outcome = run_cells(cells_, config);
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 0u);
  EXPECT_EQ(outcome.local_cells, 8u);
  EXPECT_EQ(outcome.retired_workers, 1u);
  EXPECT_EQ(counter("campaign.dispatches"), 2u);
  EXPECT_EQ(counter("campaign.rpc_errors"), 2u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kCampaign, "local_cell"), 8u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, CellsExhaustedEverywhereStillComplete) {
  // Every dispatch aborts and the failure limit is high enough that the
  // worker is never retired: each cell burns max_remote_attempts, lands
  // in exhausted_cells, and the sweep still finishes the campaign.
  svc::ServerFaults faults;
  faults.fail_after = 0;
  auto worker = start_faulty(faults);
  CampaignConfig config = fleet_config({worker->endpoint()});
  config.max_remote_attempts = 1;
  config.worker_failure_limit = 100;

  const CampaignOutcome outcome = run_cells(cells_, config);
  worker->stop();
  ASSERT_EQ(outcome.cells.size(), 8u);
  EXPECT_EQ(outcome.remote_cells, 0u);
  EXPECT_EQ(outcome.local_cells, 8u);
  EXPECT_EQ(outcome.requeues, 8u);
  EXPECT_EQ(counter("campaign.exhausted_cells"), 8u);
  EXPECT_EQ(counter("campaign.dispatches"), 8u);
  EXPECT_EQ(outcome_json(outcome), reference_json_);
}

TEST_F(CampaignDriver, RunCampaignRejectsABadSpecUpFront) {
  CampaignSpec bad = spec_;
  bad.policies.clear();
  EXPECT_FALSE(run_campaign(bad, CampaignConfig{}).ok());
}

}  // namespace
}  // namespace amjs::campaign
