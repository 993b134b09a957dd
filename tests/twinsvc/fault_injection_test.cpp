// Fault injection: every failure mode of a remote twin consult —
// unreachable servers, a server dropping the request, a stalled server
// blowing the deadline, corrupted replies — must resolve
// deterministically: bounded retry, then in-process fallback with
// verdicts identical to what the remote path would have produced. The
// twinsvc.* counters pin the exact retry/fallback path taken.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "support/test_server.hpp"
#include "twinsvc/client.hpp"

namespace amjs::twinsvc {
namespace {

using test_support::same_verdicts;
using test_support::start_server;
using test_support::twin_config;

std::uint64_t counter(std::string_view name) {
  return obs::Registry::global().counter(name).value();
}

/// Shared scenario state: machine, workload, snapshot, candidates, and
/// the local ground-truth verdicts every degraded consult must match.
class TwinsvcFaults : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    obs::Registry::global().reset_values();
    machine_ = MachineSpec::flat(100);
    trace_ = test_support::contended_trace();
    snapshot_ = test_support::snapshot_at(machine_, trace_, 4);
    ASSERT_TRUE(snapshot_.valid());
    candidates_ = test_support::grid_candidates();
    LocalTwinBackend local(machine_.factory(), twin_config());
    auto results = local.evaluate(trace_, snapshot_, candidates_);
    ASSERT_TRUE(results.ok());
    local_results_ = std::move(results).value();
    obs::Registry::global().reset_values();  // drop setup-time samples
  }

  void TearDown() override { obs::Registry::set_enabled(false); }

  void expect_matches_local(const std::vector<TwinForkResult>& got) {
    EXPECT_TRUE(same_verdicts(got, local_results_));
  }

  [[nodiscard]] static std::unique_ptr<svc::SchedServer> start_faulty(
      svc::ServerFaults faults) {
    svc::ServerConfig config;
    config.faults = faults;
    return start_server(config);
  }

  [[nodiscard]] RemoteTwinConfig client_config(std::vector<Endpoint> workers,
                                               int max_retries) const {
    RemoteTwinConfig config;
    config.workers = std::move(workers);
    config.twin = twin_config();
    config.max_retries = max_retries;
    config.backoff_base_ms = 1;  // keep deterministic tests fast
    config.backoff_max_ms = 2;
    return config;
  }

  MachineSpec machine_;
  JobTrace trace_;
  SimSnapshot snapshot_;
  std::vector<TwinCandidateSpec> candidates_;
  std::vector<TwinForkResult> local_results_;
};

TEST_F(TwinsvcFaults, UnreachableWorkersExhaustRetriesThenFallBack) {
  const Endpoint dead =
      Endpoint::unix_path("/tmp/amjs_twinsvc_test_no_such_server.sock");
  RemoteTwinEngine remote(machine_, client_config({dead}, /*max_retries=*/1));

  obs::TraceRecorder sink;
  auto results = remote.evaluate(trace_, snapshot_, candidates_, &sink);
  ASSERT_TRUE(results.ok());  // degradation is not an error
  expect_matches_local(results.value());

  EXPECT_EQ(counter("twinsvc.consults"), 1u);
  EXPECT_EQ(counter("twinsvc.dispatches"), 2u);  // first attempt + 1 retry
  EXPECT_EQ(counter("twinsvc.retries"), 1u);
  EXPECT_EQ(counter("twinsvc.rpc_errors"), 2u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 1u);
  EXPECT_EQ(counter("twinsvc.fallback_candidates"), candidates_.size());
  EXPECT_EQ(counter("twinsvc.remote_candidates"), 0u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kTwin, "dispatch"), 2u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kTwin, "fallback"), 1u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kTwin, "remote_verdict"), 0u);
}

TEST_F(TwinsvcFaults, WorkerKilledMidStreamRetriesThenSucceeds) {
  // The server drops its first request without a reply (the crash-mid-
  // consult case), then behaves; bounded retry must recover without
  // falling back.
  svc::ServerFaults faults;
  faults.fail_first = 1;
  auto server = start_faulty(faults);
  RemoteTwinEngine remote(machine_,
                          client_config({server->endpoint()}, /*max_retries=*/2));

  obs::TraceRecorder sink;
  auto results = remote.evaluate(trace_, snapshot_, candidates_, &sink);
  server->stop();
  ASSERT_TRUE(results.ok());
  expect_matches_local(results.value());

  EXPECT_EQ(counter("twinsvc.dispatches"), 2u);
  EXPECT_EQ(counter("twinsvc.retries"), 1u);
  EXPECT_EQ(counter("twinsvc.rpc_errors"), 1u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 0u);
  EXPECT_EQ(counter("twinsvc.remote_candidates"), candidates_.size());
  EXPECT_EQ(counter("svc.aborts"), 1u);
  EXPECT_EQ(server->requests_served(), 1u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kTwin, "remote_verdict"), 1u);
}

TEST_F(TwinsvcFaults, WorkerKilledEveryTimeExhaustsRetriesIntoFallback) {
  // fail_after = 0: every request is dropped without a reply. All
  // attempts burn, then the consult is served in-process — and the
  // verdicts are still exactly the local engine's.
  svc::ServerFaults faults;
  faults.fail_after = 0;
  auto server = start_faulty(faults);
  RemoteTwinEngine remote(machine_,
                          client_config({server->endpoint()}, /*max_retries=*/2));

  obs::TraceRecorder sink;
  auto results = remote.evaluate(trace_, snapshot_, candidates_, &sink);
  server->stop();
  ASSERT_TRUE(results.ok());
  expect_matches_local(results.value());

  EXPECT_EQ(counter("twinsvc.dispatches"), 3u);  // first attempt + 2 retries
  EXPECT_EQ(counter("twinsvc.retries"), 2u);
  EXPECT_EQ(counter("twinsvc.rpc_errors"), 3u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 1u);
  EXPECT_EQ(counter("twinsvc.fallback_candidates"), candidates_.size());
  EXPECT_EQ(counter("twinsvc.remote_candidates"), 0u);
  EXPECT_EQ(counter("svc.aborts"), 3u);
  EXPECT_EQ(server->requests_served(), 0u);
  EXPECT_EQ(sink.count(obs::TraceCategory::kTwin, "fallback"), 1u);
}

TEST_F(TwinsvcFaults, StalledWorkerBlowsDeadlineThenFallsBack) {
  svc::ServerFaults faults;
  faults.stall_ms = 2000;  // far past the client deadline below
  auto server = start_faulty(faults);
  auto config = client_config({server->endpoint()}, /*max_retries=*/0);
  config.request_timeout_ms = 150;
  RemoteTwinEngine remote(machine_, config);

  auto results = remote.evaluate(trace_, snapshot_, candidates_);
  ASSERT_TRUE(results.ok());
  expect_matches_local(results.value());
  server->stop();

  EXPECT_EQ(counter("twinsvc.dispatches"), 1u);
  EXPECT_EQ(counter("twinsvc.rpc_errors"), 1u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 1u);
  EXPECT_EQ(counter("twinsvc.remote_candidates"), 0u);
}

TEST_F(TwinsvcFaults, CorruptVerdictFramesRejectedThenFallBack) {
  svc::ServerFaults faults;
  faults.garbage = true;  // every reply's CRC is wrong
  auto server = start_faulty(faults);
  RemoteTwinEngine remote(machine_,
                          client_config({server->endpoint()}, /*max_retries=*/1));

  auto results = remote.evaluate(trace_, snapshot_, candidates_);
  server->stop();
  ASSERT_TRUE(results.ok());
  expect_matches_local(results.value());

  EXPECT_EQ(counter("twinsvc.dispatches"), 2u);
  EXPECT_EQ(counter("twinsvc.rpc_errors"), 2u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 1u);
  EXPECT_EQ(counter("twinsvc.remote_candidates"), 0u);
}

TEST_F(TwinsvcFaults, SecondWorkerCoversForTheDeadOne) {
  // Retry rotates endpoints: with server 0 dead and server 1 healthy, one
  // retry lands the chunk remotely — no fallback.
  svc::ServerFaults always_dead;
  always_dead.fail_after = 0;
  auto dead = start_faulty(always_dead);
  auto healthy = start_server();
  RemoteTwinEngine remote(
      machine_,
      client_config({dead->endpoint(), healthy->endpoint()}, /*max_retries=*/2));

  // A single chunk (chunk 0) starts on the dead server, retries onto the
  // healthy one. One candidate keeps the shard count at one.
  const std::vector<TwinCandidateSpec> one(candidates_.begin(),
                                           candidates_.begin() + 1);
  auto results = remote.evaluate(trace_, snapshot_, one);
  dead->stop();
  healthy->stop();
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results.value().size(), 1u);
  EXPECT_EQ(results.value()[0].objective, local_results_[0].objective);

  EXPECT_EQ(counter("twinsvc.retries"), 1u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 0u);
  EXPECT_EQ(counter("twinsvc.remote_candidates"), 1u);
  EXPECT_EQ(healthy->requests_served(), 1u);
}

TEST(TwinsvcSocket, LapsedDeadlineFailsImmediatelyNotForever) {
  // A budget that ran out between the caller's positivity check and the
  // I/O call arrives as zero or negative; it must surface as an immediate
  // timeout error, never an indefinite block on a silent peer.
  auto listener = Listener::bind(Endpoint::tcp("127.0.0.1", 0));
  ASSERT_TRUE(listener.ok());
  auto socket = dial(listener.value().endpoint(), 1000);
  ASSERT_TRUE(socket.ok()) << socket.error().to_string();

  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(recv_frame(socket.value(), 0).ok());
  EXPECT_FALSE(recv_frame(socket.value(), -5).ok());
  EXPECT_FALSE(send_frame(socket.value(), encode_stats_request(), 0).ok());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 1000);
}

TEST(TwinsvcSocket, DialHonorsTimeoutWhenPeerNeverCompletesHandshake) {
  // Fill a listener's accept queue and never drain it: once the queue is
  // full the kernel drops (or resets) further SYNs, so connect() gets no
  // SYN-ACK and must give up at the deadline instead of riding the
  // kernel's minutes-long SYN retry cycle — the unreachable-remote-host
  // case, reproduced on loopback.
  auto listener = Listener::bind(Endpoint::tcp("127.0.0.1", 0), /*backlog=*/1);
  ASSERT_TRUE(listener.ok());
  std::vector<Socket> queued;
  bool failed = false;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 8 && !failed; ++i) {
    auto socket = dial(listener.value().endpoint(), /*timeout_ms=*/200);
    if (!socket.ok()) {
      failed = true;
    } else {
      queued.push_back(std::move(socket).value());
    }
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_TRUE(failed);  // the queue holds backlog+1, far fewer than 8
  EXPECT_LT(elapsed, 5000);
}

TEST_F(TwinsvcFaults, EmptyWorkerPoolServesInProcess) {
  RemoteTwinEngine remote(machine_, client_config({}, /*max_retries=*/2));
  auto results = remote.evaluate(trace_, snapshot_, candidates_);
  ASSERT_TRUE(results.ok());
  expect_matches_local(results.value());
  EXPECT_EQ(counter("twinsvc.consults"), 1u);
  EXPECT_EQ(counter("twinsvc.dispatches"), 0u);
  EXPECT_EQ(counter("twinsvc.fallbacks"), 1u);
}

}  // namespace
}  // namespace amjs::twinsvc
