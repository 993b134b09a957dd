// Fleet telemetry: kStatsReply wire codec round-trips, rejects unsorted
// snapshots, and the live path — Client::stats() against a real
// SchedServer, FleetMonitor folding server counters into
// fleet.<endpoint>.* as deltas so driver-side values track the server's
// monotone counters.
#include "twinsvc/stats.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/registry.hpp"
#include "support/test_server.hpp"
#include "twinsvc/client.hpp"

namespace amjs::twinsvc {
namespace {

obs::StatsSnapshot sample_snapshot() {
  obs::StatsSnapshot snapshot;
  snapshot.counters = {{"core.permutations", 681}, {"svc.plugin.campaign", 2}};
  snapshot.gauges = {{"svc.in_flight", -1}, {"svc.uptime_ms", 83}};
  obs::TimerStats t;
  t.count = 4;
  t.total_ms = 2.5;
  t.p50_ms = 0.5;
  t.p95_ms = 0.9;
  t.max_ms = 1.0;
  snapshot.timers = {{"core.pass", t}};
  return snapshot;
}

TEST(StatsCodec, ReplyRoundTripsThroughAFrame) {
  const obs::StatsSnapshot snapshot = sample_snapshot();
  const auto frame = decode_frame(encode_stats_reply(snapshot));
  ASSERT_TRUE(frame.ok()) << frame.error().to_string();
  ASSERT_EQ(frame.value().type, FrameType::kStatsReply);

  const auto decoded = decode_stats_reply(frame.value().payload);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().counters, snapshot.counters);
  EXPECT_EQ(decoded.value().gauges, snapshot.gauges);
  ASSERT_EQ(decoded.value().timers.size(), 1u);
  EXPECT_EQ(decoded.value().timers[0].first, "core.pass");
  EXPECT_EQ(decoded.value().timers[0].second.count, 4u);
  EXPECT_DOUBLE_EQ(decoded.value().timers[0].second.p95_ms, 0.9);
}

TEST(StatsCodec, EmptySnapshotRoundTrips) {
  const auto frame = decode_frame(encode_stats_reply(obs::StatsSnapshot{}));
  ASSERT_TRUE(frame.ok());
  const auto decoded = decode_stats_reply(frame.value().payload);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded.value().empty());
}

TEST(StatsCodec, UnsortedReplyIsRejected) {
  // The sorted order is what makes the driver-side JSON byte-identical to
  // the worker's own --obs-stats output; a codec that lets unsorted
  // entries through would break that silently.
  obs::StatsSnapshot snapshot;
  snapshot.counters = {{"zzz", 1}, {"aaa", 2}};
  const auto frame = decode_frame(encode_stats_reply(snapshot));
  ASSERT_TRUE(frame.ok());
  const auto decoded = decode_stats_reply(frame.value().payload);
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("sorted"), std::string::npos)
      << decoded.error().to_string();
}

TEST(StatsCodec, StatsRequestIsAnEmptyFrame) {
  const auto frame = decode_frame(encode_stats_request());
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame.value().type, FrameType::kStatsRequest);
  EXPECT_TRUE(frame.value().payload.empty());
}

/// Live server on a loopback TCP port, registry armed for the test body.
class FleetStats : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    worker_ = test_support::start_server();
    obs::Registry::global().reset_values();  // drop dataset-build samples
  }

  void TearDown() override {
    worker_.reset();
    obs::Registry::set_enabled(false);
  }

  [[nodiscard]] static Result<obs::StatsSnapshot> query(const Endpoint& endpoint,
                                                        int timeout_ms) {
    return Client(ClientConfig{endpoint, timeout_ms}).stats();
  }

  std::unique_ptr<svc::SchedServer> worker_;
};

TEST_F(FleetStats, QueryServesTheLiveRegistryOutOfBand) {
  obs::Registry::global().counter("test.stats.live").add(5);

  const auto snapshot = query(worker_->endpoint(), 2000);
  ASSERT_TRUE(snapshot.ok()) << snapshot.error().to_string();
  EXPECT_EQ(snapshot.value().counter_value("test.stats.live"), 5u);
  // Stats polls are out-of-band: they must not count as served requests,
  // or the final fleet poll could never match the server's own exit stats.
  EXPECT_EQ(snapshot.value().counter_value("svc.requests"), 0u);
}

TEST_F(FleetStats, QueryFailsCleanlyOnADeadEndpoint) {
  worker_.reset();  // the port is now closed
  const auto snapshot = query(Endpoint::tcp("127.0.0.1", 9), 500);
  EXPECT_FALSE(snapshot.ok());
}

TEST_F(FleetStats, MonitorFoldsCounterDeltas) {
  // The server shares this process's registry, so each poll must fold only
  // the *delta* since the last poll — an absolute fold would double-count.
  obs::Registry::global().counter("test.stats.work").add(3);

  FleetMonitor monitor({worker_->endpoint()});
  ASSERT_EQ(monitor.poll_once(), 1u);
  const std::string name = worker_->endpoint().to_string();
  auto& registry = obs::Registry::global();
  const std::string folded = "fleet." + name + ".test.stats.work";
  EXPECT_EQ(registry.counter(folded).value(), 3u);

  obs::Registry::global().counter("test.stats.work").add(2);
  ASSERT_EQ(monitor.poll_once(), 1u);
  EXPECT_EQ(registry.counter(folded).value(), 5u);

  // No new work: a third poll folds nothing further.
  ASSERT_EQ(monitor.poll_once(), 1u);
  EXPECT_EQ(registry.counter(folded).value(), 5u);
}

TEST_F(FleetStats, MonitorTracksHeartbeatAndLatestSnapshots) {
  FleetMonitor monitor({worker_->endpoint()});
  ASSERT_GE(monitor.poll_once(), 1u);

  const std::string name = worker_->endpoint().to_string();
  const auto latest = monitor.latest();
  ASSERT_EQ(latest.count(name), 1u);

  auto& registry = obs::Registry::global();
  EXPECT_GE(registry.gauge("fleet." + name + ".heartbeat_age_ms").value(), 0);
  EXPECT_GE(registry.counter("fleet.polls").value(), 1u);

  const auto finals = monitor.final_poll();
  ASSERT_EQ(finals.count(name), 1u);
  EXPECT_FALSE(finals.at(name).empty());
}

TEST_F(FleetStats, MonitorCountsPollErrorsForDeadWorkers) {
  const Endpoint dead = Endpoint::tcp("127.0.0.1", 9);
  FleetMonitorConfig config;
  config.timeout_ms = 500;
  FleetMonitor monitor({dead}, config);
  EXPECT_EQ(monitor.poll_once(), 0u);
  EXPECT_GE(obs::Registry::global().counter("fleet.poll_errors").value(), 1u);
  EXPECT_TRUE(monitor.latest().empty());
}

}  // namespace
}  // namespace amjs::twinsvc
