// Deadline and admission discipline: a request whose deadline already
// lapsed fails immediately (never a blocked poll), a full admission
// queue sheds with kSvcBusy, a deadline that expires while queued is
// rejected without executing, and a stalled client cannot wedge the
// acceptor. The svc.rejected.* counters pin each path exactly; the
// out-of-band stats frame (served without admission) is the
// synchronization primitive that makes the races deterministic.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "obs/registry.hpp"
#include "support/test_server.hpp"
#include "svc/client.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "svc/server.hpp"
#include "twinsvc/socket.hpp"

namespace amjs::svc {
namespace {

Job probe_job() {
  Job job;
  job.id = 1;
  job.walltime = 3600;
  job.nodes = 10;
  return job;
}

std::int64_t gauge_value(const obs::StatsSnapshot& snapshot,
                         std::string_view name) {
  for (const auto& [gauge_name, value] : snapshot.gauges) {
    if (gauge_name == name) return value;
  }
  return -1;
}

class SvcDeadline : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::set_enabled(true);
    obs::Registry::global().reset_values();
  }

  void TearDown() override {
    client_.reset();
    if (server_ != nullptr) server_->stop();
    obs::Registry::set_enabled(false);
  }

  void start(ServerConfig config) {
    server_ = test_support::start_server(config);
    obs::Registry::global().reset_values();  // drop build-time samples
    client_ = std::make_unique<SvcClient>(client_config());
  }

  [[nodiscard]] ClientConfig client_config(std::int64_t deadline_ms = 0) const {
    ClientConfig config;
    config.endpoint = server_->endpoint();
    config.deadline_ms = deadline_ms;
    return config;
  }

  [[nodiscard]] static std::uint64_t counter(std::string_view name) {
    return obs::Registry::global().counter(name).value();
  }

  /// svc.replies is bumped after the reply hits the wire, so a client
  /// can observe its reply before the counter moves; wait for it.
  static void wait_for_counter(std::string_view name, std::uint64_t expected) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (counter(name) < expected &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_EQ(counter(name), expected);
  }

  /// Block until the gate shows exactly `n` executing requests, via the
  /// out-of-band stats frame (never admitted, so it cannot deadlock on
  /// the very gate it observes).
  void wait_for_inflight(std::int64_t n) {
    SvcClient poller(client_config());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      auto stats = poller.stats();
      ASSERT_TRUE(stats.ok()) << stats.error().to_string();
      if (gauge_value(stats.value(), "svc.in_flight") == n) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    FAIL() << "gate never reached " << n << " in-flight requests";
  }

  std::unique_ptr<SchedServer> server_;
  std::unique_ptr<SvcClient> client_;
};

TEST_F(SvcDeadline, ExpiredDeadlineFailsImmediatelyWithoutExecuting) {
  start(ServerConfig{});
  SvcClient lapsed(client_config(/*deadline_ms=*/-50));
  const auto begin = std::chrono::steady_clock::now();
  auto projection = lapsed.submit_job(probe_job());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_FALSE(projection.ok());
  EXPECT_NE(projection.error().to_string().find("deadline expired"),
            std::string::npos)
      << projection.error().to_string();
  // Rejected at the door, not after a poll(-1) or a queue wait.
  EXPECT_LT(elapsed_ms, 2000);
  EXPECT_EQ(counter("svc.rejected.deadline"), 1u);
  EXPECT_EQ(counter("svc.requests"), 0u);
  EXPECT_EQ(counter("svc.plugin.submit_job"), 0u);

  // The connection survives a deadline rejection.
  auto retry = lapsed.submit_job(probe_job());
  EXPECT_FALSE(retry.ok());
  EXPECT_EQ(counter("svc.rejected.deadline"), 2u);
}

TEST_F(SvcDeadline, FullQueueShedsWithBusyAndPinnedCounters) {
  ServerConfig config;
  config.max_inflight = 1;
  config.max_queue = 0;
  config.faults.stall_ms = 1500;
  start(config);

  // Occupy the single slot, then prove it is occupied before probing.
  std::thread holder([this] {
    SvcClient slow(client_config());
    auto projection = slow.submit_job(probe_job());
    EXPECT_TRUE(projection.ok()) << projection.error().to_string();
  });
  wait_for_inflight(1);

  auto shed = client_->submit_job(probe_job());
  ASSERT_FALSE(shed.ok());
  EXPECT_TRUE(SvcClient::is_busy(shed.error())) << shed.error().to_string();
  EXPECT_EQ(counter("svc.rejected.busy"), 1u);
  holder.join();
  EXPECT_EQ(counter("svc.requests"), 1u);  // only the holder executed
  wait_for_counter("svc.replies", 1);
  EXPECT_EQ(counter("svc.rejected.deadline"), 0u);
}

TEST_F(SvcDeadline, QueuedDeadlineExpiresWithoutExecuting) {
  ServerConfig config;
  config.max_inflight = 1;
  config.max_queue = 1;
  config.faults.stall_ms = 2500;
  start(config);

  std::thread holder([this] {
    SvcClient slow(client_config());
    auto projection = slow.submit_job(probe_job());
    EXPECT_TRUE(projection.ok()) << projection.error().to_string();
  });
  wait_for_inflight(1);

  // Queue slot exists, but the 100 ms budget lapses long before the
  // holder's stall ends: the waiter must come back with a deadline
  // rejection, not execute late and not block forever.
  SvcClient impatient(client_config(/*deadline_ms=*/100));
  const auto begin = std::chrono::steady_clock::now();
  auto projection = impatient.submit_job(probe_job());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_FALSE(projection.ok());
  EXPECT_FALSE(SvcClient::is_busy(projection.error()));
  EXPECT_NE(projection.error().to_string().find("admission queue"),
            std::string::npos)
      << projection.error().to_string();
  EXPECT_GE(elapsed_ms, 100);
  EXPECT_LT(elapsed_ms, 2000);
  EXPECT_EQ(counter("svc.rejected.deadline"), 1u);
  holder.join();
  EXPECT_EQ(counter("svc.requests"), 1u);
  EXPECT_EQ(counter("svc.rejected.busy"), 0u);
}

TEST_F(SvcDeadline, PatientWaiterIsServedWhenTheSlotFrees) {
  ServerConfig config;
  config.max_inflight = 1;
  config.max_queue = 1;
  config.faults.stall_ms = 400;
  start(config);

  std::thread holder([this] {
    SvcClient slow(client_config());
    auto projection = slow.submit_job(probe_job());
    EXPECT_TRUE(projection.ok()) << projection.error().to_string();
  });
  wait_for_inflight(1);

  // No deadline: the waiter queues through the stall and then executes.
  auto projection = client_->submit_job(probe_job());
  EXPECT_TRUE(projection.ok()) << projection.error().to_string();
  holder.join();
  EXPECT_EQ(counter("svc.requests"), 2u);
  wait_for_counter("svc.replies", 2);
  EXPECT_EQ(counter("svc.rejected.busy"), 0u);
  EXPECT_EQ(counter("svc.rejected.deadline"), 0u);
}

TEST_F(SvcDeadline, StalledClientCannotWedgeTheAcceptor) {
  start(ServerConfig{});
  // Two connections that dial and then send nothing: each parks a
  // connection thread in recv, touching neither the gate nor the
  // acceptor loop.
  auto idle_a = twinsvc::dial(server_->endpoint(), 1000);
  auto idle_b = twinsvc::dial(server_->endpoint(), 1000);
  ASSERT_TRUE(idle_a.ok());
  ASSERT_TRUE(idle_b.ok());

  // A well-behaved client connecting after them is served promptly.
  const auto begin = std::chrono::steady_clock::now();
  auto projection = client_->submit_job(probe_job());
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - begin)
          .count();
  ASSERT_TRUE(projection.ok()) << projection.error().to_string();
  EXPECT_LT(elapsed_ms, 5000);
  wait_for_counter("svc.replies", 1);
  idle_a.value().close();
  idle_b.value().close();
}

}  // namespace
}  // namespace amjs::svc
