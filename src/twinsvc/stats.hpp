// Fleet telemetry: the polling side of the kStatsRequest / kStatsReply
// frames (see DESIGN.md "Distributed observability").
//
// FleetMonitor runs the periodic + final polling policy shared by
// RemoteTwinEngine and the campaign driver (--fleet-stats), one
// Client::stats() round trip per endpoint per poll: each successful poll
// folds the server's counters into this process's registry under
// `fleet.<endpoint>.<name>` as deltas (so driver-side values track the
// server's own monotone counters exactly), and maintains per-endpoint
// heartbeat-age and in-flight gauges so a stalled server is visible
// before its request deadline fires.
#pragma once

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "twinsvc/socket.hpp"

namespace amjs::twinsvc {

struct FleetMonitorConfig {
  /// Poll cadence; <= 0 disables the background thread (final_poll() and
  /// poll_once() still work, which is what the tests drive).
  int interval_ms = 0;

  /// Per-poll deadline (connect + request + reply).
  int timeout_ms = 2000;

  /// A server whose last successful poll is older than this *and* whose
  /// last known in-flight depth was non-zero gets a stall warning logged.
  int stall_warn_ms = 10000;
};

class FleetMonitor {
 public:
  FleetMonitor(std::vector<Endpoint> endpoints, FleetMonitorConfig config = {});
  ~FleetMonitor();
  FleetMonitor(const FleetMonitor&) = delete;
  FleetMonitor& operator=(const FleetMonitor&) = delete;

  /// Start the periodic poller (no-op when interval_ms <= 0).
  void start();
  /// Stop the poller thread (idempotent; the destructor calls it too).
  void stop();

  /// Poll every endpoint once, fold the results. Returns the number of
  /// endpoints that answered.
  std::size_t poll_once();

  /// Stop polling, run one last sweep, and return the latest snapshot per
  /// endpoint (unanswered endpoints keep their last good snapshot).
  std::map<std::string, obs::StatsSnapshot> final_poll();

  /// Latest snapshot per endpoint string (copy).
  [[nodiscard]] std::map<std::string, obs::StatsSnapshot> latest() const;

 private:
  void poll_loop();
  void fold(const std::string& endpoint_name,
            const obs::StatsSnapshot& snapshot);

  std::vector<Endpoint> endpoints_;
  FleetMonitorConfig config_;
  std::atomic<bool> stop_{false};
  std::thread poll_thread_;

  mutable std::mutex mutex_;
  struct EndpointState {
    obs::StatsSnapshot last_snapshot;
    /// Counter values already folded into the registry (for delta folds).
    std::map<std::string, std::uint64_t> folded;
    std::chrono::steady_clock::time_point last_success{};
    bool ever_answered = false;
    bool stall_warned = false;
  };
  std::map<std::string, EndpointState> states_;
};

}  // namespace amjs::twinsvc
