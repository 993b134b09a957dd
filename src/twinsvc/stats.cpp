#include "twinsvc/stats.hpp"

#include <utility>

#include "twinsvc/client.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace amjs::twinsvc {
namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

FleetMonitor::FleetMonitor(std::vector<Endpoint> endpoints,
                           FleetMonitorConfig config)
    : endpoints_(std::move(endpoints)), config_(config) {
  for (const Endpoint& endpoint : endpoints_) {
    states_.emplace(endpoint.to_string(), EndpointState{});
  }
}

FleetMonitor::~FleetMonitor() { stop(); }

void FleetMonitor::start() {
  if (config_.interval_ms <= 0 || poll_thread_.joinable()) return;
  stop_.store(false, std::memory_order_relaxed);
  poll_thread_ = std::thread([this] { poll_loop(); });
}

void FleetMonitor::stop() {
  stop_.store(true, std::memory_order_relaxed);
  if (poll_thread_.joinable()) poll_thread_.join();
}

void FleetMonitor::poll_loop() {
  // Sleep in small slices so stop() never waits a full interval.
  while (!stop_.load(std::memory_order_relaxed)) {
    (void)poll_once();
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(config_.interval_ms);
    while (!stop_.load(std::memory_order_relaxed) && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

void FleetMonitor::fold(const std::string& endpoint_name,
                        const obs::StatsSnapshot& snapshot) {
  EndpointState& state = states_[endpoint_name];
  if (obs::Registry::enabled()) {
    auto& registry = obs::Registry::global();
    for (const auto& [name, value] : snapshot.counters) {
      std::uint64_t& folded = state.folded[name];
      // Server counters are monotone; a smaller value means the server
      // restarted, so re-fold from zero rather than underflow.
      if (value < folded) folded = 0;
      if (value > folded) {
        registry.counter(format("fleet.{}.{}", endpoint_name, name))
            .add(value - folded);
      }
      folded = value;
    }
    for (const auto& [name, value] : snapshot.gauges) {
      registry.gauge(format("fleet.{}.{}", endpoint_name, name)).set(value);
    }
  }
  state.last_snapshot = snapshot;
  state.last_success = Clock::now();
  state.ever_answered = true;
  state.stall_warned = false;
}

std::size_t FleetMonitor::poll_once() {
  std::size_t answered = 0;
  for (const Endpoint& endpoint : endpoints_) {
    const bool enabled = obs::Registry::enabled();
    if (enabled) obs::Registry::global().counter("fleet.polls").add();
    const auto poll_start = Clock::now();
    auto snapshot = Client(ClientConfig{endpoint, config_.timeout_ms}).stats();
    if (enabled) {
      obs::Registry::global()
          .timer("fleet.poll")
          .record_ms(ms_between(poll_start, Clock::now()));
    }
    if (!snapshot) {
      if (enabled) obs::Registry::global().counter("fleet.poll_errors").add();
      log::debug("fleet: stats poll of {} failed: {}", endpoint.to_string(),
                 snapshot.error().to_string());
      continue;
    }
    ++answered;
    const std::lock_guard<std::mutex> lock(mutex_);
    fold(endpoint.to_string(), snapshot.value());
  }
  // Heartbeat sweep: age every endpoint and flag stalls (an endpoint that
  // stopped answering while it still had work in flight).
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto now = Clock::now();
  for (auto& [name, state] : states_) {
    if (!state.ever_answered) continue;
    const double age_ms = ms_between(state.last_success, now);
    if (obs::Registry::enabled()) {
      obs::Registry::global()
          .gauge(format("fleet.{}.heartbeat_age_ms", name))
          .set(static_cast<std::int64_t>(age_ms));
    }
    const std::int64_t in_flight = [&] {
      for (const auto& [gauge_name, value] : state.last_snapshot.gauges) {
        if (gauge_name == "svc.in_flight") return value;
      }
      return std::int64_t{0};
    }();
    if (age_ms > config_.stall_warn_ms && in_flight > 0 &&
        !state.stall_warned) {
      state.stall_warned = true;
      log::warn(
          "fleet: server {} last answered {}ms ago with {} request(s) in "
          "flight — likely stalled",
          name, static_cast<std::int64_t>(age_ms), in_flight);
    }
  }
  return answered;
}

std::map<std::string, obs::StatsSnapshot> FleetMonitor::final_poll() {
  stop();
  (void)poll_once();
  return latest();
}

std::map<std::string, obs::StatsSnapshot> FleetMonitor::latest() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::map<std::string, obs::StatsSnapshot> result;
  for (const auto& [name, state] : states_) {
    if (state.ever_answered) result.emplace(name, state.last_snapshot);
  }
  return result;
}

}  // namespace amjs::twinsvc
