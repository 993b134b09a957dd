#include "campaign/driver.hpp"

#include <algorithm>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "campaign/frame.hpp"
#include "obs/context.hpp"
#include "obs/registry.hpp"
#include "twinsvc/client.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"

namespace amjs::campaign {
namespace {

using Clock = std::chrono::steady_clock;

void count(std::string_view name, std::uint64_t n = 1) {
  if (obs::Registry::enabled()) obs::Registry::global().counter(name).add(n);
}

void record_ms(std::string_view name, double ms) {
  if (obs::Registry::enabled()) obs::Registry::global().timer(name).record_ms(ms);
}

/// Shared state of one distributed campaign: the work queue, the result
/// slots, and the dedupe/attempt bookkeeping. All fields are guarded by
/// `mutex` except the slots' payloads, which are written exactly once
/// (insert() enforces single ownership under the lock before moving the
/// result in).
struct CampaignState {
  explicit CampaignState(std::size_t cell_count)
      : slots(cell_count), attempts(cell_count, 0) {
    for (std::size_t i = 0; i < cell_count; ++i) queue.push_back(i);
  }

  std::mutex mutex;
  std::deque<std::size_t> queue;
  std::vector<std::optional<CellResult>> slots;
  std::vector<int> attempts;

  std::size_t remote_cells = 0;
  std::size_t requeues = 0;
  std::size_t duplicate_results = 0;
  std::size_t retired_workers = 0;

  /// Claim the next cell to dispatch, if any.
  [[nodiscard]] std::optional<std::size_t> pop() {
    const std::lock_guard<std::mutex> lock(mutex);
    if (queue.empty()) return std::nullopt;
    const std::size_t index = queue.front();
    queue.pop_front();
    return index;
  }

  /// Store a result; false = this cell already has one (dropped, counted).
  [[nodiscard]] bool insert(std::size_t index, CellResult result, bool remote) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (slots[index].has_value()) {
      ++duplicate_results;
      count("campaign.duplicate_results");
      return false;
    }
    slots[index] = std::move(result);
    if (remote) ++remote_cells;
    return true;
  }

  /// A dispatch failed: requeue while attempts remain, otherwise leave
  /// the cell to the completion sweep.
  void release(std::size_t index, int max_remote_attempts) {
    const std::lock_guard<std::mutex> lock(mutex);
    ++requeues;
    count("campaign.requeues");
    if (attempts[index] < max_remote_attempts) {
      queue.push_back(index);
    } else {
      count("campaign.exhausted_cells");
    }
  }
};

/// One dispatch attempt of one cell through the dispatcher's client.
Result<CellResult> attempt_cell(twinsvc::Client& client, const std::string& body,
                                std::uint64_t expected_id,
                                const obs::TraceContext& context) {
  auto reply = client.call(twinsvc::Plugin::kCampaign, body, context);
  if (!reply) return reply.error();
  auto result = decode_cell_result(reply.value().body);
  if (!result) return result.error();
  if (result.value().cell_id != expected_id) {
    return Error{format("result for cell {} on cell {}'s request",
                        result.value().cell_id, expected_id)};
  }
  return result;
}

/// Dispatcher loop for one endpoint: claim cells until the queue drains
/// or the endpoint racks up `worker_failure_limit` consecutive failures.
void dispatch_loop(CampaignState& state, const std::vector<CellRequest>& cells,
                   const std::vector<std::string>& encoded,
                   const twinsvc::Endpoint& worker,
                   const CampaignConfig& config) {
  twinsvc::Client client(twinsvc::ClientConfig{worker, config.cell_timeout_ms});
  int consecutive_failures = 0;
  while (true) {
    const auto claimed = state.pop();
    if (!claimed.has_value()) return;
    const std::size_t index = *claimed;
    int ordinal = 0;
    {
      const std::lock_guard<std::mutex> lock(state.mutex);
      ordinal = ++state.attempts[index];
    }
    count("campaign.dispatches");
    if (config.trace_sink != nullptr) {
      config.trace_sink->record(
          obs::TraceCategory::kCampaign, "dispatch", 0,
          {obs::arg("cell", cells[index].cell_id),
           obs::arg("worker", worker.to_string())});
    }

    // Per-attempt trace context; the body was encoded once.
    obs::TraceContext ctx;
    ctx.run_id = config.trace_run_id;
    ctx.request_id = cells[index].cell_id;
    ctx.ordinal = static_cast<std::uint32_t>(ordinal);
    ctx.parent_span = obs::dispatch_span_id(cells[index].cell_id, ctx.ordinal);

    const double rpc_start_wall = config.trace_sink != nullptr
                                      ? config.trace_sink->now_wall_ms()
                                      : 0.0;
    const auto rpc_start = Clock::now();
    Result<CellResult> outcome =
        attempt_cell(client, encoded[index], cells[index].cell_id, ctx);
    const double rpc_ms = std::chrono::duration<double, std::milli>(
                              Clock::now() - rpc_start)
                              .count();
    record_ms("campaign.rpc", rpc_ms);
    if (config.trace_sink != nullptr) {
      // The dispatch span the server's request span parents under: one
      // per attempt, success or not, so unanswered dispatches stay visible
      // in the merged timeline.
      std::vector<obs::TraceArg> args;
      obs::append_context_args(args, ctx);
      args.push_back(obs::arg(std::string(obs::kArgTraceSpan), ctx.parent_span));
      args.push_back(obs::arg("worker", worker.to_string()));
      args.push_back(obs::arg("ok", outcome.ok() ? 1 : 0));
      config.trace_sink->record_span(obs::TraceCategory::kCampaign, "rpc", 0,
                                     rpc_start_wall, rpc_ms, std::move(args));
    }
    if (outcome.ok()) {
      consecutive_failures = 0;
      if (state.insert(index, std::move(outcome).value(), /*remote=*/true)) {
        count("campaign.remote_cells");
        if (config.trace_sink != nullptr) {
          config.trace_sink->record(obs::TraceCategory::kCampaign, "cell_result",
                                    0, {obs::arg("cell", cells[index].cell_id)});
        }
      }
      continue;
    }

    // Failed attempt (the client already dropped a connection whose stream
    // state is unknown): requeue the cell and back off before this
    // endpoint tries again.
    count("campaign.rpc_errors");
    log::warn("campaign: cell {} on {} failed: {}", cells[index].cell_id,
              worker.to_string(), outcome.error().to_string());
    state.release(index, config.max_remote_attempts);
    if (config.trace_sink != nullptr) {
      config.trace_sink->record(obs::TraceCategory::kCampaign, "requeue", 0,
                                {obs::arg("cell", cells[index].cell_id),
                                 obs::arg("worker", worker.to_string()),
                                 obs::arg("error", outcome.error().to_string())});
    }
    ++consecutive_failures;
    if (consecutive_failures >= config.worker_failure_limit) {
      const std::lock_guard<std::mutex> lock(state.mutex);
      ++state.retired_workers;
      count("campaign.retired_workers");
      log::warn("campaign: retiring {} after {} consecutive failures",
                worker.to_string(), consecutive_failures);
      return;
    }
    const int shift = std::min(consecutive_failures - 1, 16);
    const int backoff = std::min(config.backoff_base_ms << shift,
                                 config.backoff_max_ms);
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff));
    }
  }
}

}  // namespace

CampaignOutcome run_cells(const std::vector<CellRequest>& cells,
                          const CampaignConfig& config) {
  const auto run_start = Clock::now();
  const auto record_run = [&] {
    record_ms("campaign.run",
              std::chrono::duration<double, std::milli>(Clock::now() - run_start)
                  .count());
  };
  count("campaign.cells", cells.size());

  CampaignOutcome outcome;
  if (config.workers.empty()) {
    // All-local reference path: index-ordered parallel map, so the result
    // vector is already in cell-id order.
    outcome.cells = parallel_map<CellResult>(
        cells.size(), [&](std::size_t i) { return run_cell(cells[i]); },
        config.local_threads);
    outcome.local_cells = cells.size();
    count("campaign.local_cells", cells.size());
    record_run();
    return outcome;
  }

  CampaignState state(cells.size());
  std::vector<std::string> encoded;
  encoded.reserve(cells.size());
  for (const CellRequest& cell : cells) {
    encoded.push_back(encode_run_cell_payload(cell));
  }

  {
    std::vector<std::thread> dispatchers;
    dispatchers.reserve(config.workers.size());
    for (const twinsvc::Endpoint& worker : config.workers) {
      dispatchers.emplace_back([&state, &cells, &encoded, &worker, &config] {
        dispatch_loop(state, cells, encoded, worker, config);
      });
    }
    for (std::thread& t : dispatchers) t.join();
  }

  // Completion sweep: anything the fleet did not deliver runs here. This
  // covers exhausted cells, cells orphaned when their last dispatcher
  // retired, and the race where the queue looked empty to every idle
  // dispatcher while a failing one was about to requeue.
  std::vector<std::size_t> missing;
  for (std::size_t i = 0; i < state.slots.size(); ++i) {
    if (!state.slots[i].has_value()) missing.push_back(i);
  }
  if (!missing.empty()) {
    count("campaign.local_cells", missing.size());
    std::vector<CellResult> local = parallel_map<CellResult>(
        missing.size(),
        [&](std::size_t i) { return run_cell(cells[missing[i]]); },
        config.local_threads);
    for (std::size_t i = 0; i < missing.size(); ++i) {
      if (config.trace_sink != nullptr) {
        config.trace_sink->record(
            obs::TraceCategory::kCampaign, "local_cell", 0,
            {obs::arg("cell", cells[missing[i]].cell_id)});
      }
      (void)state.insert(missing[i], std::move(local[i]), /*remote=*/false);
    }
  }

  outcome.cells.reserve(state.slots.size());
  for (auto& slot : state.slots) outcome.cells.push_back(std::move(*slot));
  outcome.remote_cells = state.remote_cells;
  outcome.local_cells = missing.size();
  outcome.requeues = state.requeues;
  outcome.duplicate_results = state.duplicate_results;
  outcome.retired_workers = state.retired_workers;
  record_run();
  return outcome;
}

Result<CampaignOutcome> run_campaign(const CampaignSpec& spec,
                                     const CampaignConfig& config) {
  auto cells = enumerate_cells(spec);
  if (!cells) return cells.error();
  return run_cells(cells.value(), config);
}

}  // namespace amjs::campaign
