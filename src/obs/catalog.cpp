#include "obs/catalog.hpp"

#include <algorithm>

namespace amjs::obs {

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kTimer: return "timer";
  }
  return "?";
}

namespace {

// Sorted by name (enforced by a test). Keep DESIGN.md "Metric catalog"
// in sync — it is generated from this table's content.
constexpr CatalogEntry kCatalog[] = {
    {"calendar.tier_tables", MetricKind::kCounter,
     "partition-calendar per-tier blocked-set tables built (at most one per tier "
     "and timeline build)"},
    {"calendar.timeline_builds", MetricKind::kCounter,
     "partition-calendar timelines rebuilt after start/finish deltas"},
    {"campaign.cells", MetricKind::kCounter,
     "cells enumerated for the campaign run"},
    {"campaign.dispatches", MetricKind::kCounter,
     "cell dispatch attempts sent to servers (retries included)"},
    {"campaign.duplicate_results", MetricKind::kCounter,
     "cell results discarded because the cell already completed"},
    {"campaign.exhausted_cells", MetricKind::kCounter,
     "cells that burned every remote attempt and fell back locally"},
    {"campaign.local_cells", MetricKind::kCounter,
     "cells executed in the driver process"},
    {"campaign.remote_cells", MetricKind::kCounter,
     "cells completed by a server"},
    {"campaign.requeues", MetricKind::kCounter,
     "cells put back on the queue after a failed dispatch"},
    {"campaign.retired_workers", MetricKind::kCounter,
     "server endpoints dropped after exceeding the failure limit"},
    {"campaign.rpc", MetricKind::kTimer,
     "wall time of one cell dispatch round trip"},
    {"campaign.rpc_errors", MetricKind::kCounter,
     "cell dispatch round trips that failed (dial, I/O, decode, deadline)"},
    {"campaign.run", MetricKind::kTimer,
     "wall time of the whole campaign run_cells call"},
    {"core.permutations", MetricKind::kCounter,
     "window permutations scored by WindowAllocator, for windows of two or more jobs"},
    {"core.search_floor_answers", MetricKind::kCounter,
     "window-search find_start calls whose answer was their floor"},
    {"core.search_nodes", MetricKind::kCounter,
     "window search-tree nodes expanded by WindowAllocator"},
    {"core.search_queries", MetricKind::kCounter,
     "find_start calls made by the window search (twin reuses excluded)"},
    {"core.window_decide", MetricKind::kTimer,
     "wall time of one WindowAllocator decision, for a window of two or more jobs"},
    {"fairness.probes", MetricKind::kCounter,
     "jobs the fair-start oracle forked a run for (started, but not on arrival)"},
    {"fairness.segments", MetricKind::kCounter,
     "fair-start probe segments run, each with its own full run (one per thread)"},
    {"fleet.poll", MetricKind::kTimer,
     "wall time of one stats poll round trip to a server"},
    {"fleet.poll_errors", MetricKind::kCounter,
     "stats polls that failed (dial, I/O, decode)"},
    {"fleet.polls", MetricKind::kCounter,
     "stats polls attempted across the fleet"},
    {"sched.backfill_dominated", MetricKind::kCounter,
     "backfill probes skipped because an earlier refusal in the pass decides them"},
    {"sched.backfill_probes", MetricKind::kCounter,
     "backfill probes that reached the machine or the plan"},
    {"sim.sched_pass", MetricKind::kTimer,
     "wall time of one scheduler pass"},
    {"sim.snapshot_capture", MetricKind::kTimer,
     "wall time capturing a SimSnapshot"},
    {"sim.snapshot_restore", MetricKind::kTimer,
     "wall time restoring a SimSnapshot"},
    {"svc.aborts", MetricKind::kCounter,
     "admitted requests dropped without a reply by fault injection"},
    {"svc.in_flight", MetricKind::kGauge,
     "scheduler-service requests executing right now"},
    {"svc.plugin.campaign", MetricKind::kCounter,
     "campaign-cell plugin requests served"},
    {"svc.plugin.eval", MetricKind::kCounter,
     "eval plugin requests served (remote twin consults)"},
    {"svc.plugin.reload", MetricKind::kCounter,
     "reload admin requests that hot-swapped the dataset"},
    {"svc.plugin.submit_job", MetricKind::kCounter,
     "submit-job plugin requests served"},
    {"svc.plugin.trace_explain", MetricKind::kCounter,
     "trace-explain plugin requests served"},
    {"svc.plugin.what_if", MetricKind::kCounter,
     "what-if plugin requests served"},
    {"svc.queue_depth", MetricKind::kGauge,
     "requests waiting in the admission queue right now"},
    {"svc.rejected.busy", MetricKind::kCounter,
     "requests shed with kSvcBusy because the admission queue was full"},
    {"svc.rejected.deadline", MetricKind::kCounter,
     "requests rejected because their deadline lapsed before execution"},
    {"svc.rejected.frame", MetricKind::kCounter,
     "connections dropped on a malformed frame (bad header, CRC, decode)"},
    {"svc.rejected.plugin", MetricKind::kCounter,
     "well-formed requests naming an unknown plugin or frame family"},
    {"svc.reloads", MetricKind::kCounter,
     "dataset hot-swaps applied by the reload admin plugin"},
    {"svc.replies", MetricKind::kCounter,
     "successful kSvcReply frames sent"},
    {"svc.request", MetricKind::kTimer,
     "wall time executing one admitted service request"},
    {"svc.requests", MetricKind::kCounter,
     "service requests admitted for execution"},
    {"svc.uptime_ms", MetricKind::kGauge,
     "wall ms since server start, stamped when a stats snapshot is taken"},
    {"svc.world_version", MetricKind::kGauge,
     "version of the resident dataset currently serving reads"},
    {"twin.fork_replay", MetricKind::kTimer,
     "wall time of one forked twin replay"},
    {"twin.forks", MetricKind::kCounter,
     "twin replays forked by TwinEngine"},
    {"twinsvc.consult", MetricKind::kTimer,
     "wall time of one remote what-if consult (all chunks)"},
    {"twinsvc.consults", MetricKind::kCounter,
     "what-if consults routed through RemoteTwinEngine"},
    {"twinsvc.dispatches", MetricKind::kCounter,
     "eval request dispatch attempts sent to servers (retries included)"},
    {"twinsvc.fallback_candidates", MetricKind::kCounter,
     "candidates evaluated by the local fallback backend"},
    {"twinsvc.fallbacks", MetricKind::kCounter,
     "consult chunks that fell back to the local twin"},
    {"twinsvc.remote_candidates", MetricKind::kCounter,
     "candidates evaluated remotely"},
    {"twinsvc.retries", MetricKind::kCounter,
     "eval dispatches retried after an error"},
    {"twinsvc.rpc", MetricKind::kTimer,
     "wall time of one eval request round trip"},
    {"twinsvc.rpc_errors", MetricKind::kCounter,
     "eval round trips that failed (dial, I/O, decode, deadline)"},
};

// Driver-minted per-endpoint meta gauges that have no global entry of
// their own: `fleet.<endpoint>.<meta>`.
constexpr std::string_view kFleetMetaSuffixes[] = {"heartbeat_age_ms"};

}  // namespace

std::span<const CatalogEntry> metric_catalog() { return kCatalog; }

const CatalogEntry* catalog_find(std::string_view name) {
  const auto it = std::lower_bound(
      std::begin(kCatalog), std::end(kCatalog), name,
      [](const CatalogEntry& e, std::string_view key) { return e.name < key; });
  if (it == std::end(kCatalog) || it->name != name) return nullptr;
  return it;
}

bool catalog_contains(std::string_view name) {
  if (catalog_find(name) != nullptr) return true;
  constexpr std::string_view kFleetPrefix = "fleet.";
  if (name.substr(0, kFleetPrefix.size()) != kFleetPrefix) return false;
  const auto ends_with_dotted = [name](std::string_view suffix) {
    if (name.size() <= suffix.size() + 1) return false;
    return name[name.size() - suffix.size() - 1] == '.' &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  for (const CatalogEntry& entry : kCatalog) {
    if (ends_with_dotted(entry.name)) return true;
  }
  for (const std::string_view meta : kFleetMetaSuffixes) {
    if (ends_with_dotted(meta)) return true;
  }
  return false;
}

}  // namespace amjs::obs
