// DataFacade — the scheduler service's resident, hot-swappable world.
//
// The service answers every request against one immutable World: a
// dataset (machine model, workload, simulation snapshot, twin
// parameters) plus the derived read structures built once at load time —
// the restored machine and a prebuilt sched/calendar plan view rooted at
// the snapshot instant. Requests grab a shared_ptr<const World> and keep
// it for the request's whole lifetime, so a concurrent reload never
// tears state out from under an in-flight request: the facade swaps the
// pointer under a mutex, old requests finish against the old world, new
// requests see the new one, and the old world is freed when its last
// request drops the reference (the osrm-style facade-swap discipline).
//
// One sharp edge: a partition calendar's plan view builds its per-tier
// tables on first use and reuses a scratch buffer, even through const
// queries, so concurrent projections on one World would race.
// World::project_start serializes calendar access behind a per-world
// mutex — projections are microsecond-scale, so the lock is invisible
// next to a what-if consult.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "platform/machine.hpp"
#include "platform/machine_spec.hpp"
#include "sched/calendar/calendar.hpp"
#include "sim/snapshot.hpp"
#include "twin/twin.hpp"
#include "util/result.hpp"
#include "util/types.hpp"
#include "workload/synthetic.hpp"
#include "workload/trace.hpp"

namespace amjs::svc {

/// Everything a World is built from. Self-contained and copyable, so a
/// reload can stage a dataset fully before the swap.
struct Dataset {
  std::string label = "default";
  MachineSpec machine = MachineSpec::flat(512);
  /// What-if fork parameters served to the what-if plugin.
  TwinConfig twin;
  JobTrace trace;
  /// The resident state every query runs against; must be valid().
  SimSnapshot snapshot;
};

/// Recipe for a synthetic dataset (initial load and the reload admin
/// frame both build through this, so a hot-swap is reproducible from a
/// handful of scalars).
struct DatasetSpec {
  std::string label = "default";
  MachineSpec machine = MachineSpec::flat(512);
  std::uint64_t seed = 2012;
  /// Synthetic workload shape (kept short: the service replays the sim to
  /// the capture point at load time).
  Duration horizon = days(2);
  double base_rate_per_hour = 6.0;
  /// Capture the resident snapshot at this metric check (1-based).
  std::size_t snapshot_check = 8;
  TwinConfig twin;
};

/// Generate the workload, run it under the metric-aware scheduler to
/// `snapshot_check`, and package the result. Fails if the run ends
/// before the requested check.
[[nodiscard]] Result<Dataset> make_dataset(const DatasetSpec& spec);

/// A submit-job projection: where the calendar plan would start the job
/// if it were submitted at the snapshot instant.
struct StartProjection {
  SimTime start = 0;
  /// start − snapshot.now.
  Duration wait = 0;
};

/// One immutable generation of the service's state. Built once, read by
/// any number of requests, never mutated after build() returns — except
/// the calendar's lazily built query tables, which project_start guards.
class World {
 public:
  /// Restore the machine to the snapshot state and build the calendar
  /// plan view. Fails on an invalid machine spec or snapshot.
  [[nodiscard]] static Result<std::shared_ptr<const World>> build(
      Dataset dataset, std::uint64_t version);

  [[nodiscard]] const Dataset& dataset() const { return dataset_; }
  [[nodiscard]] std::uint64_t version() const { return version_; }

  /// Calendar query: earliest feasible start for `job` at the snapshot
  /// instant, with no commitment. Pure — identical calls return identical
  /// projections, which is what the conformance suite pins against a
  /// direct calendar query. Fails for a job the machine can never hold.
  [[nodiscard]] Result<StartProjection> project_start(const Job& job) const;

 private:
  World() = default;

  Dataset dataset_;
  std::uint64_t version_ = 0;
  std::unique_ptr<Machine> machine_;
  std::unique_ptr<PlanProvider> provider_;
  std::unique_ptr<Plan> plan_;
  /// Serializes calendar queries: a partition view's find_start fills
  /// tier tables and a scratch buffer under const.
  mutable std::mutex plan_mutex_;
};

/// The swap point. world() is a handful of instructions; swap() stages
/// nothing itself — callers build the new World first, then swap.
class DataFacade {
 public:
  explicit DataFacade(std::shared_ptr<const World> initial);

  /// The current generation; callers hold the pointer for the whole
  /// request so a concurrent swap cannot tear it.
  [[nodiscard]] std::shared_ptr<const World> world() const;

  /// Install `next` as the current generation. In-flight requests keep
  /// their old world; the old generation is freed when the last of them
  /// finishes.
  void swap(std::shared_ptr<const World> next);

  /// Version of the current generation.
  [[nodiscard]] std::uint64_t version() const;

  /// Version for the next generation a reload should build (monotonic).
  [[nodiscard]] std::uint64_t next_version();

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const World> world_;
  std::uint64_t next_version_;
};

}  // namespace amjs::svc
