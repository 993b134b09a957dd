// The service suites' shared fixtures: a SchedServer on an ephemeral
// loopback tcp port, and the twin inputs the remote-consult tests score
// (a contended trace, its snapshot, a candidate grid, the twin config).
#pragma once

#include <cstddef>
#include <initializer_list>
#include <memory>
#include <vector>

#include "core/twin_backend.hpp"
#include "platform/machine_spec.hpp"
#include "sim/snapshot.hpp"
#include "svc/server.hpp"

namespace amjs::test_support {

/// A small flat dataset: 100 nodes, one day, snapshot at check 4, a
/// two-hour twin horizon.
[[nodiscard]] svc::DatasetSpec small_dataset_spec();

/// Start a SchedServer on 127.0.0.1:0 serving `spec`'s dataset as world
/// version 1. `config` carries the faults and the trace sink; its fork
/// fan-out is pinned to one thread.
[[nodiscard]] std::unique_ptr<svc::SchedServer> start_server(
    svc::ServerConfig config = {},
    const svc::DatasetSpec& spec = small_dataset_spec());

/// 40 overlapping jobs on a 100-node machine: every fork sees a real queue.
[[nodiscard]] JobTrace contended_trace();

/// The metric-aware scheduler's snapshot of `trace` on `machine` at the
/// `check_index`-th metric check.
[[nodiscard]] SimSnapshot snapshot_at(const MachineSpec& machine,
                                      const JobTrace& trace,
                                      std::size_t check_index);

/// The metric-aware grid `bfs` x `windows`, labelled by policy.
[[nodiscard]] std::vector<TwinCandidateSpec> grid_candidates(
    std::initializer_list<double> bfs = {0.2, 0.5, 1.0},
    std::initializer_list<int> windows = {1, 2});

/// Two-hour horizon, one thread.
[[nodiscard]] TwinConfig twin_config();

/// Equal on every field except wall_ms, the one wall-clock field.
[[nodiscard]] bool same_verdicts(const std::vector<TwinForkResult>& a,
                                 const std::vector<TwinForkResult>& b);

}  // namespace amjs::test_support
