// Conformance: remote twin verdicts (the eval plugin) must be
// bit-identical to the in-process TwinEngine's — same labels, same
// bit-pattern scores, same adoption decisions — over a real loopback
// socket pair. If these hold, `--twin-remote` changes who does the work,
// never what the tuner decides.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/what_if.hpp"
#include "sim/result.hpp"
#include "support/test_server.hpp"
#include "twinsvc/client.hpp"

namespace amjs::twinsvc {
namespace {

using test_support::contended_trace;
using test_support::grid_candidates;
using test_support::same_verdicts;
using test_support::snapshot_at;
using test_support::start_server;
using test_support::twin_config;

/// Score `candidates` over `servers` and in-process; both must agree
/// bit for bit. Returns the requests the servers answered.
std::uint64_t expect_remote_matches_local(
    const MachineSpec& machine, const JobTrace& trace,
    const SimSnapshot& snapshot,
    const std::vector<TwinCandidateSpec>& candidates, std::size_t servers) {
  std::vector<std::unique_ptr<svc::SchedServer>> fleet;
  RemoteTwinConfig config;
  for (std::size_t i = 0; i < servers; ++i) {
    fleet.push_back(start_server());
    config.workers.push_back(fleet.back()->endpoint());
  }
  config.twin = twin_config();
  RemoteTwinEngine remote(machine, config);
  auto remote_results = remote.evaluate(trace, snapshot, candidates);
  LocalTwinBackend local(machine.factory(), twin_config());
  auto local_results = local.evaluate(trace, snapshot, candidates);
  std::uint64_t served = 0;
  for (auto& server : fleet) {
    server->stop();
    served += server->requests_served();
  }
  EXPECT_TRUE(remote_results.ok());
  EXPECT_TRUE(local_results.ok());
  EXPECT_TRUE(same_verdicts(remote_results.value(), local_results.value()));
  // Identical verdicts imply the identical adoption decision.
  EXPECT_EQ(TwinEngine::best_index(remote_results.value()),
            TwinEngine::best_index(local_results.value()));
  return served;
}

TEST(TwinsvcConformance, LoopbackVerdictsBitIdenticalToLocal) {
  const MachineSpec machine = MachineSpec::flat(100);
  const auto trace = contended_trace();
  // The consult must actually have been served remotely — a silent
  // fallback would make this test vacuous.
  EXPECT_EQ(expect_remote_matches_local(machine, trace,
                                        snapshot_at(machine, trace, 4),
                                        grid_candidates(), 1),
            1u);
}

TEST(TwinsvcConformance, ShardingAcrossWorkersPreservesOrderAndBits) {
  const MachineSpec machine = MachineSpec::flat(100);
  const auto trace = contended_trace();
  // 6 candidates over 3 servers: one chunk per server.
  EXPECT_EQ(expect_remote_matches_local(machine, trace,
                                        snapshot_at(machine, trace, 4),
                                        grid_candidates(), 3),
            3u);
}

TEST(TwinsvcConformance, UnevenShardingServesEveryCandidate) {
  // 5 candidates over 4 servers: ceil-division sharding used to push the
  // last chunk's begin past end() (UB in the vector range constructor).
  // The balanced split must give every server a non-empty contiguous
  // chunk and lose no candidate.
  const MachineSpec machine = MachineSpec::flat(100);
  const auto trace = contended_trace();
  auto candidates = grid_candidates();
  candidates.pop_back();
  EXPECT_EQ(expect_remote_matches_local(machine, trace,
                                        snapshot_at(machine, trace, 4),
                                        candidates, 4),
            4u);
}

TEST(TwinsvcConformance, RepeatedConsultsAreStable) {
  const MachineSpec machine = MachineSpec::flat(100);
  const auto trace = contended_trace();
  const auto snapshot = snapshot_at(machine, trace, 4);
  const auto candidates = grid_candidates();

  auto server = start_server();
  RemoteTwinConfig config;
  config.workers = {server->endpoint()};
  config.twin = twin_config();
  RemoteTwinEngine remote(machine, config);
  auto first = remote.evaluate(trace, snapshot, candidates);
  auto second = remote.evaluate(trace, snapshot, candidates);
  server->stop();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(same_verdicts(first.value(), second.value()));
}

/// End-to-end: a full WhatIfTuner run whose every consult goes through
/// the service must produce a byte-identical SimResult to the all-local
/// run — the whole-schedule form of the conformance claim.
TEST(TwinsvcConformance, WhatIfRunByteIdenticalUnderRemoteBackend) {
  const MachineSpec machine = MachineSpec::flat(100);
  const auto trace = contended_trace();

  const auto run_with = [&](std::shared_ptr<TwinBackend> backend) {
    WhatIfConfig config;
    config.machine_factory = machine.factory();
    config.twin = twin_config();
    config.evaluate_every = 2;
    config.backend = std::move(backend);
    WhatIfTuner tuner(config);
    auto live = machine.make();
    Simulator sim(*live, tuner);
    const SimResult result = sim.run(trace);
    std::ostringstream out;
    write_result_json(out, result);
    return out.str();
  };

  const std::string local_json = run_with(nullptr);

  auto server = start_server();
  RemoteTwinConfig remote_config;
  remote_config.workers = {server->endpoint()};
  remote_config.twin = twin_config();
  const std::string remote_json = run_with(
      std::make_shared<RemoteTwinEngine>(machine, remote_config));
  server->stop();

  EXPECT_GE(server->requests_served(), 1u);
  EXPECT_EQ(remote_json, local_json);
}

/// The same conformance claim on the partition machine model — the
/// MachineSpec wire form must reproduce the topology, not just flat node
/// counts.
TEST(TwinsvcConformance, PartitionMachineSpecConforms) {
  PartitionConfig topology;
  topology.leaf_nodes = 64;
  topology.row_leaves = 4;
  topology.rows = 2;
  const MachineSpec machine = MachineSpec::partitioned(topology);

  std::vector<Job> jobs;
  for (int i = 0; i < 24; ++i) {
    Job j;
    j.submit = i * 400;
    j.runtime = 1800 + (i % 4) * 600;
    j.walltime = j.runtime + 600;
    j.nodes = 64 * (1 + i % 3);
    jobs.push_back(j);
  }
  auto built = JobTrace::from_jobs(std::move(jobs));
  ASSERT_TRUE(built.ok());
  const JobTrace trace = std::move(built).value();
  EXPECT_EQ(expect_remote_matches_local(machine, trace,
                                        snapshot_at(machine, trace, 2),
                                        grid_candidates(), 1),
            1u);
}

}  // namespace
}  // namespace amjs::twinsvc
