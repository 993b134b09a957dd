// TwinBackend — the consult boundary between policy code and the twin.
//
// TwinEngine (src/twin) takes candidates as factory closures, which keeps
// it policy-agnostic but makes candidates unserializable: a closure cannot
// cross a process boundary. This header introduces the *data* form of a
// candidate — TwinCandidateSpec, a labelled MetricAwareConfig — and an
// abstract TwinBackend that scores a batch of specs against a snapshot.
//
// Two implementations exist:
//   LocalTwinBackend  (here)          — wraps an in-process TwinEngine.
//   RemoteTwinEngine  (src/twinsvc)   — ships specs to sched_server
//                                       processes (the eval plugin) and
//                                       falls back to a LocalTwinBackend
//                                       when servers are unreachable.
//
// WhatIfTuner consults through this interface only, so swapping the
// backend never changes scheduling behaviour: every backend must return
// verdicts bit-identical to TwinEngine's for the same inputs (the
// conformance suite in tests/twinsvc pins this).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/metric_aware.hpp"
#include "obs/trace.hpp"
#include "twin/twin.hpp"
#include "util/result.hpp"

namespace amjs {

/// Serializable candidate: the scheduler a fork trials, as configuration
/// data rather than a factory. v1 of the wire protocol supports the
/// metric-aware family only; the spec carries everything needed to build
/// an identical MetricAwareScheduler on either side of the boundary.
struct TwinCandidateSpec {
  std::string label;
  MetricAwareConfig config;
};

/// Expand a spec into the factory form TwinEngine consumes. Both the
/// local backend and the remote worker build candidates through this one
/// function — the definition of "the same candidate" on both sides.
[[nodiscard]] TwinCandidate to_candidate(const TwinCandidateSpec& spec);

/// Scores candidate futures forked from a snapshot. Implementations must
/// be deterministic: verdict order matches spec order and every scored
/// field except wall_ms is bit-identical across backends and thread
/// counts. `sink` (optional) receives dispatch/verdict trace events.
class TwinBackend {
 public:
  virtual ~TwinBackend() = default;

  [[nodiscard]] virtual Result<std::vector<TwinForkResult>> evaluate(
      const JobTrace& trace, const SimSnapshot& snapshot,
      const std::vector<TwinCandidateSpec>& candidates,
      obs::TraceSink* sink = nullptr) = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// The in-process backend: a thin adapter over TwinEngine. Never fails.
class LocalTwinBackend final : public TwinBackend {
 public:
  LocalTwinBackend(std::function<std::unique_ptr<Machine>()> machine_factory,
                   TwinConfig config = {});

  [[nodiscard]] Result<std::vector<TwinForkResult>> evaluate(
      const JobTrace& trace, const SimSnapshot& snapshot,
      const std::vector<TwinCandidateSpec>& candidates,
      obs::TraceSink* sink = nullptr) override;

  [[nodiscard]] std::string name() const override { return "twin-local"; }

  [[nodiscard]] const TwinEngine& engine() const { return engine_; }

 private:
  TwinEngine engine_;
};

}  // namespace amjs
