// Plugin body codecs of the scheduler service (see DESIGN.md "Service").
//
// The envelope (twinsvc/frame.hpp) names a plugin and carries an opaque,
// length-prefixed body; this header encodes the bodies of the plugins
// the service owns. They reuse the shared twinsvc field codecs (jobs,
// candidate specs, fork results, machine specs) and the campaign payload
// codecs, so a service reply is byte-identical to the equivalent
// locally-encoded result — the property the conformance suite in
// tests/svc pins.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/twin_backend.hpp"
#include "svc/facade.hpp"
#include "twin/twin.hpp"
#include "twinsvc/frame.hpp"
#include "util/result.hpp"
#include "workload/job.hpp"

namespace amjs::svc {

// The envelope, plugin ids and verdict batches live in twinsvc, below the
// campaign driver and RemoteTwinEngine that send them too.
using twinsvc::decode_svc_busy;
using twinsvc::decode_svc_reply;
using twinsvc::decode_svc_request;
using twinsvc::decode_verdicts;
using twinsvc::encode_svc_busy;
using twinsvc::encode_svc_reply;
using twinsvc::encode_svc_request;
using twinsvc::encode_verdicts;
using twinsvc::Plugin;
using twinsvc::SvcReply;
using twinsvc::SvcRequest;
using twinsvc::to_string;

// --- Plugin bodies. ----------------------------------------------------

/// kSubmitJob request: the job to project.
[[nodiscard]] std::string encode_submit_job(const Job& job);
[[nodiscard]] Result<Job> decode_submit_job(std::string_view body);

/// kSubmitJob reply: the calendar projection.
[[nodiscard]] std::string encode_start_projection(const StartProjection& p);
[[nodiscard]] Result<StartProjection> decode_start_projection(
    std::string_view body);

/// kWhatIf request: candidate batch (shared twinsvc field codec).
[[nodiscard]] std::string encode_candidates(
    const std::vector<TwinCandidateSpec>& candidates);
[[nodiscard]] Result<std::vector<TwinCandidateSpec>> decode_candidates(
    std::string_view body);

// kWhatIf and kEval replies are verdict batches (twinsvc encode_verdicts).
// The what-if plugin zeroes wall_ms (the one nondeterministic field), so
// its body is byte-identical to a locally-encoded LocalTwinBackend
// result; the eval plugin keeps it, because WhatIfTuner sums it into
// twin_wall_ms. The kEval request body is twinsvc::EvalRequest.

/// kTraceExplain request: the two wall-stripped JSONL traces to diff.
struct TracePair {
  std::string a;
  std::string b;
};
[[nodiscard]] std::string encode_trace_pair(const TracePair& pair);
[[nodiscard]] Result<TracePair> decode_trace_pair(std::string_view body);
// (The reply body is the deterministic diff-report JSON, carried as-is.)

// kCampaign bodies are the campaign payloads —
// campaign::encode_run_cell_payload / decode_run_cell on the way in,
// encode_cell_result_payload / decode_cell_result on the way out.

/// kReload request: the recipe for the next generation.
[[nodiscard]] std::string encode_dataset_spec(const DatasetSpec& spec);
[[nodiscard]] Result<DatasetSpec> decode_dataset_spec(std::string_view body);

/// kReload reply.
struct ReloadAck {
  std::uint64_t version = 0;
  std::string label;
};
[[nodiscard]] std::string encode_reload_ack(const ReloadAck& ack);
[[nodiscard]] Result<ReloadAck> decode_reload_ack(std::string_view body);

}  // namespace amjs::svc
