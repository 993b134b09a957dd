// Campaign plugin bodies: run-cell / cell-result payloads must survive an
// encode -> decode roundtrip bit-exactly, and every corruption a network
// can produce — truncation at any byte, bit flips in the request
// envelope, trailing garbage — must surface as a clean Result error,
// never UB and never a silently wrong cell.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/frame.hpp"
#include "snapshot_io/binio.hpp"
#include "snapshot_io/snapshot_codec.hpp"
#include "twinsvc/frame.hpp"

namespace amjs::campaign {
namespace {

CellRequest sample_cell() {
  CampaignSpec spec;
  spec.machine = MachineSpec::flat(64);
  auto policy = PolicySpec::parse("bf0.5w4");
  EXPECT_TRUE(policy.ok());
  spec.policies = {std::move(policy).value()};
  WorkloadSpec workload;
  workload.synthetic.seed = 99;  // overwritten by the seed axis
  workload.synthetic.horizon = hours(3);
  workload.synthetic.base_rate_per_hour = 12.5;
  workload.synthetic.sizes = {4, 8, 16};
  workload.synthetic.size_weights = {0.6, 0.3, 0.1};
  workload.synthetic.bursts = {{1.0, 0.5, 2.0}, {2.0, 0.25, 3.5}};
  workload.label = "frame-test";
  spec.workloads.push_back(std::move(workload));
  spec.seeds = {1234};
  FaultProfileSpec fault;
  fault.label = "fail:1e-4";
  fault.model.rate_per_node_hour = 1e-4;
  fault.model.max_restarts = 1;
  fault.model.seed = 0xBEEF;
  spec.fault_profiles = {fault};
  spec.fairness_stride = 5;
  spec.fairness_tolerance = hours(2);
  auto cells = enumerate_cells(spec);
  EXPECT_TRUE(cells.ok());
  EXPECT_EQ(cells.value().size(), 1u);
  return cells.value()[0];
}

std::string canonical_sim_result(const SimResult& result) {
  snapshot_io::ByteWriter w;
  snapshot_io::write_sim_result(w, result);
  return w.take();
}

TEST(CampaignFrame, RunCellRoundTripsBitExactly) {
  const CellRequest cell = sample_cell();
  auto decoded = decode_run_cell(encode_run_cell_payload(cell));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const CellRequest& got = decoded.value();

  EXPECT_EQ(got.cell_id, cell.cell_id);
  EXPECT_EQ(got.policy_token, cell.policy_token);
  EXPECT_EQ(got.policy_label, cell.policy_label);
  EXPECT_EQ(got.workload_label, "frame-test");
  EXPECT_EQ(got.fault_label, "fail:1e-4");
  EXPECT_EQ(got.seed, 1234u);
  EXPECT_EQ(got.workload_kind, WorkloadSpec::Kind::kSynthetic);
  EXPECT_EQ(got.synthetic.seed, 1234u);
  EXPECT_EQ(got.synthetic.horizon, cell.synthetic.horizon);
  EXPECT_EQ(got.synthetic.base_rate_per_hour, 12.5);
  EXPECT_EQ(got.synthetic.sizes, cell.synthetic.sizes);
  EXPECT_EQ(got.synthetic.size_weights, cell.synthetic.size_weights);
  ASSERT_EQ(got.synthetic.bursts.size(), 2u);
  EXPECT_EQ(got.synthetic.bursts[1].rate_multiplier, 3.5);
  EXPECT_EQ(got.failures.rate_per_node_hour, 1e-4);
  EXPECT_EQ(got.failures.max_restarts, 1);
  EXPECT_EQ(got.failures.seed, 0xBEEFu);
  EXPECT_EQ(got.metric_check_interval, cell.metric_check_interval);
  EXPECT_EQ(got.fairness_stride, 5u);
  EXPECT_EQ(got.fairness_tolerance, hours(2));

  // The decoded cell runs to the bit-identical result — the property the
  // whole remote path rests on.
  const std::string here = canonical_sim_result(run_cell(cell).result);
  const std::string there = canonical_sim_result(run_cell(got).result);
  EXPECT_EQ(here, there);
}

TEST(CampaignFrame, InlineTraceWorkloadRoundTrips) {
  CellRequest cell = sample_cell();
  std::vector<Job> jobs;
  for (int i = 0; i < 5; ++i) {
    Job j;
    j.submit = i * 100;
    j.runtime = 300 + i;
    j.walltime = 600;
    j.nodes = 4;
    jobs.push_back(j);
  }
  auto trace = JobTrace::from_jobs(std::move(jobs));
  ASSERT_TRUE(trace.ok());
  cell.workload_kind = WorkloadSpec::Kind::kInline;
  cell.inline_trace = std::move(trace).value();

  auto decoded = decode_run_cell(encode_run_cell_payload(cell));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_EQ(decoded.value().workload_kind, WorkloadSpec::Kind::kInline);
  ASSERT_EQ(decoded.value().inline_trace.size(), 5u);
  EXPECT_EQ(decoded.value().inline_trace.jobs()[4].runtime, 304);
  EXPECT_EQ(decoded.value().build_trace().size(), 5u);
}

TEST(CampaignFrame, CellResultRoundTripsBitExactly) {
  CellRequest cell = sample_cell();
  cell.fairness_stride = 3;  // exercise the fairness arm of the payload
  const CellResult result = run_cell(cell);
  ASSERT_TRUE(result.has_fairness);

  auto decoded = decode_cell_result(encode_cell_result_payload(result));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();

  EXPECT_EQ(decoded.value().cell_id, result.cell_id);
  EXPECT_EQ(canonical_sim_result(decoded.value().result),
            canonical_sim_result(result.result));
  EXPECT_TRUE(decoded.value().has_fairness);
  EXPECT_EQ(decoded.value().fairness.fair_start, result.fairness.fair_start);
  EXPECT_EQ(decoded.value().fairness.unfair_jobs, result.fairness.unfair_jobs);
  EXPECT_EQ(decoded.value().wall_ms, result.wall_ms);
}

TEST(CampaignFrame, RunCellPayloadSurvivesTruncationAtEveryByte) {
  const std::string payload = encode_run_cell_payload(sample_cell());
  for (std::size_t len = 0; len < payload.size(); ++len) {
    auto decoded = decode_run_cell(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "decoded from " << len << " bytes";
  }
}

TEST(CampaignFrame, CellResultPayloadSurvivesTruncationAtEveryByte) {
  CellRequest cell = sample_cell();
  cell.fairness_stride = 3;
  const std::string payload = encode_cell_result_payload(run_cell(cell));
  for (std::size_t len = 0; len < payload.size(); ++len) {
    auto decoded = decode_cell_result(std::string_view(payload).substr(0, len));
    EXPECT_FALSE(decoded.ok()) << "decoded from " << len << " bytes";
  }
}

TEST(CampaignFrame, TrailingBytesAreRejected) {
  auto bad = decode_run_cell(encode_run_cell_payload(sample_cell()) + "x");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().to_string().find("trailing"), std::string::npos);
  EXPECT_FALSE(
      decode_cell_result(encode_cell_result_payload(run_cell(sample_cell())) + "x")
          .ok());
}

TEST(CampaignFrame, FrameLayerCatchesPayloadBitFlips) {
  // Flip one bit at a spread of payload offsets: the request envelope's
  // CRC must reject every one before the payload decoder ever runs.
  twinsvc::SvcRequest request;
  request.plugin = static_cast<std::uint32_t>(twinsvc::Plugin::kCampaign);
  request.body = encode_run_cell_payload(sample_cell());
  const std::string sealed = twinsvc::encode_svc_request(request);
  for (std::size_t offset = twinsvc::kFrameHeaderSize;
       offset + 4 < sealed.size(); offset += 37) {
    std::string corrupt = sealed;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    EXPECT_FALSE(twinsvc::decode_frame(corrupt).ok())
        << "bit flip at " << offset << " undetected";
  }
}

TEST(CampaignFrame, UnknownPolicyTokenInPayloadIsRejected) {
  // A peer could ship a structurally valid cell whose policy this build
  // cannot instantiate; the decoder must reject it, not crash in make().
  CellRequest cell = sample_cell();
  cell.policy_token = "bf9z";
  EXPECT_FALSE(decode_run_cell(encode_run_cell_payload(cell)).ok());
}

TEST(CampaignFrame, MismatchedSizeLadderIsRejected) {
  // Hand-build a synthetic section whose weights count disagrees with the
  // sizes count; the structural check must fire even though every field
  // read succeeds.
  CellRequest cell = sample_cell();
  cell.synthetic.size_weights = {0.6, 0.4};  // sizes has 3 entries
  auto decoded = decode_run_cell(encode_run_cell_payload(cell));
  ASSERT_FALSE(decoded.ok());
  EXPECT_NE(decoded.error().to_string().find("mismatch"), std::string::npos);
}

}  // namespace
}  // namespace amjs::campaign
