#include "svc/client.hpp"

#include <utility>

#include "campaign/frame.hpp"

namespace amjs::svc {

Result<StartProjection> SvcClient::submit_job(const Job& job) {
  auto reply = call(Plugin::kSubmitJob, encode_submit_job(job));
  if (!reply) return reply.error();
  return decode_start_projection(reply.value().body);
}

Result<std::vector<TwinForkResult>> SvcClient::what_if(
    const std::vector<TwinCandidateSpec>& candidates) {
  auto reply = call(Plugin::kWhatIf, encode_candidates(candidates));
  if (!reply) return reply.error();
  return decode_verdicts(reply.value().body);
}

Result<std::string> SvcClient::trace_explain(const std::string& jsonl_a,
                                             const std::string& jsonl_b) {
  auto reply = call(Plugin::kTraceExplain,
                    encode_trace_pair(TracePair{jsonl_a, jsonl_b}));
  if (!reply) return reply.error();
  return std::move(reply).value().body;
}

Result<campaign::CellResult> SvcClient::run_cell(
    const campaign::CellRequest& cell) {
  auto reply =
      call(Plugin::kCampaign, campaign::encode_run_cell_payload(cell));
  if (!reply) return reply.error();
  return campaign::decode_cell_result(reply.value().body);
}

Result<ReloadAck> SvcClient::reload(const DatasetSpec& spec) {
  auto reply = call(Plugin::kReload, encode_dataset_spec(spec));
  if (!reply) return reply.error();
  return decode_reload_ack(reply.value().body);
}

}  // namespace amjs::svc
