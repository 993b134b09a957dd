// SvcClient — typed plugin calls on the scheduler service.
//
// The round trip itself (one connection, one envelope out, one reply in,
// busy/error mapping, re-dial after a broken stream) is twinsvc::Client,
// the one client loop every caller shares; SvcClient adds a typed wrapper
// per plugin that encodes the body and decodes the reply.
#pragma once

#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "core/twin_backend.hpp"
#include "svc/facade.hpp"
#include "svc/frame.hpp"
#include "twinsvc/client.hpp"
#include "util/result.hpp"
#include "workload/job.hpp"

namespace amjs::svc {

using ClientConfig = twinsvc::ClientConfig;

class SvcClient : public twinsvc::Client {
 public:
  using Client::Client;

  [[nodiscard]] Result<StartProjection> submit_job(const Job& job);
  [[nodiscard]] Result<std::vector<TwinForkResult>> what_if(
      const std::vector<TwinCandidateSpec>& candidates);
  /// Returns the deterministic diff-report JSON.
  [[nodiscard]] Result<std::string> trace_explain(const std::string& jsonl_a,
                                                  const std::string& jsonl_b);
  [[nodiscard]] Result<campaign::CellResult> run_cell(
      const campaign::CellRequest& cell);
  [[nodiscard]] Result<ReloadAck> reload(const DatasetSpec& spec);
};

}  // namespace amjs::svc
