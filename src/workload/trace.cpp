#include "workload/trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/fmt.hpp"

namespace amjs {

double TraceStats::offered_load(NodeCount machine_nodes) const {
  const auto horizon = static_cast<double>(last_submit - first_submit);
  if (horizon <= 0.0 || machine_nodes <= 0) return 0.0;
  return total_node_seconds / (static_cast<double>(machine_nodes) * horizon);
}

JobTrace::JobTrace(JobTrace&& other) noexcept
    : storage_(std::move(other.storage_)), jobs_(std::exchange(other.jobs_, {})) {}

JobTrace& JobTrace::operator=(JobTrace&& other) noexcept {
  storage_ = std::move(other.storage_);
  jobs_ = std::exchange(other.jobs_, {});
  return *this;
}

void JobTrace::throw_no_job(JobId id) const {
  throw std::out_of_range(
      amjs::format("JobTrace::job: id {} outside a trace of {} jobs", id, jobs_.size()));
}

Result<JobTrace> JobTrace::from_jobs(std::vector<Job> jobs) {
  std::stable_sort(jobs.begin(), jobs.end(), [](const Job& a, const Job& b) {
    return a.submit < b.submit;
  });
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].id = static_cast<JobId>(i);
    if (!jobs[i].valid()) {
      return Error{amjs::format(
          "job #{} invalid (submit={}, runtime={}, walltime={}, nodes={})", i,
          jobs[i].submit, jobs[i].runtime, jobs[i].walltime, jobs[i].nodes)};
    }
  }
  JobTrace trace;
  trace.storage_ = std::make_shared<const std::vector<Job>>(std::move(jobs));
  trace.jobs_ = *trace.storage_;
  return trace;
}

TraceStats JobTrace::stats() const {
  TraceStats s;
  s.job_count = jobs_.size();
  if (jobs_.empty()) return s;
  s.first_submit = jobs_.front().submit;
  s.last_submit = jobs_.back().submit;
  s.min_runtime = jobs_.front().runtime;
  s.max_runtime = jobs_.front().runtime;
  s.min_nodes = jobs_.front().nodes;
  s.max_nodes = jobs_.front().nodes;
  double runtime_sum = 0.0;
  double nodes_sum = 0.0;
  for (const auto& j : jobs_) {
    s.min_runtime = std::min(s.min_runtime, j.runtime);
    s.max_runtime = std::max(s.max_runtime, j.runtime);
    s.min_nodes = std::min(s.min_nodes, j.nodes);
    s.max_nodes = std::max(s.max_nodes, j.nodes);
    runtime_sum += static_cast<double>(j.runtime);
    nodes_sum += static_cast<double>(j.nodes);
    s.total_node_seconds += j.node_seconds();
  }
  s.mean_runtime = runtime_sum / static_cast<double>(jobs_.size());
  s.mean_nodes = nodes_sum / static_cast<double>(jobs_.size());
  return s;
}

JobTrace JobTrace::truncated_at(SimTime cutoff) const {
  // jobs_ is submit-ordered, so the jobs with submit <= cutoff (ties
  // included) are a prefix, and their dense ids carry over.
  const auto end = std::upper_bound(
      jobs_.begin(), jobs_.end(), cutoff,
      [](SimTime t, const Job& j) { return t < j.submit; });
  return prefix(static_cast<std::size_t>(end - jobs_.begin()));
}

JobTrace JobTrace::prefix(std::size_t n) const {
  JobTrace out = *this;
  out.jobs_ = jobs_.first(std::min(n, jobs_.size()));
  return out;
}

}  // namespace amjs
