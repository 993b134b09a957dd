// JobTrace: an ordered batch of jobs plus summary statistics.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/result.hpp"
#include "workload/job.hpp"

namespace amjs {

/// Summary statistics of a trace, for reports and sanity checks.
struct TraceStats {
  std::size_t job_count = 0;
  SimTime first_submit = 0;
  SimTime last_submit = 0;
  Duration min_runtime = 0;
  Duration max_runtime = 0;
  double mean_runtime = 0.0;
  NodeCount min_nodes = 0;
  NodeCount max_nodes = 0;
  double mean_nodes = 0.0;
  double total_node_seconds = 0.0;

  /// Offered load against a machine of `machine_nodes` over the submit
  /// horizon: total node-seconds / (machine_nodes * horizon). >1 means the
  /// workload saturates the machine even with perfect packing.
  [[nodiscard]] double offered_load(NodeCount machine_nodes) const;
};

/// An immutable, submit-ordered collection of jobs with dense 0-based ids.
///
/// The jobs live in shared immutable storage: copies, prefix() and
/// truncated_at() are O(1) views that keep that storage alive, so a view
/// outlives the trace it came from. Views are safe to copy and read from
/// any number of threads.
class JobTrace {
 public:
  JobTrace() = default;
  JobTrace(const JobTrace&) = default;
  JobTrace& operator=(const JobTrace&) = default;
  /// A moved-from trace is empty.
  JobTrace(JobTrace&& other) noexcept;
  JobTrace& operator=(JobTrace&& other) noexcept;
  ~JobTrace() = default;

  /// Takes ownership; sorts by (submit, id) and re-assigns dense ids in the
  /// sorted order so JobId indexes directly into jobs().
  /// Fails if any job is invalid (non-positive nodes/walltime, etc.).
  static Result<JobTrace> from_jobs(std::vector<Job> jobs);

  [[nodiscard]] std::span<const Job> jobs() const { return jobs_; }
  [[nodiscard]] std::size_t size() const { return jobs_.size(); }
  [[nodiscard]] bool empty() const { return jobs_.empty(); }
  /// Throws std::out_of_range for an id outside this trace (or view).
  [[nodiscard]] const Job& job(JobId id) const {
    const auto index = static_cast<std::size_t>(id);
    if (index >= jobs_.size()) throw_no_job(id);
    return jobs_[index];
  }

  [[nodiscard]] TraceStats stats() const;

  /// View of the jobs with submit <= cutoff — the "assume no later
  /// arrivals" workload used by the fair-start oracle. O(log n).
  [[nodiscard]] JobTrace truncated_at(SimTime cutoff) const;

  /// View of the first n jobs (prefix in submit order). O(1).
  [[nodiscard]] JobTrace prefix(std::size_t n) const;

 private:
  [[noreturn]] void throw_no_job(JobId id) const;

  std::shared_ptr<const std::vector<Job>> storage_;
  std::span<const Job> jobs_;  // a prefix of *storage_
};

}  // namespace amjs
