#include "workload/swf.hpp"

#include <algorithm>
#include <cmath>
#include "util/fmt.hpp"
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <string>

#include "util/strings.hpp"

namespace amjs {
namespace {

constexpr std::size_t kSwfFieldCount = 18;

/// `v` truncated toward zero, or nullopt when it is NaN or outside int64's
/// range (casting such a double is undefined behaviour).
std::optional<std::int64_t> truncate_to_i64(double v) {
  if (!(v >= -0x1p63 && v < 0x1p63)) return std::nullopt;
  return static_cast<std::int64_t>(v);
}

struct RawFields {
  std::int64_t job_number;
  std::int64_t submit;
  std::int64_t runtime;
  std::int64_t allocated_procs;
  std::int64_t requested_procs;
  std::int64_t requested_time;
  std::int64_t status;
  std::int64_t user;
  std::int64_t queue;
};

Result<RawFields> parse_line(std::string_view line, int lineno) {
  const auto fields = split_ws(line);
  if (fields.size() < kSwfFieldCount) {
    return Error{amjs::format("expected {} fields, found {}", kSwfFieldCount,
                             fields.size()),
                 amjs::format("line {}", lineno)};
  }
  auto field = [&](std::size_t idx) -> Result<std::int64_t> {
    if (const auto v = parse_i64(fields[idx])) return *v;
    return Error{amjs::format("field {} is not an integer: '{}'", idx + 1,
                             std::string(fields[idx])),
                 amjs::format("line {}", lineno)};
  };
  RawFields raw{};
  // SWF runtime (field 4) may carry fractional seconds in some archives;
  // accept a float there and truncate.
  const auto runtime_f = parse_f64(fields[3]);
  if (!runtime_f) {
    return Error{amjs::format("field 4 is not numeric: '{}'", std::string(fields[3])),
                 amjs::format("line {}", lineno)};
  }
  const auto runtime = truncate_to_i64(*runtime_f);
  if (!runtime) {
    return Error{amjs::format("field 4 is not a finite 64-bit second count: '{}'",
                              std::string(fields[3])),
                 amjs::format("line {}", lineno)};
  }
  raw.runtime = *runtime;

  struct FieldMap {
    std::size_t index;
    std::int64_t RawFields::* member;
  };
  constexpr FieldMap kMap[] = {
      {0, &RawFields::job_number},    {1, &RawFields::submit},
      {4, &RawFields::allocated_procs}, {7, &RawFields::requested_procs},
      {8, &RawFields::requested_time}, {10, &RawFields::status},
      {11, &RawFields::user},         {14, &RawFields::queue},
  };
  for (const auto& m : kMap) {
    auto v = field(m.index);
    if (!v) return v.error();
    raw.*(m.member) = v.value();
  }
  return raw;
}

NodeCount procs_to_nodes(std::int64_t procs, int procs_per_node) {
  if (procs_per_node <= 1) return procs;
  return (procs + procs_per_node - 1) / procs_per_node;
}

}  // namespace

Result<JobTrace> read_swf(std::istream& in, const SwfReadOptions& options) {
  std::vector<Job> jobs;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const auto trimmed = trim(line);
    if (trimmed.empty() || trimmed.front() == ';') continue;

    auto raw = parse_line(trimmed, lineno);
    if (!raw) return raw.error();
    const auto& r = raw.value();

    if (r.submit < 0) {
      return Error{"negative submit time", amjs::format("line {}", lineno)};
    }
    const std::int64_t runtime = std::max<std::int64_t>(r.runtime, 0);
    if (options.drop_cancelled && r.status == 5 &&
        !(options.keep_partial_cancelled && runtime > 0)) {
      continue;
    }

    std::int64_t procs = r.requested_procs > 0 ? r.requested_procs : r.allocated_procs;
    if (procs <= 0) continue;  // no size information: unschedulable record

    std::int64_t walltime = r.requested_time;
    if (walltime <= 0) {
      const auto fallback = truncate_to_i64(
          std::ceil(options.fallback_walltime_factor * static_cast<double>(runtime)));
      if (!fallback) {
        return Error{amjs::format("field 4 runtime {} gives a fallback walltime "
                                  "outside 64-bit seconds",
                                  runtime),
                     amjs::format("line {}", lineno)};
      }
      walltime = *fallback;
    }
    // A runnable record needs a positive limit even if it ran for 0s.
    walltime = std::max<std::int64_t>({walltime, runtime, 1});

    Job job;
    job.submit = r.submit;
    job.runtime = runtime;
    job.walltime = walltime;
    job.nodes = procs_to_nodes(procs, options.procs_per_node);
    job.user = r.user >= 0 ? amjs::format("u{}", r.user) : "";
    job.queue = static_cast<int>(r.queue >= 0 ? r.queue : 0);
    jobs.push_back(std::move(job));
  }

  if (options.rebase_to_zero && !jobs.empty()) {
    SimTime base = jobs.front().submit;
    for (const auto& j : jobs) base = std::min(base, j.submit);
    for (auto& j : jobs) j.submit -= base;
  }
  return JobTrace::from_jobs(std::move(jobs));
}

Result<JobTrace> read_swf_file(const std::string& path, const SwfReadOptions& options) {
  std::ifstream in(path);
  if (!in) return Error{"cannot open file", path};
  auto result = read_swf(in, options);
  if (!result) return Error{result.error().message, path + ": " + result.error().context};
  return result;
}

void write_swf(std::ostream& out, const JobTrace& trace, const SwfWriteOptions& options) {
  // Processor fields carry procs, not nodes: undo the read-side division
  // so a read-with-divisor / write-with-multiplier pair round-trips.
  const std::int64_t per_node = std::max(options.procs_per_node, 1);
  out << "; SWF v2 written by amjs\n";
  if (!options.header_note.empty()) out << "; " << options.header_note << "\n";
  out << "; MaxJobs: " << trace.size() << "\n";
  for (const auto& j : trace.jobs()) {
    // Field order per the SWF spec; unknowns are -1. User ids are parsed
    // back out of the "u<N>" convention when present.
    std::int64_t user_id = -1;
    if (j.user.size() > 1 && j.user.front() == 'u') {
      if (const auto v = parse_i64(std::string_view(j.user).substr(1))) user_id = *v;
    }
    const std::int64_t procs = j.nodes * per_node;
    out << amjs::format("{} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}\n",
                       j.id + 1,    // 1 job number (1-based in archives)
                       j.submit,    // 2 submit
                       -1,          // 3 wait (outcome, not an input)
                       j.runtime,   // 4 run time
                       procs,       // 5 allocated procs
                       -1,          // 6 avg cpu
                       -1,          // 7 used memory
                       procs,       // 8 requested procs
                       j.walltime,  // 9 requested time
                       -1,          // 10 requested memory
                       1,           // 11 status: completed
                       user_id,     // 12 user
                       -1,          // 13 group
                       -1,          // 14 executable
                       j.queue,     // 15 queue
                       -1,          // 16 partition
                       -1,          // 17 preceding job
                       -1);         // 18 think time
  }
}

Status write_swf_file(const std::string& path, const JobTrace& trace,
                      const SwfWriteOptions& options) {
  std::ofstream out(path);
  if (!out) return Error{"cannot open file for writing", path};
  write_swf(out, trace, options);
  return Status::success();
}

void write_swf(std::ostream& out, const JobTrace& trace, const std::string& header_note) {
  write_swf(out, trace, SwfWriteOptions{1, header_note});
}

Status write_swf_file(const std::string& path, const JobTrace& trace,
                      const std::string& header_note) {
  return write_swf_file(path, trace, SwfWriteOptions{1, header_note});
}

}  // namespace amjs
