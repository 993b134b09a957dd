// Shared pieces of the benchmark harness: wall clock, in-memory spans,
// output checks, and the JSON the harness hands back to run.py.
//
// The harness measures the amjs layers from outside: it times calls into
// their public functions and reads the obs registry timers that already
// exist. Spans are recorded only in a traced run (--trace 1); in a timed
// run every SpanLog call is a branch on a null flag.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "obs/registry.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// One timed layer call: name, interval (ms since the log's epoch), and
/// the span that caused it (0 = root).
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Spans kept in memory and written out once, at the end of the run.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  /// Open a span; returns its id (0 when disabled).
  std::uint64_t begin(std::string name, std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Record an already-measured interval; returns its id (0 when
  /// disabled). `id` overrides the generated one (svc requests use their
  /// request id).
  std::uint64_t add(std::string name, std::uint64_t parent,
                    Clock::time_point start, Clock::time_point end,
                    std::uint64_t id = 0);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Append the spans to `path` as JSON lines; false on a write error.
  bool append_jsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Output checks: every expectation counts as attempted; the first few
/// failures are kept verbatim for the report.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const {
    return messages_;
  }
  void merge(const Checks& other);

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// 64-bit FNV-1a, rendered as 16 hex digits.
[[nodiscard]] std::string fnv1a_hex(const std::string& bytes);

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

/// Minimal JSON builder: the harness's single output line.
class JsonWriter {
 public:
  JsonWriter& open_object(const char* key = nullptr);
  JsonWriter& close_object();
  JsonWriter& open_array(const char* key = nullptr);
  JsonWriter& close_array();
  JsonWriter& number(const char* key, double value);
  JsonWriter& string(const char* key, const std::string& value);
  JsonWriter& numbers(const char* key, const std::vector<double>& values);
  JsonWriter& checks(const char* key, const Checks& checks);
  /// Registry timers as {name: [count, total_ms, p50_ms, p95_ms]} and
  /// counters as {name: value}.
  JsonWriter& registry(const char* key, const amjs::obs::StatsSnapshot& stats);
  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  void key_prefix(const char* key);
  std::string out_;
  bool need_comma_ = false;
};

// Workload entry points (batch.cpp, svc_load.cpp). Each prints one JSON
// line on stdout and returns the exit code.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 2012;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

int run_batch(const RunOptions& options);

struct SvcOptions {
  RunOptions run;
  std::string endpoint;
  /// "ref" (the reference rate only) or "all".
  std::string phases = "all";
  /// The server's process id: its CPU time is read around each batch.
  long server_pid = 0;
  /// Dataset recipe the server booted with (must match its flags); the
  /// reload alternate differs only in seed (dataset_seed + 1).
  std::uint64_t dataset_seed = 2012;
  std::int64_t dataset_days = 2;
  double dataset_rate = 6.0;
  std::int64_t dataset_nodes = 512;
  std::int64_t snapshot_check = 8;
};

int run_svc(const SvcOptions& options);

}  // namespace perfbench
