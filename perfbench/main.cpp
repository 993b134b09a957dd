// perfbench_harness: the compiled half of the amjs benchmark.
//
//   perfbench_harness batch --workload fairstart|window7 --seed N
//                           --seconds S --trace 0|1 [--spans PATH]
//   perfbench_harness svc --endpoint tcp:127.0.0.1:PORT --seed N
//                         --seconds S --trace 0|1 [--phases ref|all] ...
//
// Each mode prints one JSON line of raw measurements (samples, digests,
// check tallies, registry snapshots); perfbench/run.py derives the
// reported metrics from it.
#include <sys/resource.h>

#include <cmath>
#include <fstream>

#include "harness.hpp"
#include "util/flags.hpp"

namespace perfbench {

std::uint64_t SpanLog::begin(std::string name, std::uint64_t parent) {
  if (!enabled_) return 0;
  Span span;
  span.id = next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ms = ms_between(epoch_, Clock::now());
  span.end_ms = span.start_ms;
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanLog::end(std::uint64_t id) {
  if (!enabled_) return;
  const double now = ms_between(epoch_, Clock::now());
  for (auto it = spans_.rbegin(); it != spans_.rend(); ++it) {
    if (it->id == id) {
      it->end_ms = now;
      return;
    }
  }
}

std::uint64_t SpanLog::add(std::string name, std::uint64_t parent,
                           Clock::time_point start, Clock::time_point end,
                           std::uint64_t id) {
  if (!enabled_) return 0;
  Span span;
  span.id = id != 0 ? id : next_id_++;
  span.parent = parent;
  span.name = std::move(name);
  span.start_ms = ms_between(epoch_, start);
  span.end_ms = ms_between(epoch_, end);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

bool SpanLog::append_jsonl(const std::string& path) const {
  if (path.empty() || !enabled_) return true;
  std::ofstream out(path, std::ios::app);
  char line[256];
  for (const Span& s : spans_) {
    std::snprintf(line, sizeof line,
                  "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                  "\"start_ms\":%.4f,\"end_ms\":%.4f}\n",
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent), s.name.c_str(),
                  s.start_ms, s.end_ms);
    out << line;
  }
  return static_cast<bool>(out);
}

void Checks::expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const auto& m : other.messages_) {
    if (messages_.size() < 8) messages_.push_back(m);
  }
}

std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void JsonWriter::key_prefix(const char* key) {
  if (need_comma_) out_ += ',';
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

JsonWriter& JsonWriter::open_object(const char* key) {
  key_prefix(key);
  out_ += '{';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::open_array(const char* key) {
  key_prefix(key);
  out_ += '[';
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::close_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

namespace {

void append_number(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  out += buf;
}

void append_string(std::string& out, const std::string& value) {
  out += '"';
  for (const char c : value) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
}

}  // namespace

JsonWriter& JsonWriter::number(const char* key, double value) {
  key_prefix(key);
  append_number(out_, value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::string(const char* key, const std::string& value) {
  key_prefix(key);
  append_string(out_, value);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::numbers(const char* key,
                                const std::vector<double>& values) {
  open_array(key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out_ += ',';
    append_number(out_, values[i]);
  }
  return close_array();
}

JsonWriter& JsonWriter::checks(const char* key, const Checks& checks) {
  open_object(key);
  number("attempted", static_cast<double>(checks.attempted()));
  number("failed", static_cast<double>(checks.failed()));
  open_array("messages");
  for (const auto& m : checks.messages()) string(nullptr, m);
  close_array();
  return close_object();
}

JsonWriter& JsonWriter::registry(const char* key,
                                 const amjs::obs::StatsSnapshot& stats) {
  open_object(key);
  open_object("timers");
  for (const auto& [name, t] : stats.timers) {
    numbers(name.c_str(),
            {static_cast<double>(t.count), t.total_ms, t.p50_ms, t.p95_ms});
  }
  close_object();
  open_object("counters");
  for (const auto& [name, value] : stats.counters) {
    number(name.c_str(), static_cast<double>(value));
  }
  close_object();
  return close_object();
}

}  // namespace perfbench

int main(int argc, const char** argv) {
  using perfbench::RunOptions;
  const std::string mode = argc > 1 ? argv[1] : "";
  amjs::Flags flags;
  flags.define("workload", "", "batch workload: fairstart or window7");
  flags.define("seed", "2012", "workload seed");
  flags.define("seconds", "10", "measurement budget in seconds");
  flags.define("trace", "0", "1 = traced run (spans + registry)");
  flags.define("spans", "", "append spans here as JSON lines");
  flags.define("endpoint", "", "svc: sched_server endpoint");
  flags.define("phases", "all", "svc: ref (reference rate only) or all");
  flags.define("server-pid", "0", "svc: sched_server process id");
  flags.define("dataset-seed", "2012", "svc: server dataset seed");
  flags.define("dataset-days", "2", "svc: server dataset horizon, days");
  flags.define("dataset-rate", "6.0", "svc: server dataset jobs/hour");
  flags.define("dataset-nodes", "512", "svc: server flat machine size");
  flags.define("dataset-snapshot-check", "8", "svc: server snapshot check");
  if (mode != "batch" && mode != "svc") {
    std::fprintf(stderr, "usage: perfbench_harness batch|svc [flags]\n%s",
                 flags.usage("perfbench_harness").c_str());
    return 2;
  }
  if (const auto parsed = flags.parse(argc - 1, argv + 1); !parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.error().to_string().c_str(),
                 flags.usage("perfbench_harness").c_str());
    return 2;
  }
  RunOptions run;
  run.workload = flags.get("workload");
  run.seed = static_cast<std::uint64_t>(flags.get_i64("seed"));
  run.seconds = flags.get_f64("seconds");
  run.trace = flags.get_i64("trace") != 0;
  run.spans_path = flags.get("spans");
  if (mode == "batch") return perfbench::run_batch(run);

  perfbench::SvcOptions svc;
  svc.run = run;
  svc.endpoint = flags.get("endpoint");
  svc.phases = flags.get("phases");
  svc.server_pid = static_cast<long>(flags.get_i64("server-pid"));
  svc.dataset_seed = static_cast<std::uint64_t>(flags.get_i64("dataset-seed"));
  svc.dataset_days = flags.get_i64("dataset-days");
  svc.dataset_rate = flags.get_f64("dataset-rate");
  svc.dataset_nodes = flags.get_i64("dataset-nodes");
  svc.snapshot_check = flags.get_i64("dataset-snapshot-check");
  return perfbench::run_svc(svc);
}
