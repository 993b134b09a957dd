#include "snapshot_io/snapshot_codec.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

#include "snapshot_io/binio.hpp"
#include "snapshot_io/state_codec.hpp"
#include "util/fmt.hpp"

namespace amjs::snapshot_io {
namespace {

#ifndef _WIN32
// Flush `path` (a file or a directory) to stable storage. Without this
// the rename below can hit disk before the data it points at, leaving a
// truncated checkpoint after a crash despite the atomic-overwrite scheme.
Status fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Error{"open for fsync failed", path};
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) return Error{"fsync failed", path};
  return Status::success();
}
#endif

void write_events(ByteWriter& w, const EventQueue& events) {
  w.u64(events.next_seq());
  const std::vector<Event> sorted = events.sorted();
  w.u64(sorted.size());
  for (const Event& e : sorted) {
    w.i64(e.time);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.u64(e.seq);
    w.i64(e.job);
  }
}

Result<EventQueue> read_events(ByteReader& r) {
  auto next_seq = r.u64();
  if (!next_seq) return next_seq.error();
  auto n = r.count(r.remaining());
  if (!n) return n.error();
  std::vector<Event> events;
  events.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    Event e;
    auto time = r.i64();
    if (!time) return time.error();
    e.time = time.value();
    auto type = r.u8();
    if (!type) return type.error();
    if (type.value() > static_cast<std::uint8_t>(EventType::kMetricCheck)) {
      return Error{amjs::format("bad event type {}", type.value())};
    }
    e.type = static_cast<EventType>(type.value());
    auto seq = r.u64();
    if (!seq) return seq.error();
    if (seq.value() >= next_seq.value()) {
      return Error{amjs::format("event seq {} >= next_seq {}", seq.value(),
                                next_seq.value())};
    }
    e.seq = seq.value();
    auto job = r.i64();
    if (!job) return job.error();
    e.job = static_cast<JobId>(job.value());
    events.push_back(e);
  }
  return EventQueue::restore(events, next_seq.value());
}

}  // namespace

void write_sim_result(ByteWriter& w, const SimResult& result) {
  w.u64(result.schedule.size());
  for (const ScheduleEntry& e : result.schedule) {
    w.i64(e.job);
    w.i64(e.submit);
    w.i64(e.start);
    w.i64(e.end);
    w.i64(e.requested);
    w.i64(e.occupied);
    w.boolean(e.skipped);
    w.i64(e.attempts);
    w.boolean(e.abandoned);
  }
  w.u64(result.events.size());
  for (const SchedEventRecord& e : result.events) {
    w.i64(e.time);
    w.i64(e.idle);
    w.i64(e.min_waiting_occupancy);
    w.boolean(e.any_waiting);
  }
  write_series(w, result.queue_depth);
  write_step_series(w, result.busy_nodes);
  w.i64(result.machine_nodes);
  w.i64(result.end_time);
  w.u64(result.skipped_jobs);
  w.u64(result.failure_stats.failures);
  w.u64(result.failure_stats.restarts);
  w.u64(result.failure_stats.abandoned);
  w.f64(result.failure_stats.wasted_node_seconds);
}

Result<SimResult> read_sim_result(ByteReader& r) {
  SimResult result;
  auto n_sched = r.count(r.remaining());
  if (!n_sched) return n_sched.error();
  result.schedule.reserve(n_sched.value());
  for (std::uint64_t i = 0; i < n_sched.value(); ++i) {
    ScheduleEntry e;
    auto job = r.i64();
    if (!job) return job.error();
    e.job = static_cast<JobId>(job.value());
    auto submit = r.i64();
    if (!submit) return submit.error();
    e.submit = submit.value();
    auto start = r.i64();
    if (!start) return start.error();
    e.start = start.value();
    auto end = r.i64();
    if (!end) return end.error();
    e.end = end.value();
    auto requested = r.i64();
    if (!requested) return requested.error();
    e.requested = requested.value();
    auto occupied = r.i64();
    if (!occupied) return occupied.error();
    e.occupied = occupied.value();
    auto skipped = r.boolean();
    if (!skipped) return skipped.error();
    e.skipped = skipped.value();
    auto attempts = r.i64();
    if (!attempts) return attempts.error();
    e.attempts = static_cast<int>(attempts.value());
    auto abandoned = r.boolean();
    if (!abandoned) return abandoned.error();
    e.abandoned = abandoned.value();
    result.schedule.push_back(e);
  }
  auto n_events = r.count(r.remaining());
  if (!n_events) return n_events.error();
  result.events.reserve(n_events.value());
  for (std::uint64_t i = 0; i < n_events.value(); ++i) {
    SchedEventRecord e;
    auto time = r.i64();
    if (!time) return time.error();
    e.time = time.value();
    auto idle = r.i64();
    if (!idle) return idle.error();
    e.idle = idle.value();
    auto min_occ = r.i64();
    if (!min_occ) return min_occ.error();
    e.min_waiting_occupancy = min_occ.value();
    auto waiting = r.boolean();
    if (!waiting) return waiting.error();
    e.any_waiting = waiting.value();
    result.events.push_back(e);
  }
  auto queue_depth = read_series(r);
  if (!queue_depth) return queue_depth.error();
  result.queue_depth = queue_depth.value();
  auto busy = read_step_series(r);
  if (!busy) return busy.error();
  result.busy_nodes = busy.value();
  auto machine_nodes = r.i64();
  if (!machine_nodes) return machine_nodes.error();
  result.machine_nodes = machine_nodes.value();
  auto end_time = r.i64();
  if (!end_time) return end_time.error();
  result.end_time = end_time.value();
  auto skipped = r.u64();
  if (!skipped) return skipped.error();
  result.skipped_jobs = skipped.value();
  auto failures = r.u64();
  if (!failures) return failures.error();
  result.failure_stats.failures = failures.value();
  auto restarts = r.u64();
  if (!restarts) return restarts.error();
  result.failure_stats.restarts = restarts.value();
  auto abandoned = r.u64();
  if (!abandoned) return abandoned.error();
  result.failure_stats.abandoned = abandoned.value();
  auto wasted = r.f64();
  if (!wasted) return wasted.error();
  result.failure_stats.wasted_node_seconds = wasted.value();
  return result;
}

namespace {

Result<std::string> encode_payload(const SimSnapshot& snapshot) {
  ByteWriter w;
  w.i64(snapshot.now);
  write_events(w, snapshot.events);
  w.u64(snapshot.states.size());
  for (const SimJobState s : snapshot.states) {
    w.u8(static_cast<std::uint8_t>(s));
  }
  w.u64(snapshot.queue.size());
  for (const JobId id : snapshot.queue) w.i64(id);
  w.u64(snapshot.attempts.size());
  for (const int a : snapshot.attempts) w.i64(a);
  w.u64(snapshot.failure_pending.size());
  for (const bool b : snapshot.failure_pending) w.boolean(b);
  w.u64(snapshot.attempt_start.size());
  for (const SimTime t : snapshot.attempt_start) w.i64(t);
  w.u64(snapshot.unfinished);
  write_sim_result(w, snapshot.result);
  w.boolean(snapshot.state_changed);
  w.f64(snapshot.queue_depth_minutes);
  w.u64(snapshot.check_index);
  if (Status st = write_machine_state(w, snapshot.machine.get()); !st.ok()) {
    return st.error();
  }
  if (Status st = write_scheduler_state(w, snapshot.scheduler.get()); !st.ok()) {
    return st.error();
  }
  return w.take();
}

Result<SimSnapshot> decode_payload(std::string_view payload) {
  ByteReader r(payload);
  SimSnapshot snapshot;
  auto now = r.time();
  if (!now) return now.error();
  snapshot.now = now.value();
  auto events = read_events(r);
  if (!events) return events.error();
  snapshot.events = std::move(events).value();
  auto n_states = r.count(r.remaining());
  if (!n_states) return n_states.error();
  snapshot.states.reserve(n_states.value());
  for (std::uint64_t i = 0; i < n_states.value(); ++i) {
    auto s = r.u8();
    if (!s) return s.error();
    if (s.value() > static_cast<std::uint8_t>(SimJobState::kSkipped)) {
      return Error{amjs::format("bad job state {}", s.value())};
    }
    snapshot.states.push_back(static_cast<SimJobState>(s.value()));
  }
  auto n_queue = r.count(r.remaining());
  if (!n_queue) return n_queue.error();
  snapshot.queue.reserve(n_queue.value());
  for (std::uint64_t i = 0; i < n_queue.value(); ++i) {
    auto id = r.i64();
    if (!id) return id.error();
    snapshot.queue.push_back(static_cast<JobId>(id.value()));
  }
  auto n_attempts = r.count(r.remaining());
  if (!n_attempts) return n_attempts.error();
  snapshot.attempts.reserve(n_attempts.value());
  for (std::uint64_t i = 0; i < n_attempts.value(); ++i) {
    auto a = r.i64();
    if (!a) return a.error();
    snapshot.attempts.push_back(static_cast<int>(a.value()));
  }
  auto n_pending = r.count(r.remaining());
  if (!n_pending) return n_pending.error();
  snapshot.failure_pending.reserve(n_pending.value());
  for (std::uint64_t i = 0; i < n_pending.value(); ++i) {
    auto b = r.boolean();
    if (!b) return b.error();
    snapshot.failure_pending.push_back(b.value());
  }
  auto n_starts = r.count(r.remaining());
  if (!n_starts) return n_starts.error();
  snapshot.attempt_start.reserve(n_starts.value());
  for (std::uint64_t i = 0; i < n_starts.value(); ++i) {
    auto t = r.i64();
    if (!t) return t.error();
    snapshot.attempt_start.push_back(t.value());
  }
  auto unfinished = r.u64();
  if (!unfinished) return unfinished.error();
  snapshot.unfinished = unfinished.value();
  auto result = read_sim_result(r);
  if (!result) return result.error();
  snapshot.result = std::move(result).value();
  auto changed = r.boolean();
  if (!changed) return changed.error();
  snapshot.state_changed = changed.value();
  auto qd = r.f64();
  if (!qd) return qd.error();
  snapshot.queue_depth_minutes = qd.value();
  auto check_index = r.u64();
  if (!check_index) return check_index.error();
  snapshot.check_index = check_index.value();
  auto machine = read_machine_state(r);
  if (!machine) return machine.error();
  if (machine.value() == nullptr) {
    return Error{"snapshot has no machine state"};
  }
  snapshot.machine = std::shared_ptr<const MachineState>(std::move(machine).value());
  auto scheduler = read_scheduler_state(r);
  if (!scheduler) return scheduler.error();
  snapshot.scheduler =
      std::shared_ptr<const SchedulerState>(std::move(scheduler).value());
  if (!r.exhausted()) {
    return Error{amjs::format("{} trailing bytes after snapshot payload",
                              r.remaining())};
  }
  return snapshot;
}

}  // namespace

Result<std::string> write_snapshot(const SimSnapshot& snapshot) {
  if (snapshot.point != SnapshotPoint::kMetricCheck) {
    // The format has no snapshot-point field: decoded, an end-of-instant
    // snapshot would resume as a metric-check one and replay a tail that
    // already ran.
    return Error{"cannot serialize an end-of-instant snapshot"};
  }
  auto payload = encode_payload(snapshot);
  if (!payload) return payload.error();
  ByteWriter w;
  w.bytes(kSnapshotMagic);
  w.u32(kSnapshotFormatVersion);
  w.u64(payload.value().size());
  w.bytes(payload.value());
  w.u32(crc32(payload.value()));
  return w.take();
}

Result<SimSnapshot> read_snapshot(std::string_view bytes) {
  ByteReader r(bytes);
  if (bytes.size() < kSnapshotMagic.size() ||
      bytes.substr(0, kSnapshotMagic.size()) != kSnapshotMagic) {
    return Error{"not a snapshot file (bad magic)"};
  }
  ByteReader header(bytes.substr(kSnapshotMagic.size()));
  auto version = header.u32();
  if (!version) return version.error();
  if (version.value() != kSnapshotFormatVersion) {
    return Error{amjs::format("unsupported snapshot format version {} (expected {})",
                              version.value(), kSnapshotFormatVersion)};
  }
  auto length = header.count(header.remaining());
  if (!length) {
    return Error{amjs::format("truncated snapshot: {}", length.error().message)};
  }
  if (header.remaining() < length.value() + 4) {
    return Error{amjs::format(
        "truncated snapshot: payload of {} bytes + CRC, only {} bytes left",
        length.value(), header.remaining())};
  }
  const std::string_view payload =
      bytes.substr(kSnapshotMagic.size() + 12, length.value());
  ByteReader crc_reader(
      bytes.substr(kSnapshotMagic.size() + 12 + length.value()));
  auto stored_crc = crc_reader.u32();
  if (!stored_crc) return stored_crc.error();
  if (!crc_reader.exhausted()) {
    return Error{amjs::format("{} trailing bytes after snapshot CRC",
                              crc_reader.remaining())};
  }
  const std::uint32_t actual_crc = crc32(payload);
  if (stored_crc.value() != actual_crc) {
    return Error{amjs::format("snapshot CRC mismatch: stored {:x}, computed {:x}",
                              stored_crc.value(), actual_crc)};
  }
  return decode_payload(payload);
}

Status write_snapshot_file(const SimSnapshot& snapshot, const std::string& path) {
  auto bytes = write_snapshot(snapshot);
  if (!bytes) return bytes.error();
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Error{"cannot open for writing", tmp};
    out.write(bytes.value().data(),
              static_cast<std::streamsize>(bytes.value().size()));
    out.flush();
    if (!out) return Error{"write failed", tmp};
  }
#ifndef _WIN32
  if (Status st = fsync_path(tmp); !st.ok()) {
    std::remove(tmp.c_str());
    return st;
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error{"rename failed", path};
  }
#ifndef _WIN32
  // Persist the rename itself: the directory entry is durable only once
  // the containing directory has been synced.
  const std::size_t slash = path.find_last_of('/');
  const std::string dir =
      slash == std::string::npos ? "." : (slash == 0 ? "/" : path.substr(0, slash));
  if (Status st = fsync_path(dir); !st.ok()) return st;
#endif
  return Status::success();
}

Result<SimSnapshot> read_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Error{"cannot open snapshot file", path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Error{"read failed", path};
  const std::string data = buffer.str();
  auto snapshot = read_snapshot(data);
  if (!snapshot) {
    return Error{snapshot.error().message, path};
  }
  return snapshot;
}

}  // namespace amjs::snapshot_io
