#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "platform/machine_spec.hpp"
#include "sim/snapshot.hpp"
#include "util/fmt.hpp"
#include "util/log.hpp"

namespace amjs {

SimTime SchedContext::now() const { return sim_.now_; }

const JobTrace& SchedContext::trace() const { return *sim_.trace_; }

SimSnapshot SchedContext::capture() const { return sim_.capture(); }

Machine& SchedContext::machine() { return sim_.machine_; }
const Machine& SchedContext::machine() const { return sim_.machine_; }

std::unique_ptr<Plan> SchedContext::plan() const {
  return sim_.plan_provider_->plan(sim_.now_);
}

const std::vector<JobId>& SchedContext::queue() const { return sim_.queue_; }

const Job& SchedContext::job(JobId id) const { return sim_.trace_->job(id); }

Duration SchedContext::waited(JobId id) const {
  return sim_.now_ - sim_.trace_->job(id).submit;
}

obs::TraceSink* SchedContext::recorder() const { return sim_.config_.trace_sink; }

const StepSeries& SchedContext::busy_series() const {
  return sim_.result_.busy_nodes;
}

bool SchedContext::start_job(JobId id, int placement) {
  auto& sim = sim_;
  assert(sim.states_[static_cast<std::size_t>(id)] == Simulator::JobState::kQueued);
  const Job& j = sim.trace_->job(id);
  if (!sim.machine_.start(j, sim.now_, placement)) return false;

  sim.states_[static_cast<std::size_t>(id)] = Simulator::JobState::kRunning;
  auto& entry = sim.result_.schedule[static_cast<std::size_t>(id)];
  if (entry.start == kNever) entry.start = sim.now_;  // keep the first attempt's start
  entry.occupied = sim.machine_.occupancy(j);
  ++entry.attempts;
  sim.attempt_start_[static_cast<std::size_t>(id)] = sim.now_;

  // Jobs are killed at their walltime limit; traces are normalized so
  // runtime <= walltime, but stay robust to hostile inputs.
  const Duration run_for = std::max<Duration>(std::min(j.runtime, j.walltime), 0);
  // Failure injection: this attempt may die early (sim/failures.hpp).
  const int attempt = sim.attempts_[static_cast<std::size_t>(id)]++;
  const Duration ttf = sim.config_.failures.time_to_failure(j, attempt);
  const bool fails = ttf != kNever && ttf < run_for;
  sim.failure_pending_[static_cast<std::size_t>(id)] = fails;
  sim.events_.push(sim.now_ + (fails ? ttf : run_for), EventType::kJobEnd, id);

  sim.plan_provider_->on_job_start(j, sim.now_);

  const auto it = std::find(sim.queue_.begin(), sim.queue_.end(), id);
  assert(it != sim.queue_.end());
  sim.queue_.erase(it);

  sim.result_.busy_nodes.set(sim.now_,
                             static_cast<double>(sim.machine_.busy_nodes()));
  if (auto* tr = sim.config_.trace_sink) {
    tr->record(obs::TraceCategory::kJob, "start", sim.now_,
               {obs::arg("job", id), obs::arg("nodes", j.nodes),
                obs::arg("wait_s", sim.now_ - j.submit)});
  }
  return true;
}

void truncate_snapshot(SimSnapshot& snapshot, std::size_t kept) {
  assert(snapshot.point == SnapshotPoint::kInstantEnd && kept <= snapshot.states.size());
  const std::size_t later = snapshot.states.size() - kept;
  [[maybe_unused]] const std::size_t dropped =
      snapshot.events.drop(EventType::kJobSubmit);
  assert(dropped == later && "a job submitted by now still has a pending submit");
  snapshot.states.resize(kept);
  snapshot.attempts.resize(kept);
  snapshot.failure_pending.resize(kept);
  snapshot.attempt_start.resize(kept);
  snapshot.result.schedule.resize(kept);
  snapshot.unfinished -= later;
}

Status check_resumable(const JobTrace& trace, const SimSnapshot& snapshot,
                       const MachineSpec& machine) {
  if (!snapshot.valid() || !machine.accepts(*snapshot.machine)) {
    return Error{format("snapshot machine state does not fit {}", machine.label())};
  }
  const std::size_t n = trace.size();
  if (snapshot.states.size() != n || snapshot.attempts.size() != n ||
      snapshot.failure_pending.size() != n ||
      snapshot.attempt_start.size() != n || snapshot.result.schedule.size() != n) {
    return Error{format("snapshot holds {} jobs, the trace {}",
                        snapshot.states.size(), n)};
  }
  const auto in_state = [&](JobId id, SimJobState state) {
    return id >= 0 && static_cast<std::size_t>(id) < n &&
           snapshot.states[static_cast<std::size_t>(id)] == state;
  };
  // The state a job must be in differs per list, so one flag per job
  // catches a repeat within a list and an overlap between lists alike.
  std::vector<bool> named(n, false);
  const auto name_once = [&](JobId id, SimJobState state) {
    if (!in_state(id, state) || named[static_cast<std::size_t>(id)]) return false;
    named[static_cast<std::size_t>(id)] = true;
    return true;
  };
  bool consistent = std::ranges::all_of(
      snapshot.queue, [&](JobId id) { return name_once(id, SimJobState::kQueued); });
  std::size_t ends = 0;
  for (const Event& event : snapshot.events.sorted()) {
    if (event.type == EventType::kMetricCheck) continue;
    const bool end = event.type == EventType::kJobEnd;
    ends += end ? 1 : 0;
    consistent = consistent &&
                 name_once(event.job, end ? SimJobState::kRunning : SimJobState::kPending);
  }
  const auto restored = machine.make();
  restored->restore_state(*snapshot.machine);
  const std::vector<RunningAlloc> allocs = restored->running();
  const auto running = static_cast<std::size_t>(
      std::ranges::count(snapshot.states, SimJobState::kRunning));
  consistent = consistent && ends == running && allocs.size() == running &&
               std::ranges::all_of(allocs, [&](const RunningAlloc& alloc) {
                 return in_state(alloc.job, SimJobState::kRunning);
               });
  if (!consistent) {
    return Error{"snapshot queue, events and allocations disagree with its job states"};
  }
  return {};
}

void Scheduler::on_metric_check(SchedContext& /*ctx*/, double /*queue_depth_minutes*/) {}

void Scheduler::restore_state(const SchedulerState& /*state*/) { reset(); }

Simulator::Simulator(Machine& machine, Scheduler& scheduler, SimConfig config)
    : Simulator(machine, scheduler, std::move(config), make_plan_provider(machine)) {}

Simulator::Simulator(Machine& machine, Scheduler& scheduler, SimConfig config,
                     std::unique_ptr<PlanProvider> plans)
    : machine_(machine),
      scheduler_(scheduler),
      config_(std::move(config)),
      plan_provider_(std::move(plans)) {
  assert(config_.metric_check_interval > 0);
  assert(plan_provider_ != nullptr);
}

double Simulator::queue_depth_minutes() const {
  double total = 0.0;
  for (const JobId id : queue_) {
    total += to_minutes(now_ - trace_->job(id).submit);
  }
  return total;
}

void Simulator::handle_submit(JobId id) {
  const Job& j = trace_->job(id);
  if (!machine_.fits(j)) {
    log::warn("job {} requests {} nodes; machine has {} — skipped", id, j.nodes,
              machine_.total_nodes());
    states_[static_cast<std::size_t>(id)] = JobState::kSkipped;
    result_.schedule[static_cast<std::size_t>(id)].skipped = true;
    ++result_.skipped_jobs;
    --unfinished_;
    if (auto* tr = config_.trace_sink) {
      tr->record(obs::TraceCategory::kJob, "skip", now_,
                 {obs::arg("job", id), obs::arg("nodes", j.nodes)});
    }
    return;
  }
  states_[static_cast<std::size_t>(id)] = JobState::kQueued;
  queue_.push_back(id);
  if (auto* tr = config_.trace_sink) {
    tr->record(obs::TraceCategory::kJob, "submit", now_,
               {obs::arg("job", id), obs::arg("nodes", j.nodes)});
  }
}

void Simulator::handle_end(JobId id) {
  assert(states_[static_cast<std::size_t>(id)] == JobState::kRunning);
  machine_.finish(id, now_);
  plan_provider_->on_job_finish(id, now_);
  result_.busy_nodes.set(now_, static_cast<double>(machine_.busy_nodes()));
  auto& entry = result_.schedule[static_cast<std::size_t>(id)];

  if (failure_pending_[static_cast<std::size_t>(id)]) {
    failure_pending_[static_cast<std::size_t>(id)] = false;
    auto& stats = result_.failure_stats;
    ++stats.failures;
    stats.wasted_node_seconds +=
        static_cast<double>(entry.occupied) *
        static_cast<double>(now_ - attempt_start_[static_cast<std::size_t>(id)]);
    if (attempts_[static_cast<std::size_t>(id)] <=
        config_.failures.max_restarts) {
      // Requeue for a full restart; wait metrics keep the first start.
      ++stats.restarts;
      states_[static_cast<std::size_t>(id)] = JobState::kQueued;
      queue_.push_back(id);
      if (auto* tr = config_.trace_sink) {
        tr->record(obs::TraceCategory::kJob, "fail_retry", now_,
                   {obs::arg("job", id),
                    obs::arg("attempt", attempts_[static_cast<std::size_t>(id)])});
      }
      return;
    }
    ++stats.abandoned;
    entry.abandoned = true;
    states_[static_cast<std::size_t>(id)] = JobState::kDone;
    entry.end = now_;
    --unfinished_;
    if (auto* tr = config_.trace_sink) {
      tr->record(obs::TraceCategory::kJob, "abandon", now_,
                 {obs::arg("job", id)});
    }
    return;
  }

  states_[static_cast<std::size_t>(id)] = JobState::kDone;
  entry.end = now_;
  --unfinished_;
  if (auto* tr = config_.trace_sink) {
    tr->record(obs::TraceCategory::kJob, "end", now_, {obs::arg("job", id)});
  }
}

void Simulator::record_sched_event() {
  if (!config_.record_events) return;
  SchedEventRecord rec;
  rec.time = now_;
  rec.idle = machine_.idle_nodes();
  rec.any_waiting = !queue_.empty();
  NodeCount min_occ = 0;
  bool first = true;
  for (const JobId id : queue_) {
    const NodeCount occ = machine_.occupancy(trace_->job(id));
    if (first || occ < min_occ) {
      min_occ = occ;
      first = false;
    }
  }
  rec.min_waiting_occupancy = min_occ;
  result_.events.push_back(rec);
}

SimSnapshot Simulator::capture() const {
  assert((in_metric_check_ || at_instant_end_) && "capture outside a snapshot point");
  static obs::Timer& capture_timer =
      obs::Registry::global().timer("sim.snapshot_capture");
  obs::ScopedTimer timed(capture_timer);
  if (auto* tr = config_.trace_sink) {
    tr->record(obs::TraceCategory::kSnapshot, "capture", now_,
               {obs::arg("check", check_index_),
                obs::arg("queued", queue_.size())});
  }
  SimSnapshot snap;
  snap.now = now_;
  snap.point =
      in_metric_check_ ? SnapshotPoint::kMetricCheck : SnapshotPoint::kInstantEnd;
  snap.events = events_;
  snap.states = states_;
  snap.queue = queue_;
  snap.attempts = attempts_;
  snap.failure_pending = failure_pending_;
  snap.attempt_start = attempt_start_;
  snap.unfinished = unfinished_;
  snap.result = result_;
  snap.state_changed = instant_state_changed_;
  snap.queue_depth_minutes = last_queue_depth_;
  snap.check_index = check_index_;
  snap.machine = machine_.save_state();
  snap.scheduler = scheduler_.save_state();
  return snap;
}

void Simulator::run_sched_pass(SchedContext& ctx) {
  ++passes_run_;
  obs::TraceSink* tr = config_.trace_sink;
  const bool registry_on = obs::Registry::enabled();
  if (tr == nullptr && !registry_on) {
    scheduler_.schedule(ctx);
    return;
  }

  const std::size_t queue_before = queue_.size();
  const double wall_start_ms = tr != nullptr ? tr->now_wall_ms() : 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  scheduler_.schedule(ctx);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  if (registry_on) {
    static obs::Timer& pass_timer =
        obs::Registry::global().timer("sim.sched_pass");
    pass_timer.record_ms(wall_ms);
  }
  if (tr != nullptr) {
    // Jobs only ever leave the queue during a pass, so the size delta is
    // the number started.
    tr->record_span(obs::TraceCategory::kSched, "pass", now_, wall_start_ms,
                    wall_ms,
                    {obs::arg("queued", queue_before),
                     obs::arg("started", queue_before - queue_.size()),
                     obs::arg("idle_nodes", machine_.idle_nodes())});
  }
}

void Simulator::finish_instant(SchedContext& ctx, bool state_changed) {
  run_sched_pass(ctx);
  if (state_changed) record_sched_event();
  result_.end_time = now_;
  if (config_.on_instant_end) {
    at_instant_end_ = true;
    config_.on_instant_end(ctx);
    at_instant_end_ = false;
  }
}

bool Simulator::stop_job_settled() const {
  if (config_.stop_once_started == kInvalidJob) return false;
  const auto s = states_[static_cast<std::size_t>(config_.stop_once_started)];
  return s == JobState::kRunning || s == JobState::kDone || s == JobState::kSkipped;
}

SimResult Simulator::run(const JobTrace& trace) {
  trace_ = &trace;
  machine_.reset();
  scheduler_.reset();
  plan_provider_->resync();
  events_ = EventQueue{};
  queue_.clear();
  now_ = 0;
  check_index_ = 0;
  passes_run_ = 0;
  result_ = SimResult{};
  result_.machine_nodes = machine_.total_nodes();
  result_.schedule.resize(trace.size());
  states_.assign(trace.size(), JobState::kPending);
  attempts_.assign(trace.size(), 0);
  failure_pending_.assign(trace.size(), false);
  attempt_start_.assign(trace.size(), kNever);
  unfinished_ = trace.size();

  for (const Job& j : trace.jobs()) {
    result_.schedule[static_cast<std::size_t>(j.id)].job = j.id;
    result_.schedule[static_cast<std::size_t>(j.id)].submit = j.submit;
    result_.schedule[static_cast<std::size_t>(j.id)].requested = j.nodes;
    events_.push(j.submit, EventType::kJobSubmit, j.id);
  }
  if (trace.empty()) return std::move(result_);

  // First metric check one interval after the first submission.
  events_.push(trace.jobs().front().submit + config_.metric_check_interval,
               EventType::kMetricCheck, kInvalidJob);

  SchedContext ctx(*this);
  return drain(ctx);
}

SimResult Simulator::resume(const JobTrace& trace, const SimSnapshot& snapshot,
                            ResumeScheduler mode) {
  assert(snapshot.valid() && "resume from an empty snapshot");
  assert(snapshot.states.size() == trace.size() &&
         "resume: snapshot belongs to a different trace");
  if (auto* tr = config_.trace_sink) {
    tr->record(obs::TraceCategory::kSnapshot, "restore", snapshot.now,
               {obs::arg("check", snapshot.check_index),
                obs::arg("fresh_scheduler",
                         mode == ResumeScheduler::kFresh ? 1 : 0)});
  }
  {
    static obs::Timer& restore_timer =
        obs::Registry::global().timer("sim.snapshot_restore");
    obs::ScopedTimer timed(restore_timer);
    trace_ = &trace;
    events_ = snapshot.events;
    states_ = snapshot.states;
    queue_ = snapshot.queue;
    attempts_ = snapshot.attempts;
    failure_pending_ = snapshot.failure_pending;
    attempt_start_ = snapshot.attempt_start;
    now_ = snapshot.now;
    unfinished_ = snapshot.unfinished;
    check_index_ = snapshot.check_index;
    result_ = snapshot.result;
    machine_.restore_state(*snapshot.machine);
    plan_provider_->resync();
    passes_run_ = 0;
    if (mode == ResumeScheduler::kRestore && snapshot.scheduler != nullptr) {
      scheduler_.restore_state(*snapshot.scheduler);
    } else {
      scheduler_.reset();
    }
  }

  SchedContext ctx(*this);
  if (snapshot.point == SnapshotPoint::kMetricCheck) {
    // Replay the captured instant's tail: the snapshot point sits between
    // the queue-depth sample and the on_metric_check -> schedule passes of
    // that metric check (see sim/snapshot.hpp). A kInstantEnd snapshot's
    // instant is already complete.
    in_metric_check_ = true;
    last_queue_depth_ = snapshot.queue_depth_minutes;
    instant_state_changed_ = snapshot.state_changed;
    scheduler_.on_metric_check(ctx, snapshot.queue_depth_minutes);
    in_metric_check_ = false;
    finish_instant(ctx, snapshot.state_changed);
  }
  if (stop_job_settled()) {
    trace_ = nullptr;
    return std::move(result_);
  }
  return drain(ctx);
}

SimResult Simulator::drain(SchedContext& ctx) {
  // Once every job is done only metric checks remain, and each one
  // enqueues the next, so the run ends there.
  while (!events_.empty() && unfinished_ > 0) {
    const SimTime t = events_.top().time;
    if (t > config_.stop_at) break;
    now_ = t;
    bool state_changed = false;
    bool metric_check = false;
    while (!events_.empty() && events_.top().time == t) {
      const Event e = events_.pop();
      switch (e.type) {
        case EventType::kJobEnd:
          handle_end(e.job);
          state_changed = true;
          break;
        case EventType::kJobSubmit:
          handle_submit(e.job);
          state_changed = true;
          break;
        case EventType::kMetricCheck:
          metric_check = true;
          break;
      }
    }

    if (metric_check) {
      // Algorithm 1: check metrics / adjust tunables, then run the
      // (possibly retuned) scheduling pass below. The next check is
      // enqueued *before* the callback so a snapshot captured here holds
      // the complete future event set.
      const double qd = queue_depth_minutes();
      result_.queue_depth.add(now_, qd);
      ++check_index_;
      if (unfinished_ > 0) {
        events_.push(now_ + config_.metric_check_interval, EventType::kMetricCheck,
                     kInvalidJob);
      }
      last_queue_depth_ = qd;
      instant_state_changed_ = state_changed;
      in_metric_check_ = true;
      if (auto* tr = config_.trace_sink) {
        tr->record(obs::TraceCategory::kTuning, "metric_check", now_,
                   {obs::arg("check", check_index_),
                    obs::arg("queue_depth_min", qd),
                    obs::arg("queued", queue_.size())});
      }
      if (config_.snapshot_sink) config_.snapshot_sink(capture());
      scheduler_.on_metric_check(ctx, qd);
      in_metric_check_ = false;
    }

    finish_instant(ctx, state_changed);

    if (stop_job_settled()) break;
    if (config_.stop_after_passes != 0 && passes_run_ >= config_.stop_after_passes) {
      break;
    }
  }

  if (!queue_.empty() && config_.stop_once_started == kInvalidJob &&
      config_.stop_at == kNever && config_.stop_after_passes == 0) {
    log::warn("simulation drained events with {} jobs still queued", queue_.size());
  }
  trace_ = nullptr;
  return std::move(result_);
}

}  // namespace amjs
