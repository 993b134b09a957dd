// The event-driven scheduling simulator (a C++ re-implementation of the
// role Cobalt's qsim plays in the paper).
//
// Flow: jobs submit per the trace; the Scheduler is invoked after every
// batch of simultaneous submit/end events and at every periodic metric
// check (Algorithm 1 inserts the tuning logic *before* the scheduling
// call, which is exactly the Scheduler::on_metric_check -> schedule order
// used here). The scheduler starts jobs through SchedContext; the
// simulator converts starts into end events at start + actual runtime.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "platform/machine.hpp"
#include "sched/calendar/calendar.hpp"
#include "sim/events.hpp"
#include "sim/failures.hpp"
#include "sim/result.hpp"
#include "workload/trace.hpp"

namespace amjs {

namespace obs {
class TraceSink;
}

class Simulator;
struct SimSnapshot;

/// Lifecycle of one job within a run.
enum class SimJobState : std::uint8_t { kPending, kQueued, kRunning, kDone, kSkipped };

/// The scheduler's window onto the simulation. Queue order is submission
/// order; schedulers impose their own priority ordering on top.
class SchedContext {
 public:
  [[nodiscard]] SimTime now() const;
  [[nodiscard]] Machine& machine();
  [[nodiscard]] const Machine& machine() const;

  /// Waiting jobs in submission order.
  [[nodiscard]] const std::vector<JobId>& queue() const;

  /// A Plan view of the machine's future as of now(), served by the
  /// simulation's PlanProvider (the machine model's incremental calendar
  /// unless the Simulator was handed another). It costs O(deltas since
  /// the last call) instead of a rebuild from the running set. The view
  /// is valid until the next plan() call (one scheduler pass).
  [[nodiscard]] std::unique_ptr<Plan> plan() const;

  [[nodiscard]] const Job& job(JobId id) const;

  /// The trace being simulated (twin forks replay the same trace).
  [[nodiscard]] const JobTrace& trace() const;

  /// Capture the full simulation state. Valid at the two snapshot points
  /// of sim/snapshot.hpp and nowhere else: inside Scheduler::on_metric_check
  /// (a kMetricCheck snapshot; Simulator::resume replays the rest of the
  /// instant exactly) and inside SimConfig::on_instant_end (a kInstantEnd
  /// snapshot; resume continues with the next instant). What-if policies
  /// hand the former to a TwinEngine to fork candidate futures; the
  /// fair-start oracle forks its probes from the latter.
  [[nodiscard]] SimSnapshot capture() const;

  /// Time the job has been waiting so far.
  [[nodiscard]] Duration waited(JobId id) const;

  /// The run's structured-event sink, or nullptr when tracing is off
  /// (SimConfig::trace_sink). Schedulers emit tuning / backfill / twin
  /// events through this; always null-check.
  [[nodiscard]] obs::TraceSink* recorder() const;

  /// Busy-node history of the run so far (step function; divide by
  /// machine().total_nodes() for utilization). Adaptive policies read
  /// their moving averages from this.
  [[nodiscard]] const StepSeries& busy_series() const;

  /// Start a waiting job now. Returns false if the machine refuses (the
  /// job stays queued). On success the job leaves the queue and its end
  /// event is scheduled. `placement` pins the machine allocation to a
  /// Plan's placement choice (Plan::last_placement()); schedulers that
  /// plan placements MUST pass it so live allocation matches the plan.
  bool start_job(JobId id, int placement = -1);

 private:
  friend class Simulator;
  explicit SchedContext(Simulator& sim) : sim_(sim) {}
  Simulator& sim_;
};

/// Opaque saved run state of a Scheduler (see Scheduler::save_state).
class SchedulerState {
 public:
  virtual ~SchedulerState() = default;
};

/// Scheduling policy interface (implementations in src/sched and
/// src/core).
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Invoked after every batch of simultaneous arrival/completion events
  /// and after every metric check. Start as many jobs as the policy wants.
  virtual void schedule(SchedContext& ctx) = 0;

  /// Periodic checkpoint (every SimConfig::metric_check_interval); adaptive
  /// policies adjust their tunables here. Runs before the schedule() call
  /// of the same instant. `queue_depth_minutes` is the paper's QD metric.
  virtual void on_metric_check(SchedContext& ctx, double queue_depth_minutes);

  [[nodiscard]] virtual std::string name() const = 0;

  /// Return to the initial policy state (fresh simulation).
  virtual void reset() {}

  /// Capture policy-internal run state for a SimSnapshot. Policies whose
  /// behaviour depends only on the SchedContext may keep the default
  /// (nullptr = stateless); policies carrying cross-event state — live
  /// tunables, monitors, stats — must override this together with
  /// restore_state() or mid-run resume will not reproduce the original run.
  [[nodiscard]] virtual std::unique_ptr<SchedulerState> save_state() const {
    return nullptr;
  }

  /// Restore state captured by save_state() on an identically configured
  /// instance. `state` is not consumed (one snapshot may seed many forks).
  /// Default: reset(), correct for stateless policies.
  virtual void restore_state(const SchedulerState& state);
};

struct SimConfig {
  /// Paper's C_i: interval between metric checks (30 minutes).
  Duration metric_check_interval = minutes(30);

  /// Keep per-event records (needed for Loss of Capacity). Large sweeps
  /// can disable to save memory.
  bool record_events = true;

  /// If set, end the run as soon as this job has started — the fair-start
  /// oracle only needs one job's start time, so it truncates here.
  JobId stop_once_started = kInvalidJob;

  /// Hard horizon: events after this instant are left unprocessed and the
  /// run ends (kNever = run to completion). Twin forks replay a snapshot
  /// for a bounded window of sim time through this.
  SimTime stop_at = kNever;

  /// If set, invoked with a full state snapshot at every metric check,
  /// just before the scheduler's on_metric_check. Feeding any snapshot to
  /// Simulator::resume continues the run exactly as if uninterrupted.
  std::function<void(const SimSnapshot&)> snapshot_sink;

  /// If set, invoked at the end of every instant — after the instant's
  /// scheduling pass and its event record, before the run's stop checks —
  /// with the run's context. ctx.capture() is valid inside the callback
  /// and yields a kInstantEnd snapshot, which Simulator::resume continues
  /// from the next instant on. Capturing is optional: callers that fork
  /// only at some instants test ctx.now() and return.
  std::function<void(const SchedContext&)> on_instant_end;

  /// If set, structured run events (job lifecycle, scheduler passes,
  /// metric checks, snapshots, tuning decisions) are recorded here; see
  /// src/obs/trace.hpp. Any TraceSink works: the in-memory TraceRecorder
  /// or the bounded-memory JsonlStreamSink (obs/stream_sink.hpp) for
  /// month-scale runs. Borrowed, not owned. Null keeps the hot path
  /// branch-cheap: the only cost of disabled tracing is pointer tests.
  obs::TraceSink* trace_sink = nullptr;

  /// If non-zero, stop after exactly this many scheduler passes. Bench
  /// harnesses use it to pin the iteration count across configurations so
  /// per-iteration costs are an apples-to-apples series.
  std::size_t stop_after_passes = 0;

  /// Failure injection (disabled by default; see sim/failures.hpp).
  FailureModel failures;
};

/// How Simulator::resume treats the scheduler it was constructed with.
enum class ResumeScheduler {
  /// Restore the snapshot's saved scheduler state (exact continuation of
  /// the original run; the scheduler must be configured identically).
  kRestore,
  /// reset() the scheduler and let it take over from the snapshot instant
  /// onward — how twin forks trial a *different* policy on the same state.
  kFresh,
};

class Simulator {
 public:
  /// `machine` and `scheduler` are borrowed for the duration of run();
  /// both are reset() at the start of every run. Plans come from the
  /// machine model's calendar (make_plan_provider).
  Simulator(Machine& machine, Scheduler& scheduler, SimConfig config = {});

  /// Same, with plans from `plans`, a provider over `machine`: how tests
  /// run a reference plan, or a machine model that has no calendar.
  Simulator(Machine& machine, Scheduler& scheduler, SimConfig config,
            std::unique_ptr<PlanProvider> plans);

  /// Simulate the full trace and return the realized schedule + series.
  [[nodiscard]] SimResult run(const JobTrace& trace);

  /// Continue a run from `snapshot` (captured from a simulation of the
  /// same trace on an identically configured machine). The machine is
  /// overwritten via restore_state; the scheduler is restored or reset per
  /// `mode`. With kRestore the returned SimResult is bit-identical to the
  /// uninterrupted run's.
  [[nodiscard]] SimResult resume(const JobTrace& trace, const SimSnapshot& snapshot,
                                 ResumeScheduler mode = ResumeScheduler::kRestore);

 private:
  friend class SchedContext;

  using JobState = SimJobState;

  void handle_submit(JobId id);
  void handle_end(JobId id);
  void record_sched_event();

  /// Run one scheduler pass, instrumented: when tracing or the obs
  /// registry is active, the pass is wall-timed and recorded as a
  /// "sched/pass" span plus a "sim.sched_pass" timer sample. With both
  /// disabled this is a plain scheduler_.schedule(ctx) call.
  void run_sched_pass(SchedContext& ctx);
  [[nodiscard]] double queue_depth_minutes() const;

  /// Close the current instant: the scheduling pass, the event record
  /// when job events fired, the end time, then SimConfig::on_instant_end.
  void finish_instant(SchedContext& ctx, bool state_changed);

  /// Build a snapshot of the current state (at a snapshot point only).
  [[nodiscard]] SimSnapshot capture() const;

  /// Pop-and-dispatch until the event queue drains or a stop condition
  /// fires; shared tail of run() and resume().
  [[nodiscard]] SimResult drain(SchedContext& ctx);

  /// Has `stop_once_started`'s job started (or become unstartable)?
  [[nodiscard]] bool stop_job_settled() const;

  Machine& machine_;
  Scheduler& scheduler_;
  SimConfig config_;
  /// Long-lived plan source; fed job start/finish deltas and resynced on
  /// reset/restore so SchedContext::plan() never pays a from-scratch
  /// rebuild on the hot path.
  std::unique_ptr<PlanProvider> plan_provider_;

  // Per-run state.
  const JobTrace* trace_ = nullptr;
  EventQueue events_;
  std::vector<JobState> states_;
  std::vector<JobId> queue_;  // submission order
  std::vector<int> attempts_;            // allocation attempts so far
  std::vector<bool> failure_pending_;    // current run ends in a failure
  std::vector<SimTime> attempt_start_;   // start of the current attempt
  SimTime now_ = 0;
  std::size_t unfinished_ = 0;
  std::size_t passes_run_ = 0;           // scheduler passes this run
  std::size_t check_index_ = 0;          // metric checks processed so far
  // Valid during the metric-check phase of the current instant (capture()
  // folds them into the snapshot so resume can replay the instant's tail).
  double last_queue_depth_ = 0.0;
  bool instant_state_changed_ = false;
  bool in_metric_check_ = false;
  bool at_instant_end_ = false;  // inside SimConfig::on_instant_end
  SimResult result_;
};

}  // namespace amjs
