// Engine — the one job-lifecycle core (DESIGN.md §5 and "Service
// architecture → Engine").
//
// Both drivers run their jobs through it. run_simulation
// (sim/simulator.cpp) replays a closed trace event by event; the daemon
// (service/daemon.cpp) steps it from a live clock. Everything that happens
// to a job between admission and completion lives here, so a job
// submitted to the daemon runs under exactly the rules the simulator
// charges it:
//
//   arrive()/submit()/restore()  admit a job; the simulator writes an
//                                `arrival` record, the daemon a
//                                `job_submit` or `job_restore`
//   cancel()                     retire a queued or running job
//   progress_to(t)               progress running jobs to sim time t
//   fail_due_jobs()              job-level faults; the survivors of the
//                                faulted group continue degraded
//   complete_finished()          retire jobs whose iterations are done
//   advance_to(t)                progress with faults and completions
//                                landing on their exact instants (the
//                                daemon's step)
//   machine_down()/machine_up()/ machine fault domains: evictions, pool
//   rejoin()/straggler_*()       membership, straggler period factors
//   run_round()                  one scheduling round: build JobViews,
//                                call schedule(), place the plan, restart
//                                and preempt, record the wait verdicts
//   next_finish_time()           the next completion or job fault
//
// The drivers keep their own event order at equal timestamps. The
// simulator progresses, then admits arrivals, applies machine events, job
// faults and completions, then runs the round; the daemon completes jobs
// inside advance_to, then admits, then runs the round.
//
// The job table is dense (indexed by JobId) and the engine keeps an
// ascending list of active job ids: every per-job loop walks only the
// active jobs, in ascending id, so advances and rounds cost O(active), not
// O(jobs ever admitted).
//
// The engine models job faults, machine faults and stragglers, but the
// daemon exposes no fault knobs: it runs the fault-free model.
//
// Not thread-safe: the daemon serializes every call under its own mutex,
// which keeps the DecisionLog append order (and so the WAL) one story.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/types.h"
#include "job/job.h"
#include "profiler/profiler.h"
#include "scheduler/scheduler.h"
#include "sim/exec_model.h"

namespace muri::obs {
class Counter;
class DecisionLog;
class JobTraceLog;
class MetricsRegistry;
class Summary;
class Tracer;
}  // namespace muri::obs

namespace muri {

enum class JobPhase : std::uint8_t {
  kQueued,     // admitted, waiting for a placement
  kRunning,    // placed, progressing (or inside a restart-penalty window)
  kFinished,
  kCancelled,
};

const char* to_string(JobPhase phase) noexcept;

// Snapshot of one job for the daemon's API (GET /jobs, GET /jobs/<id>).
struct JobStatus {
  JobId id = kInvalidJob;
  JobPhase phase = JobPhase::kQueued;
  ModelKind model = ModelKind::kResNet18;
  std::string name;
  int num_gpus = 1;
  std::int64_t iterations = 0;
  double done_iterations = 0;
  Time submit_time = 0;
  // Simulated time of the first placement; < 0 while never scheduled.
  Time first_scheduled = -1;
  // Simulated completion/cancel time; < 0 while in flight.
  Time end_time = -1;
  int preemptions = 0;
};

// Per-job completion-time decomposition (the "JCT breakdown" of the
// utilization analytics): JCT = queueing + running + restart overhead.
// Running is placed-and-progressing, restart overhead is
// placed-but-stalled inside a restart penalty window, and queueing is the
// rest of the JCT: every second the job was in the system but not placed.
// A job restored from a WAL counts its pre-crash placed time as queueing.
struct JctBreakdown {
  JobId job = kInvalidJob;
  double jct_seconds = 0;
  double queueing_seconds = 0;
  double running_seconds = 0;
  double restart_overhead_seconds = 0;
  // Times the job lost a placement it had (preempt + machine eviction);
  // job-level faults are counted separately in SimResult::faults.
  int preemptions = 0;
};

// Observational callbacks the daemon hooks to feed its live SLO plane
// (queue-wait and JCT distributions, round phase split). Fire-and-forget:
// implementations must not call back into the engine. Like every obs
// hook, null is a zero-cost no-op and attaching an observer never changes
// plans, decision records, or traces.
class EngineObserver {
 public:
  virtual ~EngineObserver() = default;
  // A job received its first placement `wait_s` simulated seconds after
  // submission.
  virtual void on_first_schedule(Time now, double wait_s) {
    (void)now;
    (void)wait_s;
  }
  // A job finished with simulated JCT `jct_s`.
  virtual void on_job_finish(Time now, double jct_s) {
    (void)now;
    (void)jct_s;
  }
  // One run_round() completed: wall seconds inside schedule() vs. wall
  // seconds placing the plan (cluster allocation, group execution
  // arithmetic and the wait verdicts).
  virtual void on_round(Time now, double schedule_s, double place_s) {
    (void)now;
    (void)schedule_s;
    (void)place_s;
  }
};

// The lifecycle knobs. The execution-model fields (alpha, gamma_penalty,
// beta, ...) are inherited from ExecModelParams (sim/exec_model.h
// documents each); SimOptions extends this struct with the simulator's
// event-source knobs.
struct EngineOptions : ExecModelParams {
  ClusterSpec cluster{};
  // Cost of (re)starting a job whose group or admission changed (§5
  // terminates and restarts jobs on plan changes).
  Duration restart_penalty = 30;
  // Job-level fault injection (§3/§5: the executor reports faults and the
  // job is pushed back to the queue). Mean time between failures per
  // *running job* in hours; 0 disables. Progress is checkpointed at
  // iteration granularity, so a fault costs the requeue wait plus the
  // restart penalty, not lost work. Each job draws its fault times from
  // its own RNG substream of fault_seed (keyed by job id), so editing the
  // trace never reshuffles other jobs' fault times. The surviving members
  // of a faulted group continue immediately as a re-planned degraded
  // group.
  double mtbf_hours = 0;
  std::uint64_t fault_seed = 1337;
  ResourceProfiler::Options profiler{};
  // Whether JobView::remaining_time is populated (Muri-S/SRTF/SRSF runs).
  bool durations_known = false;
  // Observability hooks (src/obs), all optional and all observers only:
  // plans, records and results are bit-identical with or without each.
  //
  // `tracer` is driven in the simulated-time clock domain: per-machine
  // tracks carry job run spans, preemptions, fault windows and busy
  // counters, and the scheduler track carries submits and rounds.
  obs::Tracer* tracer = nullptr;
  // Lifecycle counters and summaries (faults, restarts, evictions,
  // straggler and degraded seconds, busy seconds per machine, per-job
  // breakdowns) accumulate here, or in a private registry when null.
  obs::MetricsRegistry* metrics = nullptr;
  // Decision provenance sink (src/obs/provenance): the outcome half of
  // every round (placements with machines chosen, skipped groups with
  // cause, preempt/restart/evict/fault records, degraded continuations,
  // wait verdicts, finishes), stamped with the scheduler's round id. The
  // engine also attaches it to the scheduler unless the scheduler already
  // has a log of its own, so one log carries both halves of a round.
  obs::DecisionLog* decisions = nullptr;
  // Per-job causal span recorder (src/obs/jobtrace): submit → round
  // verdicts → placement/restart → preempt/evict/fault/degraded/straggler
  // → finish, attributed into wait buckets that sum to the realized JCT.
  obs::JobTraceLog* jobtrace = nullptr;
  // Live SLO plane hook (the daemon's).
  EngineObserver* observer = nullptr;
};

// Per-engine lifecycle counts (SimResult's fault accounting).
struct EngineCounts {
  std::int64_t faults = 0;
  std::int64_t restarts = 0;
  std::int64_t machine_failures = 0;
  std::int64_t evictions = 0;
  double straggler_seconds = 0;
  double degraded_seconds = 0;
};

// The cluster at one instant, for the simulator's time-weighted averages.
struct EngineSample {
  int queued = 0;
  // Mean blocking index (pending time over remaining solo time) over the
  // queued jobs; 0 when none are queued.
  double blocking = 0;
  int running = 0;
  // Means over the running jobs; meaningful when running > 0.
  double mean_rate = 0;   // solo iteration time / period
  double mean_width = 0;  // members per distinct running group
  // Mean predicted γ over running members of multi-job groups.
  int grouped = 0;
  double mean_gamma = 0;
  std::array<double, kNumResources> utilization{};
};

// Window-weighted realized γ over the retired multi-member group
// incarnations, and the mean realized-minus-predicted error (0 when no
// multi-member group ran).
struct GammaAudit {
  double realized = 0;
  double error = 0;
};

class Engine {
 public:
  // `start` is the engine's initial simulated time.
  Engine(Scheduler& scheduler, EngineOptions options, Time start = 0);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Admits a trace job at sim time `now` and writes an `arrival` record.
  void arrive(const Job& job, Time now);
  // Admits a daemon submission (its queueing clock starts at `now`) and
  // writes a `job_submit` record. Ids must be fresh.
  void submit(const JobSpec& spec, JobId id, Time now);
  // WAL-recovery re-admission: the job keeps its original submit time and
  // checkpointed progress. Writes a `job_restore` record at `now`.
  void restore(const JobSpec& spec, JobId id, Time original_submit,
               double done_iterations, Time now);
  // Cancels a queued or running job. False if unknown or already
  // finished/cancelled. Writes a `job_cancel` record with `reason`. A
  // cancelled running member simply stops; its partners keep their
  // periods until the round the cancel triggers re-plans them.
  bool cancel(JobId id, Time now, const char* reason);

  // Progresses every running job to `t` (earlier times are ignored).
  // Finishes nothing: see complete_finished().
  void progress_to(Time t);
  // Job-level faults due at now(): each faulted job goes back to the
  // queue and its group's survivors continue as a degraded group. True
  // when any job faulted.
  bool fail_due_jobs();
  // Retires every running job whose iterations are done, at now(), in
  // ascending id. Returns their breakdowns in that order.
  std::vector<JctBreakdown> complete_finished();
  // progress_to(t) in sub-steps that stop at every job fault and
  // completion, so each lands on its exact instant.
  void advance_to(Time t);
  // The earliest instant a running job completes or faults (infinity when
  // nothing is running).
  Time next_finish_time() const;

  // Machine fault domains. A crash evicts and requeues every job of the
  // groups resident on `m` and takes it out of the pool; machine_up only
  // records the repair, rejoin() returns the machine to the pool.
  void machine_down(MachineId m);
  void machine_up(MachineId m);
  void rejoin(MachineId m);
  // Straggler windows inflate the periods of the jobs resident on `m`,
  // weighted by each job's own stage mix.
  void straggler_start(MachineId m, const ResourceVector& slowdown);
  void straggler_end(MachineId m);

  // One scheduling round at now(). Cancels jobs past their start
  // deadline, invokes the scheduler, places the plan in order, applies
  // restart penalties, preempts the displaced, and records the wait
  // verdicts.
  void run_round();

  // True when the queue changed since the last round (admission, finish,
  // cancel, fault, eviction) — the daemon's event-driven round trigger.
  // Preemptions do NOT set it: otherwise any displacement would
  // re-trigger a round at once and the daemon's debounce window could
  // never close. Waiting jobs still get rounds from the drivers'
  // fixed-interval keep-alive.
  bool dirty() const noexcept { return queue_changed_; }

  // The cluster sample behind the simulator's time-weighted averages.
  EngineSample sample() const;
  // Samples the per-machine busy counters onto the trace (no-op without a
  // tracer). Rounds emit one; the simulator also emits one whenever its
  // queue changed.
  void trace_busy_counters();
  // Closes the trace spans still open at `end` (cutoffs, machines that
  // never came back). Jobs are not progressed to `end`.
  void close_trace(Time end);

  // Per-engine deltas of the lifecycle counters.
  EngineCounts counts() const;
  // Observes the realized γ of every multi-member group incarnation into
  // the metrics summaries and returns the window-weighted means.
  GammaAudit audit_group_gamma();
  // Realized busy seconds per resource over all machines.
  const std::array<double, kNumResources>& resource_busy_seconds() const {
    return busy_total_;
  }

  // API snapshots. for_each_job calls fn(const JobStatus&) for every job
  // in the table, in id order: one pass, and no copy of the table.
  template <typename Fn>
  void for_each_job(Fn&& fn) const {
    JobStatus st;
    for (const JobRecord& rec : jobs_) {
      if (rec.job.id == kInvalidJob) continue;
      fill_status(rec, st);
      fn(static_cast<const JobStatus&>(st));
    }
  }
  // Slots in the job table: a bound on for_each_job's calls.
  std::size_t job_slots() const noexcept { return jobs_.size(); }
  bool job_status(JobId id, JobStatus& out) const;
  // Graceful-shutdown checkpoint: one job_progress record per unfinished
  // job with progress, so a restart resumes iterations instead of
  // replaying them.
  void checkpoint_progress(Time now);

  Time now() const noexcept { return now_; }
  // Jobs admitted and not yet finished/cancelled.
  int active_jobs() const noexcept { return static_cast<int>(active_.size()); }
  int running_jobs() const noexcept { return running_; }
  std::int64_t rounds_run() const noexcept { return rounds_; }
  // Wall milliseconds spent inside schedule().
  double scheduler_wall_ms() const noexcept { return scheduler_wall_ms_; }
  const Cluster& cluster() const noexcept { return cluster_; }
  const ResourceProfiler& profiler() const noexcept { return profiler_; }

 private:
  // A group key identifies "the same running configuration"; jobs whose
  // key changes between rounds pay the restart penalty.
  struct GroupKey {
    std::vector<JobId> members;  // sorted
    GroupMode mode = GroupMode::kExclusive;
    int num_gpus = 0;
    bool operator==(const GroupKey&) const = default;
  };

  // Utilization account for one group *incarnation*: an uninterrupted
  // placement of one member set under one configuration key. Busy seconds
  // accumulate as members progress (a job iterating with period T
  // occupies resource r for t^r seconds per iteration); the realized γ of
  // the incarnation is busy/active-window averaged over the resources the
  // group uses — the same averaging as interleave/group_efficiency, so it
  // is directly comparable to the schedule-time prediction.
  struct GroupAccount {
    MachineId machine = kInvalidMachine;  // home machine (first of the set)
    int size = 0;
    GroupMode mode = GroupMode::kExclusive;
    bool degraded = false;
    double gamma_predicted = 0;
    Time window_start = 0;
    Time window_end = 0;
    // Members share one restart gate; wall time before it is restart
    // stall, excluded from the γ denominator.
    Time ready_at = 0;
    std::array<double, kNumResources> busy{};
    std::array<bool, kNumResources> active{};
  };

  // A placed group: which jobs share which machines. Maps machine-level
  // fault events back to the resident jobs.
  struct RunningGroup {
    std::vector<JobId> members;
    GroupMode mode = GroupMode::kExclusive;
    int num_gpus = 0;
    std::vector<MachineId> machines;
  };

  struct JobRecord {
    Job job;  // ground truth; job.id == kInvalidJob marks an unused slot
    IterationProfile measured;
    std::string name;
    double deadline_s = 0;
    JobPhase phase = JobPhase::kQueued;
    double done_iterations = 0;
    double attained_gpu_seconds = 0;
    Duration ran_wall = 0;          // wall seconds spent placed
    Duration restart_overhead = 0;  // placed-but-stalled (restart gate) wall
    int preemptions = 0;   // placements lost to preemption or eviction
    Time ready_at = 0;     // progress gate after (re)start
    Duration period = 0;   // current wall seconds per iteration
    Time next_fault = 0;   // scheduled failure while running (inf = none)
    double group_gamma = 0;  // best-case γ of the current group
    GroupKey key;            // current group configuration
    OwnerId owner = kNoOwner;       // GPU-set owner of the current group
    double straggler_factor = 1.0;  // period inflation from stragglers
    bool degraded = false;  // running in a group that lost a member
    // The current incarnation's account (deque storage keeps the pointer
    // stable); -1 / nullptr when not running.
    std::int64_t group_id = -1;
    GroupAccount* acct = nullptr;
    // The open run-stage span (kNoTime = none) and its machine track.
    Time run_since = kNoTime;
    MachineId run_machine = kInvalidMachine;
    Time first_scheduled = -1;
    Time end_time = -1;
    std::int64_t placed_round = 0;  // the round that last placed the job
    std::unique_ptr<Rng> fault_rng;  // null when job faults are off

    Duration remaining_solo() const {
      return (static_cast<double>(job.iterations) - done_iterations) *
             job.profile.iteration_time();
    }
  };

  void admit(JobRecord rec, Time now, bool restored);
  JobRecord* find(JobId id);
  const JobRecord* find(JobId id) const;
  static void fill_status(const JobRecord& rec, JobStatus& out);
  void mark_dirty(JobId id);
  // Takes a running job off its placement (back to kQueued).
  void stop_running(JobRecord& s);
  // Removes a retiring job from its group's member list.
  void leave_group(JobRecord& s);
  JctBreakdown finish(JobRecord& s);
  void apply_plan(const std::vector<PlannedGroup>& plan);
  void replan_degraded(RunningGroup& g);
  void refresh_straggler_factors();
  double straggler_factor_for(const Job& job,
                              const std::vector<MachineId>& machines) const;
  Time projected_finish(const JobRecord& s) const;
  GroupAccount* new_account(std::int64_t& gid);
  // Run-stage span helpers: a span covers one uninterrupted placement of
  // a job; whatever ends it closes the span first and then marks the
  // cause with an instant event.
  void end_run_span(JobRecord& s);
  void begin_run_span(JobRecord& s, MachineId machine);
  void job_instant(const JobRecord& s, const char* name);

  Scheduler& scheduler_;
  EngineOptions options_;
  Cluster cluster_;
  ResourceProfiler profiler_;
  const double fault_rate_;  // job faults per running second

  std::vector<JobRecord> jobs_;
  std::vector<JobId> active_;  // ascending
  int running_ = 0;
  // The lifecycle delta handed to the scheduler as ctx.dirty_jobs
  // (includes displacements); `queue_changed_` is the narrower
  // round-trigger bit.
  std::vector<JobId> dirty_jobs_;
  bool queue_changed_ = false;
  Time now_ = 0;
  std::int64_t rounds_ = 0;
  // The decision-log round id of the latest round (the round ordinal when
  // no log is wired), stamped on jobtrace events between rounds.
  std::int64_t round_id_ = 0;
  double scheduler_wall_ms_ = 0;

  std::map<OwnerId, RunningGroup> running_groups_;
  // Group incarnations in creation order: id g lives at index g-1. A
  // group that survives a round unchanged keeps its incarnation; any
  // configuration change retires it and opens a new one.
  std::deque<GroupAccount> group_accounts_;

  // Machine fault domains: active straggler slowdowns, and the open fault
  // windows exported as trace spans (kNoTime = none).
  std::vector<ResourceVector> machine_slow_;
  std::vector<Time> machine_down_since_;
  std::vector<Time> machine_straggler_since_;
  double run_epoch_ = 0;

  std::unique_ptr<obs::MetricsRegistry> private_registry_;
  obs::Counter* c_faults_ = nullptr;
  obs::Counter* c_restarts_ = nullptr;
  obs::Counter* c_machine_failures_ = nullptr;
  obs::Counter* c_evictions_ = nullptr;
  obs::Counter* c_straggler_seconds_ = nullptr;
  obs::Counter* c_degraded_seconds_ = nullptr;
  obs::Counter* c_preempt_displaced_ = nullptr;
  obs::Counter* c_preempt_machine_ = nullptr;
  std::vector<std::array<obs::Counter*, kNumResources>> c_busy_;
  obs::Summary* s_gamma_realized_ = nullptr;
  obs::Summary* s_gamma_error_ = nullptr;
  obs::Summary* s_job_queueing_ = nullptr;
  obs::Summary* s_job_running_ = nullptr;
  obs::Summary* s_job_restart_overhead_ = nullptr;
  obs::Summary* s_job_preemptions_ = nullptr;
  // Counter values at construction (the registry may be shared).
  struct {
    double faults = 0, restarts = 0, machine_failures = 0, evictions = 0,
           straggler_seconds = 0, degraded_seconds = 0;
  } base_;
  std::array<double, kNumResources> busy_total_{};
};

}  // namespace muri
