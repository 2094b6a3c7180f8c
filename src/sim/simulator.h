// Discrete-event cluster simulator (§6.1 "Simulator").
//
// The paper validates its simulator against the 64-GPU testbed at <3%
// metric error and uses it for all large-trace results; this is our
// testbed substitute (DESIGN.md §2). run_simulation is an event driver
// over the lifecycle engine (sim/engine.h) that the daemon also runs on:
// it feeds the engine the trace's arrivals and the fault injector's
// machine events, fires a scheduling round on the round interval whenever
// the queue changed (and keeps rounds firing while jobs wait), stops on
// max_time or a scheduler that cannot place the remaining jobs, and folds
// the engine's samples into the time-weighted averages of SimResult.
//
// The engine places the returned groups on the cluster in plan order and
// runs each group under the execution model of DESIGN.md §5
// (sim/exec_model.h):
//
//  - exclusive job:      per-iteration wall time = Σ_r t^r;
//  - interleaved group:  max-min fair fluid rates (sim/fluid.h) with
//                        demand inflation (1 + α(p-1)) for residual
//                        cross-stage contention (§6.2's explanation of
//                        sub-4× speedups), times the ordering penalty
//                        T_chosen/T_best (Fig. 6/11), times a cascade
//                        factor for mixed-GPU groups (Fig. 7);
//  - uncoordinated:      the same fluid model with the larger interference
//                        inflation (1+β) and no coordination benefit (the
//                        §2.1 GPU-sharing example).
//
// Preempted or regrouped jobs pay a restart penalty (§5 terminates and
// restarts jobs on plan changes).
#pragma once

#include <array>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "fault/fault.h"
#include "fault/monitor.h"
#include "job/trace.h"
#include "scheduler/scheduler.h"
#include "sim/engine.h"

namespace muri {

// The engine's lifecycle knobs (sim/engine.h: cluster, restart penalty,
// the execution model, job faults, profiler, durations, and the tracer /
// metrics / decisions / jobtrace hooks) plus the simulator's event-source
// knobs below.
struct SimOptions : EngineOptions {
  // Scheduling round interval (§5 uses six minutes).
  Duration schedule_interval = 360;
  // Machine-level fault domains: crash/recover (per-machine exponential
  // MTBF/MTTR) and transient straggler windows (per-resource slowdown).
  // A crashed machine evicts and requeues every resident job. All
  // processes default off (zero rates): behavior is then identical to a
  // fault-free run.
  FaultInjectorOptions machine_faults{};
  // Worker-monitor policy: blacklist threshold and recovery probation.
  WorkerMonitorOptions monitor{};
  // Record time series (queue length, blocking index, utilization).
  bool record_series = false;
  // Safety stop; 0 disables. Jobs unfinished at the stop are dropped from
  // JCT statistics and reported in `unfinished_jobs`.
  Time max_time = 0;
};

struct SimResult {
  std::string scheduler_name;
  std::string trace_name;

  // Headline metrics (Tables 4-5, Figures 9-10).
  double avg_jct = 0;
  double p99_jct = 0;
  double makespan = 0;

  // Detailed metrics (Fig. 8).
  double avg_queue_length = 0;
  double avg_blocking_index = 0;
  std::array<double, kNumResources> avg_utilization{};

  // Per-job completion times, aligned with finished job ids.
  std::vector<double> jcts;
  int finished_jobs = 0;
  int unfinished_jobs = 0;

  // Time series (populated when record_series).
  std::vector<SeriesRecorder::Point> queue_series;
  std::vector<SeriesRecorder::Point> blocking_series;
  std::array<std::vector<SeriesRecorder::Point>, kNumResources> util_series;

  // Execution-shape diagnostics (time-weighted averages while any job is
  // in the system).
  double avg_running_jobs = 0;
  double avg_group_width = 0;   // members per running group
  double avg_normalized_rate = 0;  // x = solo_iter_time / period

  // Interleaving-efficiency accounting. "Predicted" is the schedule-time γ
  // of Eq. 4 (best-case rotation efficiency, time-weighted over running
  // multi-job groups; previously named `avg_group_gamma`). "Realized" is
  // reconstructed from execution: per group incarnation, busy seconds per
  // resource divided by the group's wall window, averaged over the
  // resources the group actually uses — the same averaging as
  // interleave/group_efficiency — then weighted by window length across
  // retired multi-member groups. The fluid execution model is
  // work-conserving, so on noise-free timings realized γ matches predicted
  // γ to within a few percent (it can exceed it: the rotation schedule
  // quantizes to stage boundaries, the fluid model does not).
  double avg_group_gamma_predicted = 0;
  double avg_group_gamma_realized = 0;
  // Window-weighted mean of (realized − predicted) over retired groups.
  double avg_group_gamma_error = 0;

  // Realized busy seconds per resource summed over machines (the totals
  // behind the `muri_resource_busy_seconds` counters).
  std::array<double, kNumResources> resource_busy_seconds{};

  // Per finished job, in completion order (aligned with `jcts`).
  std::vector<JctBreakdown> jct_breakdown;

  // Fault injection accounting.
  std::int64_t faults = 0;
  // Number of times a running job was restarted because its group or
  // placement changed (preemption/regrouping churn).
  std::int64_t restarts = 0;
  // Machine fault-domain accounting.
  std::int64_t machine_failures = 0;   // machine-down events observed
  std::int64_t evictions = 0;          // jobs requeued by machine crashes
  double straggler_seconds = 0;        // job-seconds run at slowdown > 1
  double degraded_group_seconds = 0;   // job-seconds run in a degraded group

  // Accounting.
  std::int64_t scheduler_invocations = 0;
  double scheduler_wall_ms = 0;  // real time spent inside schedule()
  int profiler_sessions = 0;
  Duration profiling_time = 0;
};

// Runs `scheduler` over `trace` and returns the collected metrics.
// The scheduler object may carry state across rounds (AntMan does); pass a
// fresh instance per run.
SimResult run_simulation(const Trace& trace, Scheduler& scheduler,
                         const SimOptions& options);

}  // namespace muri
