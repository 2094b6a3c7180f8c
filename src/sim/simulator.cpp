#include "sim/simulator.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "common/logging.h"
#include "obs/provenance.h"

namespace muri {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SimResult run_simulation(const Trace& trace, Scheduler& scheduler,
                         const SimOptions& options) {
  SimResult result;
  result.scheduler_name = scheduler.name();
  result.trace_name = trace.name;
  if (trace.jobs.empty()) return result;

  const auto n = trace.jobs.size();
  for (size_t i = 0; i < n; ++i) {
    assert(trace.jobs[i].id == static_cast<JobId>(i) &&
           "trace job ids must be dense");
  }
  std::vector<size_t> arrival_order(n);
  for (size_t i = 0; i < n; ++i) arrival_order[i] = i;
  std::stable_sort(arrival_order.begin(), arrival_order.end(),
                   [&](size_t a, size_t b) {
                     return trace.jobs[a].submit_time < trace.jobs[b].submit_time;
                   });

  size_t next_arrival = 0;
  Time now = trace.jobs[arrival_order[0]].submit_time;
  const Time start_time = now;
  Time last_round = now - options.schedule_interval;  // first round fires now

  Engine engine(scheduler, options, now);
  // Machine-level fault domains: the event source and the health tracker
  // that holds repaired machines on probation.
  FaultInjector injector(options.cluster.num_machines, options.machine_faults,
                         now);
  WorkerMonitor monitor(options.cluster.num_machines, options.monitor);

  // Run-lifecycle records (sim_start … sim_end) bracket the run so replay
  // (src/recovery) can tell runs apart in a shared log and rebuild the
  // cluster shape without the trace in hand.
  obs::DecisionLog* const decisions = options.decisions;
  if (decisions != nullptr) {
    decisions->entry("sim_start")
        .num("t", now)
        .integer("jobs", static_cast<std::int64_t>(n))
        .integer("machines", options.cluster.num_machines)
        .integer("gpus", engine.cluster().total_gpus())
        .num("interval", options.schedule_interval)
        .num("restart_penalty", options.restart_penalty);
  }

  TimeWeightedAverage queue_avg;
  TimeWeightedAverage blocking_avg;
  TimeWeightedAverage running_avg;
  TimeWeightedAverage width_avg;
  TimeWeightedAverage rate_avg;
  TimeWeightedAverage gamma_avg;
  std::array<TimeWeightedAverage, kNumResources> util_avg;
  SeriesRecorder queue_series;
  SeriesRecorder blocking_series;
  std::array<SeriesRecorder, kNumResources> util_series;
  result.jcts.reserve(n);

  const auto observe_metrics = [&] {
    const EngineSample s = engine.sample();
    queue_avg.observe(now, s.queued);
    blocking_avg.observe(now, s.blocking);
    running_avg.observe(now, s.running);
    if (s.grouped > 0) gamma_avg.observe(now, s.mean_gamma);
    if (s.running > 0) {
      rate_avg.observe(now, s.mean_rate);
      width_avg.observe(now, s.mean_width);
    }
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      util_avg[r].observe(now, s.utilization[r]);
    }
    if (options.record_series) {
      queue_series.record(now, s.queued);
      blocking_series.record(now, s.blocking);
      for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
        util_series[r].record(now, s.utilization[r]);
      }
    }
  };

  // Main event loop. At one instant: progress, then arrivals, machine
  // events, job faults, completions, and last the round.
  int stall_rounds = 0;
  bool dirty = true;
  observe_metrics();
  while (result.jcts.size() < n) {
    const Time t_arrival =
        next_arrival < n ? trace.jobs[arrival_order[next_arrival]].submit_time
                         : kInf;
    const Time t_round =
        dirty ? std::max(now, last_round + options.schedule_interval) : kInf;
    Time t_next = std::min({t_arrival, engine.next_finish_time(), t_round,
                            injector.next_time(),
                            monitor.next_probation_end()});
    if (t_next == kInf) {
      // No arrivals, no running jobs, nothing dirty — but jobs remain:
      // force a scheduling round (should not happen in practice).
      dirty = true;
      t_next = now;
    }
    if (options.max_time > 0 && t_next > options.max_time) {
      now = options.max_time;
      break;
    }

    engine.progress_to(t_next);
    now = t_next;

    while (next_arrival < n &&
           trace.jobs[arrival_order[next_arrival]].submit_time <= now) {
      engine.arrive(trace.jobs[arrival_order[next_arrival]], now);
      dirty = true;
      ++next_arrival;
    }

    // Machine fault domain events: crashes evict and requeue every
    // resident job; repairs return the machine to the pool unless the
    // worker monitor holds it on probation; straggler windows inflate the
    // periods of resident jobs.
    if (injector.enabled()) {
      for (const FaultEvent& e : injector.pop_until(now)) {
        switch (e.kind) {
          case FaultEvent::Kind::kMachineDown:
            monitor.on_failure(e.machine, now);
            engine.machine_down(e.machine);
            dirty = true;
            break;
          case FaultEvent::Kind::kMachineUp:
            monitor.on_recovery(e.machine, now);
            engine.machine_up(e.machine);
            if (monitor.schedulable(e.machine)) {
              engine.rejoin(e.machine);
              dirty = true;
            }
            break;
          case FaultEvent::Kind::kStragglerStart:
            monitor.on_straggler(e.machine, true);
            engine.straggler_start(e.machine, e.slowdown);
            break;
          case FaultEvent::Kind::kStragglerEnd:
            monitor.on_straggler(e.machine, false);
            engine.straggler_end(e.machine);
            break;
        }
      }
      // Machines whose probation expired rejoin the pool.
      for (MachineId m : monitor.end_probation(now)) {
        engine.rejoin(m);
        dirty = true;
      }
    }

    if (engine.fail_due_jobs()) dirty = true;
    for (const JctBreakdown& b : engine.complete_finished()) {
      result.jcts.push_back(b.jct_seconds);
      result.jct_breakdown.push_back(b);
      dirty = true;
    }
    if (dirty) engine.trace_busy_counters();

    if (dirty && now >= last_round + options.schedule_interval - 1e-9) {
      engine.run_round();
      last_round = now;
      // Keep rounds firing while jobs wait: time-varying priorities
      // (attained service, fairness deficits) must be able to preempt.
      const bool any_waiting = engine.active_jobs() > engine.running_jobs();
      const bool any_running = engine.running_jobs() > 0;
      dirty = any_waiting;
      // A queue that cannot be placed is only a scheduler bug when the
      // whole pool is up; with machines out, jobs legitimately wait for
      // repair or probation to end.
      if (any_waiting && !any_running && next_arrival >= n &&
          engine.cluster().available_machines() ==
              engine.cluster().num_machines()) {
        if (++stall_rounds >= 3) {
          MURI_LOG(kError) << scheduler.name()
                           << ": scheduler cannot place remaining jobs; "
                              "aborting simulation";
          break;
        }
      } else {
        stall_rounds = 0;
      }
    }

    observe_metrics();
  }

  // Close trace spans still open at the stop (max_time cutoffs, aborted
  // runs, machines that never came back).
  engine.close_trace(now);

  const EngineCounts counts = engine.counts();
  result.faults = counts.faults;
  result.restarts = counts.restarts;
  result.machine_failures = counts.machine_failures;
  result.evictions = counts.evictions;
  result.straggler_seconds = counts.straggler_seconds;
  result.degraded_group_seconds = counts.degraded_seconds;
  result.finished_jobs = static_cast<int>(result.jcts.size());
  result.unfinished_jobs = static_cast<int>(n - result.jcts.size());
  result.avg_jct = mean(result.jcts);
  result.p99_jct = percentile(result.jcts, 99.0);
  result.makespan = now - start_time;
  if (decisions != nullptr) {
    decisions->entry("sim_end")
        .num("t", now)
        .num("makespan", result.makespan)
        .integer("finished", result.finished_jobs)
        .integer("unfinished", result.unfinished_jobs);
  }
  result.avg_queue_length = queue_avg.finalize(now);
  result.avg_blocking_index = blocking_avg.finalize(now);
  for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
    result.avg_utilization[r] = util_avg[r].finalize(now);
  }
  if (options.record_series) {
    result.queue_series = queue_series.points();
    result.blocking_series = blocking_series.points();
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      result.util_series[r] = util_series[r].points();
    }
  }
  result.avg_running_jobs = running_avg.finalize(now);
  result.avg_group_width = width_avg.finalize(now);
  result.avg_normalized_rate = rate_avg.finalize(now);
  result.avg_group_gamma_predicted = gamma_avg.finalize(now);
  result.resource_busy_seconds = engine.resource_busy_seconds();
  const GammaAudit gamma = engine.audit_group_gamma();
  result.avg_group_gamma_realized = gamma.realized;
  result.avg_group_gamma_error = gamma.error;
  result.scheduler_invocations = engine.rounds_run();
  result.scheduler_wall_ms = engine.scheduler_wall_ms();
  result.profiler_sessions = engine.profiler().sessions();
  result.profiling_time = engine.profiler().profiling_time();
  return result;
}

}  // namespace muri
