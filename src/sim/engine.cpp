#include "sim/engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "job/model.h"
#include "obs/jobtrace.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace muri {

namespace {

// A job is done when its remaining iterations round to nothing; progress
// lands on finish instants, so the epsilon only absorbs float drift
// across many progress windows.
constexpr double kIterEps = 1e-6;
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* mode_name(GroupMode m) {
  switch (m) {
    case GroupMode::kExclusive:
      return "exclusive";
    case GroupMode::kInterleaved:
      return "interleaved";
    case GroupMode::kUncoordinated:
      return "uncoordinated";
  }
  return "uncoordinated";
}

std::int64_t to_us(Time t) { return static_cast<std::int64_t>(t * 1e6); }

bool in_flight(JobPhase phase) {
  return phase == JobPhase::kQueued || phase == JobPhase::kRunning;
}

bool iterations_done(double done, std::int64_t iterations) {
  return done >= static_cast<double>(iterations) - kIterEps;
}

Job job_from_spec(const JobSpec& spec, JobId id, Time submit_time) {
  Job job;
  job.id = id;
  job.model = spec.model;
  job.num_gpus = spec.num_gpus;
  job.submit_time = submit_time;
  job.iterations = spec.iterations;
  job.profile = model_profile(spec.model, spec.num_gpus);
  return job;
}

}  // namespace

const char* to_string(JobPhase phase) noexcept {
  switch (phase) {
    case JobPhase::kQueued:
      return "queued";
    case JobPhase::kRunning:
      return "running";
    case JobPhase::kFinished:
      return "finished";
    case JobPhase::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

Engine::Engine(Scheduler& scheduler, EngineOptions options, Time start)
    : scheduler_(scheduler),
      options_(std::move(options)),
      cluster_(options_.cluster),
      profiler_(options_.profiler),
      fault_rate_(options_.mtbf_hours > 0
                      ? 1.0 / (options_.mtbf_hours * 3600.0)
                      : 0.0),
      now_(start),
      machine_slow_(static_cast<size_t>(options_.cluster.num_machines),
                    ResourceVector{1.0, 1.0, 1.0, 1.0}),
      machine_down_since_(static_cast<size_t>(options_.cluster.num_machines),
                          kNoTime),
      machine_straggler_since_(
          static_cast<size_t>(options_.cluster.num_machines), kNoTime) {
  // Lifecycle accounting flows through a metrics registry: the caller's,
  // so a live scrape sees the counters move mid-run, or a private one.
  if (options_.metrics == nullptr) {
    private_registry_ = std::make_unique<obs::MetricsRegistry>();
  }
  obs::MetricsRegistry& registry = options_.metrics != nullptr
                                       ? *options_.metrics
                                       : *private_registry_;
  c_faults_ = &registry.counter("muri_sim_job_faults_total",
                                "Job-level faults reported to the scheduler");
  c_restarts_ = &registry.counter(
      "muri_sim_restarts_total",
      "Running jobs restarted by a group or placement change");
  c_machine_failures_ = &registry.counter("muri_sim_machine_failures_total",
                                          "Machine-down events observed");
  c_evictions_ = &registry.counter("muri_sim_evictions_total",
                                   "Jobs requeued by machine crashes");
  c_straggler_seconds_ =
      &registry.counter("muri_sim_straggler_seconds_total",
                        "Job-seconds run at straggler slowdown > 1");
  c_degraded_seconds_ =
      &registry.counter("muri_sim_degraded_group_seconds_total",
                        "Job-seconds run in a degraded group");
  // Realized per-resource busy seconds, attributed to the home machine of
  // the group that used them. busy_total_ keeps this engine's own totals,
  // so a registry shared across runs never leaks seconds between them.
  c_busy_.resize(static_cast<size_t>(options_.cluster.num_machines));
  for (int m = 0; m < options_.cluster.num_machines; ++m) {
    for (int r = 0; r < kNumResources; ++r) {
      c_busy_[static_cast<size_t>(m)][static_cast<size_t>(r)] =
          &registry.counter(
              "muri_resource_busy_seconds",
              "Realized busy seconds per home machine and resource",
              {{"machine", std::to_string(m)},
               {"resource",
                std::string(to_string(static_cast<Resource>(r)))}});
    }
  }
  s_gamma_realized_ = &registry.summary(
      "muri_group_gamma_realized",
      "Realized interleaving efficiency per retired multi-member group");
  s_gamma_error_ = &registry.summary(
      "muri_group_gamma_error",
      "Realized minus predicted gamma per retired multi-member group");
  s_job_queueing_ = &registry.summary(
      "muri_job_queueing_seconds", "Per-job wall seconds arrived but unplaced");
  s_job_running_ = &registry.summary(
      "muri_job_running_seconds", "Per-job wall seconds placed and progressing");
  s_job_restart_overhead_ = &registry.summary(
      "muri_job_restart_overhead_seconds",
      "Per-job wall seconds placed but stalled in a restart gate");
  s_job_preemptions_ = &registry.summary(
      "muri_job_preemptions",
      "Per-job placements lost to preemption or eviction");
  // Decision counters by cause, mirroring the provenance log's preempt/
  // evict records (incremented whether or not a log is attached).
  c_preempt_displaced_ = &registry.counter(
      "muri_decision_preemptions_total", "Preemptions by cause",
      {{"reason", "displaced"}});
  c_preempt_machine_ = &registry.counter(
      "muri_decision_preemptions_total", "Preemptions by cause",
      {{"reason", "machine_down"}});
  base_.faults = c_faults_->value();
  base_.restarts = c_restarts_->value();
  base_.machine_failures = c_machine_failures_->value();
  base_.evictions = c_evictions_->value();
  base_.straggler_seconds = c_straggler_seconds_->value();
  base_.degraded_seconds = c_degraded_seconds_->value();

  if (options_.decisions != nullptr && scheduler_.decision_log() == nullptr) {
    scheduler_.set_decision_log(options_.decisions);
  }
  // The jobtrace gate arithmetic must match ready_at exactly.
  if (options_.jobtrace != nullptr) {
    options_.jobtrace->set_restart_penalty(options_.restart_penalty);
    if (options_.metrics != nullptr) {
      options_.jobtrace->set_metrics(options_.metrics);
    }
  }
  // Several runs may share one tracer (bench tables); the epoch separates
  // their overlapping sim-time windows and reused job/group ids.
  if (obs::Tracer* tracer = options_.tracer; tracer != nullptr) {
    run_epoch_ = static_cast<double>(tracer->begin_run_epoch());
    tracer->set_manual_seconds(now_);
    tracer->name_track(obs::kSchedulerTrack, "scheduler");
    for (int m = 0; m < options_.cluster.num_machines; ++m) {
      tracer->name_track(obs::machine_track(m), "machine " + std::to_string(m));
    }
  }
}

Engine::~Engine() = default;

Engine::JobRecord* Engine::find(JobId id) {
  if (id < 0 || static_cast<size_t>(id) >= jobs_.size()) return nullptr;
  JobRecord& rec = jobs_[static_cast<size_t>(id)];
  return rec.job.id == id ? &rec : nullptr;
}

const Engine::JobRecord* Engine::find(JobId id) const {
  return const_cast<Engine*>(this)->find(id);
}

void Engine::mark_dirty(JobId id) { dirty_jobs_.push_back(id); }

// ---------------------------------------------------------------------------
// Admission and cancellation.

void Engine::admit(JobRecord rec, Time now, bool restored) {
  const JobId id = rec.job.id;
  rec.measured = profiler_.profile(rec.job);
  if (fault_rate_ > 0) {
    rec.fault_rng = std::make_unique<Rng>(
        substream_seed(options_.fault_seed, static_cast<std::uint64_t>(id)));
  }
  if (static_cast<size_t>(id) >= jobs_.size()) {
    jobs_.resize(static_cast<size_t>(id) + 1);
  }
  JobRecord& s = jobs_[static_cast<size_t>(id)] = std::move(rec);
  if (active_.empty() || active_.back() < id) {
    active_.push_back(id);
  } else {
    active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  }
  mark_dirty(id);
  queue_changed_ = true;
  job_instant(s, "submit");
  if (options_.jobtrace != nullptr) {
    options_.jobtrace->submitted(id, now, restored);
  }
}

void Engine::arrive(const Job& job, Time now) {
  JobRecord rec;
  rec.job = job;
  if (options_.decisions != nullptr) {
    options_.decisions->entry("arrival")
        .num("t", now)
        .integer("job", job.id)
        .integer("gpus", job.num_gpus);
  }
  admit(std::move(rec), now, /*restored=*/false);
}

void Engine::submit(const JobSpec& spec, JobId id, Time now) {
  JobRecord rec;
  rec.job = job_from_spec(spec, id, now);
  rec.name = spec.name;
  rec.deadline_s = spec.deadline_s;
  if (options_.decisions != nullptr) {
    auto e = options_.decisions->entry("job_submit");
    e.num("t", now)
        .integer("job", id)
        .str("model", muri::to_string(spec.model))
        .integer("gpus", spec.num_gpus)
        .integer("iterations", spec.iterations);
    if (!spec.name.empty()) e.str("name", spec.name);
  }
  admit(std::move(rec), now, /*restored=*/false);
}

void Engine::restore(const JobSpec& spec, JobId id, Time original_submit,
                     double done_iterations, Time now) {
  JobRecord rec;
  rec.job = job_from_spec(spec, id, original_submit);
  rec.name = spec.name;
  rec.deadline_s = spec.deadline_s;
  rec.done_iterations =
      std::min(done_iterations, static_cast<double>(spec.iterations));
  if (options_.decisions != nullptr) {
    options_.decisions->entry("job_restore")
        .num("t", now)
        .integer("job", id)
        .num("done", done_iterations);
  }
  // The timeline opens at the restore instant: pre-crash spans are gone,
  // so the job is marked restored and its buckets cover the resumed era.
  admit(std::move(rec), now, /*restored=*/true);
}

bool Engine::cancel(JobId id, Time now, const char* reason) {
  JobRecord* rec = find(id);
  if (rec == nullptr || !in_flight(rec->phase)) return false;
  if (rec->phase == JobPhase::kRunning) {
    end_run_span(*rec);
    leave_group(*rec);
    stop_running(*rec);
  }
  rec->phase = JobPhase::kCancelled;
  rec->end_time = now;
  active_.erase(std::lower_bound(active_.begin(), active_.end(), id));
  mark_dirty(id);
  queue_changed_ = true;
  if (options_.decisions != nullptr) {
    options_.decisions->entry("job_cancel")
        .num("t", now)
        .integer("job", id)
        .str("reason", reason);
  }
  if (options_.jobtrace != nullptr) options_.jobtrace->cancelled(id, now);
  return true;
}

void Engine::stop_running(JobRecord& s) {
  s.phase = JobPhase::kQueued;
  s.period = 0;
  s.key = GroupKey{};
  s.owner = kNoOwner;
  s.straggler_factor = 1.0;
  s.degraded = false;
  s.group_id = -1;
  s.acct = nullptr;
  --running_;
}

void Engine::leave_group(JobRecord& s) {
  if (s.owner == kNoOwner) return;
  const auto it = running_groups_.find(s.owner);
  if (it != running_groups_.end()) {
    auto& members = it->second.members;
    members.erase(std::remove(members.begin(), members.end(), s.job.id),
                  members.end());
    if (members.empty()) running_groups_.erase(it);
  }
  s.owner = kNoOwner;
}

// ---------------------------------------------------------------------------
// Progress, faults and completions.

void Engine::progress_to(Time t) {
  if (t <= now_) return;
  const Duration dt = t - now_;
  for (JobId id : active_) {
    JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning) continue;
    s.ran_wall += dt;
    const Time start = std::max(now_, s.ready_at);
    const Duration effective = t > start && s.period > 0 ? t - start : 0.0;
    s.restart_overhead += dt - effective;
    if (effective > 0) {
      const double iters = effective / (s.period * s.straggler_factor);
      s.done_iterations = std::min(s.done_iterations + iters,
                                   static_cast<double>(s.job.iterations));
      s.attained_gpu_seconds += effective * static_cast<double>(s.job.num_gpus);
      if (s.straggler_factor > 1.0) c_straggler_seconds_->inc(effective);
      if (s.degraded) c_degraded_seconds_->inc(effective);
      // Realized busy attribution: progressing at 1/(period·straggler)
      // iterations per second, the job occupies resource r for t^r
      // seconds per iteration. Credited to the group account and to the
      // home machine's busy counters.
      if (s.acct != nullptr && std::isfinite(s.period)) {
        size_t m = s.acct->machine >= 0 ? static_cast<size_t>(s.acct->machine)
                                        : 0;
        if (m >= c_busy_.size()) m = 0;
        for (int r = 0; r < kNumResources; ++r) {
          const auto ri = static_cast<size_t>(r);
          const double db = iters * s.job.profile.stage_time[ri];
          if (db <= 0) continue;
          s.acct->busy[ri] += db;
          busy_total_[ri] += db;
          c_busy_[m][ri]->inc(db);
        }
      }
    }
    if (s.acct != nullptr) s.acct->window_end = t;
  }
  now_ = t;
  if (options_.tracer != nullptr) options_.tracer->set_manual_seconds(now_);
}

Time Engine::projected_finish(const JobRecord& s) const {
  if (s.phase != JobPhase::kRunning || s.period <= 0) return kInf;
  const double remaining =
      static_cast<double>(s.job.iterations) - s.done_iterations;
  if (remaining <= kIterEps) return now_;
  return std::max(now_, s.ready_at) +
         remaining * s.period * s.straggler_factor;
}

Time Engine::next_finish_time() const {
  Time next = kInf;
  for (JobId id : active_) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning) continue;
    next = std::min(next, projected_finish(s));
    if (fault_rate_ > 0) next = std::min(next, s.next_fault);
  }
  return next;
}

bool Engine::fail_due_jobs() {
  if (fault_rate_ <= 0) return false;
  // The executor reports the failure and the job goes back to the queue
  // (progress checkpointed at iteration granularity). The surviving
  // members of its group continue at once as a re-planned degraded group.
  bool any = false;
  for (JobId id : active_) {
    JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning || now_ < s.next_fault ||
        iterations_done(s.done_iterations, s.job.iterations)) {
      continue;
    }
    const OwnerId owner = s.owner;
    job_instant(s, "fault");
    if (options_.decisions != nullptr) {
      options_.decisions->entry("fault")
          .num("t", now_)
          .integer("job", id)
          .str("reason", "job_fault");
    }
    if (options_.jobtrace != nullptr) {
      options_.jobtrace->faulted(id, now_, round_id_);
    }
    end_run_span(s);
    stop_running(s);
    s.next_fault = kInf;
    c_faults_->inc();
    mark_dirty(id);
    queue_changed_ = true;
    any = true;
    const auto it = running_groups_.find(owner);
    if (it == running_groups_.end()) continue;
    auto& members = it->second.members;
    members.erase(std::remove(members.begin(), members.end(), id),
                  members.end());
    if (members.empty()) {
      cluster_.release(owner);
      running_groups_.erase(it);
    } else {
      replan_degraded(it->second);
    }
  }
  return any;
}

JctBreakdown Engine::finish(JobRecord& s) {
  job_instant(s, "finish");
  end_run_span(s);
  s.phase = JobPhase::kFinished;
  s.end_time = now_;
  s.period = 0;
  s.group_id = -1;
  s.acct = nullptr;
  --running_;
  // Leave the group registry so a later machine crash or partner fault
  // no longer involves this job.
  leave_group(s);
  JctBreakdown b;
  b.job = s.job.id;
  b.jct_seconds = now_ - s.job.submit_time;
  b.restart_overhead_seconds = s.restart_overhead;
  b.running_seconds = s.ran_wall - s.restart_overhead;
  b.queueing_seconds = std::max(b.jct_seconds - s.ran_wall, 0.0);
  b.preemptions = s.preemptions;
  s_job_queueing_->observe(b.queueing_seconds);
  s_job_running_->observe(b.running_seconds);
  s_job_restart_overhead_->observe(b.restart_overhead_seconds);
  s_job_preemptions_->observe(static_cast<double>(b.preemptions));
  if (options_.decisions != nullptr) {
    options_.decisions->entry("finish")
        .num("t", now_)
        .integer("job", b.job)
        .num("jct", b.jct_seconds)
        .num("queueing", b.queueing_seconds)
        .num("running", b.running_seconds)
        .num("restart_overhead", b.restart_overhead_seconds)
        .integer("preemptions", b.preemptions);
  }
  if (options_.jobtrace != nullptr) {
    options_.jobtrace->finished(b.job, now_, b.jct_seconds);
  }
  if (options_.observer != nullptr) {
    options_.observer->on_job_finish(now_, b.jct_seconds);
  }
  mark_dirty(b.job);
  queue_changed_ = true;
  return b;
}

std::vector<JctBreakdown> Engine::complete_finished() {
  std::vector<JctBreakdown> finished;
  size_t kept = 0;
  for (const JobId id : active_) {
    JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase == JobPhase::kRunning &&
        iterations_done(s.done_iterations, s.job.iterations)) {
      finished.push_back(finish(s));
    } else {
      active_[kept++] = id;
    }
  }
  active_.resize(kept);
  return finished;
}

void Engine::advance_to(Time t) {
  while (t > now_) {
    const Time step_end = std::min(t, std::max(next_finish_time(), now_));
    const bool moved = step_end > now_;
    progress_to(step_end);
    const bool faulted = fail_due_jobs();
    const bool finished = !complete_finished().empty();
    // A zero-length step that retired nothing cannot make progress.
    if (!moved && !faulted && !finished) {
      progress_to(t);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Machine fault domains.

double Engine::straggler_factor_for(
    const Job& job, const std::vector<MachineId>& machines) const {
  ResourceVector f{1.0, 1.0, 1.0, 1.0};
  bool any = false;
  for (MachineId m : machines) {
    const ResourceVector& slow = machine_slow_[static_cast<size_t>(m)];
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      f[r] = std::max(f[r], slow[r]);
      any = any || slow[r] > 1.0;
    }
  }
  if (!any) return 1.0;
  double num = 0, den = 0;
  for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
    num += job.profile.stage_time[r] * f[r];
    den += job.profile.stage_time[r];
  }
  return den > 0 ? num / den : 1.0;
}

void Engine::refresh_straggler_factors() {
  for (const auto& [owner, group] : running_groups_) {
    for (JobId id : group.members) {
      JobRecord& s = jobs_[static_cast<size_t>(id)];
      if (s.phase != JobPhase::kRunning) continue;
      const double f = straggler_factor_for(s.job, group.machines);
      if (f == s.straggler_factor) continue;
      // The factor scales the busy fractions stamped on the run-stage
      // span, so a change cycles the span to keep them piecewise constant.
      const MachineId m = s.run_machine;
      end_run_span(s);
      s.straggler_factor = f;
      begin_run_span(s, m);
      if (options_.decisions != nullptr) {
        options_.decisions->entry("straggler")
            .num("t", now_)
            .integer("job", id)
            .num("factor", f);
      }
      if (options_.jobtrace != nullptr) {
        options_.jobtrace->straggler(id, now_, f);
      }
    }
  }
}

void Engine::machine_down(MachineId m) {
  const auto mi = static_cast<size_t>(m);
  obs::Tracer* const tracer = options_.tracer;
  c_machine_failures_->inc();
  if (options_.decisions != nullptr) {
    options_.decisions->entry("machine_down")
        .num("t", now_)
        .integer("machine", static_cast<std::int64_t>(m));
  }
  if (machine_straggler_since_[mi] != kNoTime && tracer != nullptr) {
    // A crash closes any open straggler window (the injector emits
    // kStragglerEnd first, but belt and braces).
    tracer->complete(to_us(machine_straggler_since_[mi]),
                     to_us(now_) - to_us(machine_straggler_since_[mi]),
                     "straggler", "fault", obs::machine_track(m), 0);
  }
  machine_straggler_since_[mi] = kNoTime;
  machine_down_since_[mi] = now_;
  machine_slow_[mi] = ResourceVector{1.0, 1.0, 1.0, 1.0};
  for (auto it = running_groups_.begin(); it != running_groups_.end();) {
    const std::vector<MachineId>& machines = it->second.machines;
    if (std::find(machines.begin(), machines.end(), m) == machines.end()) {
      ++it;
      continue;
    }
    for (JobId id : it->second.members) {
      JobRecord& s = jobs_[static_cast<size_t>(id)];
      if (s.phase != JobPhase::kRunning) continue;
      job_instant(s, "evict");
      c_preempt_machine_->inc();
      if (options_.decisions != nullptr) {
        options_.decisions->entry("evict")
            .num("t", now_)
            .integer("job", id)
            .integer("machine", static_cast<std::int64_t>(m))
            .str("reason", "machine_down");
      }
      if (options_.jobtrace != nullptr) {
        options_.jobtrace->faulted(id, now_, round_id_);
      }
      end_run_span(s);
      stop_running(s);
      s.next_fault = kInf;
      ++s.preemptions;
      c_evictions_->inc();
      mark_dirty(id);
      queue_changed_ = true;
    }
    cluster_.release(it->first);
    it = running_groups_.erase(it);
  }
  cluster_.set_machine_available(m, false);
}

void Engine::machine_up(MachineId m) {
  const auto mi = static_cast<size_t>(m);
  if (options_.decisions != nullptr) {
    options_.decisions->entry("machine_up")
        .num("t", now_)
        .integer("machine", static_cast<std::int64_t>(m));
  }
  if (machine_down_since_[mi] != kNoTime && options_.tracer != nullptr) {
    options_.tracer->complete(to_us(machine_down_since_[mi]),
                              to_us(now_) - to_us(machine_down_since_[mi]),
                              "down", "fault", obs::machine_track(m), 0);
  }
  machine_down_since_[mi] = kNoTime;
}

void Engine::rejoin(MachineId m) { cluster_.set_machine_available(m, true); }

void Engine::straggler_start(MachineId m, const ResourceVector& slowdown) {
  machine_straggler_since_[static_cast<size_t>(m)] = now_;
  machine_slow_[static_cast<size_t>(m)] = slowdown;
  refresh_straggler_factors();
}

void Engine::straggler_end(MachineId m) {
  const auto mi = static_cast<size_t>(m);
  if (machine_straggler_since_[mi] != kNoTime && options_.tracer != nullptr) {
    const ResourceVector& slow = machine_slow_[mi];
    options_.tracer->complete(
        to_us(machine_straggler_since_[mi]),
        to_us(now_) - to_us(machine_straggler_since_[mi]), "straggler",
        "fault", obs::machine_track(m), 0,
        obs::TraceArgs("storage", slow[0], "cpu", slow[1], "gpu", slow[2],
                       "network", slow[3]));
  }
  machine_straggler_since_[mi] = kNoTime;
  machine_slow_[mi] = ResourceVector{1.0, 1.0, 1.0, 1.0};
  refresh_straggler_factors();
}

// ---------------------------------------------------------------------------
// Scheduling rounds.

Engine::GroupAccount* Engine::new_account(std::int64_t& gid) {
  group_accounts_.emplace_back();
  gid = static_cast<std::int64_t>(group_accounts_.size());
  return &group_accounts_.back();
}

void Engine::replan_degraded(RunningGroup& g) {
  // No rotation schedule survives a member loss: the survivors run under
  // the degraded rules (sim/exec_model) — fresh best-order plan for an
  // interleaved remnant, uncoordinated sharing otherwise, exclusive for a
  // lone survivor — on the same GPU set, instead of stalling until the
  // next round (the barrier-deadlock scenario in a live executor).
  const auto p = g.members.size();
  std::vector<IterationProfile> profiles;
  profiles.reserve(p);
  int max_gpus = 0, min_gpus = std::numeric_limits<int>::max();
  for (JobId id : g.members) {
    const Job& job = jobs_[static_cast<size_t>(id)].job;
    profiles.push_back(job.profile);
    max_gpus = std::max(max_gpus, job.num_gpus);
    min_gpus = std::min(min_gpus, job.num_gpus);
  }
  const GroupExecution ex =
      compute_group_execution(profiles, g.mode, max_gpus, min_gpus, {}, {},
                              0, /*degraded=*/true, options_);
  g.mode = ex.effective_mode;
  if (g.mode == GroupMode::kInterleaved && p > 1) {
    for (JobId id : g.members) {
      jobs_[static_cast<size_t>(id)].group_gamma = ex.gamma_pred;
    }
  }

  GroupKey key;
  key.members = g.members;
  std::sort(key.members.begin(), key.members.end());
  key.mode = g.mode;
  key.num_gpus = g.num_gpus;

  // The degraded continuation is a fresh incarnation: same GPU set, new
  // configuration. Survivors keep their old restart gate.
  const MachineId home =
      g.machines.empty() ? kInvalidMachine : g.machines.front();
  std::int64_t gid = 0;
  GroupAccount* const acct = new_account(gid);
  acct->machine = home;
  acct->size = static_cast<int>(p);
  acct->mode = g.mode;
  acct->degraded = true;
  acct->gamma_predicted = ex.gamma_pred;
  acct->window_start = now_;
  acct->window_end = now_;
  for (JobId id : g.members) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    acct->ready_at = std::max(acct->ready_at, s.ready_at);
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      if (s.job.profile.stage_time[r] > 0) acct->active[r] = true;
    }
  }

  for (size_t i = 0; i < p; ++i) {
    JobRecord& s = jobs_[static_cast<size_t>(g.members[i])];
    // A survivor's configuration changed: close its run-stage span and
    // open the degraded continuation on the same machine track.
    end_run_span(s);
    s.period = ex.periods[i];
    s.key = key;
    s.degraded = true;
    s.group_id = gid;
    s.acct = acct;
    begin_run_span(s, home);
  }
  if (options_.decisions != nullptr) {
    options_.decisions->entry("degraded_continue")
        .num("t", now_)
        .ids("jobs", g.members)
        .num("gamma", ex.gamma_pred)
        .str("mode", mode_name(g.mode));
  }
  if (options_.jobtrace != nullptr) {
    for (JobId id : g.members) {
      options_.jobtrace->degraded_continue(id, now_, round_id_, g.members,
                                           ex.gamma_pred, mode_name(g.mode));
    }
  }
}

void Engine::run_round() {
  ++rounds_;
  queue_changed_ = false;
  const Time now = now_;
  obs::DecisionLog* const decisions = options_.decisions;
  obs::JobTraceLog* const jobtrace = options_.jobtrace;

  // Start-deadline enforcement (the admission exemplar's semantics): a
  // job still never scheduled past its deadline is cancelled up front so
  // the scheduler does not plan around it.
  std::vector<JobId> overdue;
  for (JobId id : active_) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase == JobPhase::kQueued && s.deadline_s > 0 &&
        s.first_scheduled < 0 && now - s.job.submit_time > s.deadline_s) {
      overdue.push_back(id);
    }
  }
  for (JobId id : overdue) cancel(id, now, "start_deadline");

  std::vector<JobView> queue;
  queue.reserve(active_.size());
  for (JobId id : active_) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    JobView v;
    v.id = id;
    v.num_gpus = s.job.num_gpus;
    v.submit_time = s.job.submit_time;
    v.measured = s.measured;
    v.attained_service = s.attained_gpu_seconds;
    v.age = now - s.job.submit_time;
    v.remaining_time = options_.durations_known ? s.remaining_solo() : 0.0;
    v.running = s.phase == JobPhase::kRunning;
    queue.push_back(std::move(v));
  }
  SchedulerContext ctx;
  ctx.now = now;
  ctx.total_gpus = cluster_.total_gpus();
  ctx.gpus_per_machine = options_.cluster.gpus_per_machine;
  ctx.durations_known = options_.durations_known;
  // Failed and blacklisted machines are out of the allocatable pool.
  ctx.available_gpus = cluster_.available_gpus();
  // The lifecycle delta since the previous round. A job can appear more
  // than once (evicted then re-faulted): dedupe so the count means "jobs
  // changed", and sort so the set is deterministic for round_start.
  std::sort(dirty_jobs_.begin(), dirty_jobs_.end());
  dirty_jobs_.erase(std::unique(dirty_jobs_.begin(), dirty_jobs_.end()),
                    dirty_jobs_.end());
  ctx.dirty_jobs = &dirty_jobs_;

  const auto t_schedule = std::chrono::steady_clock::now();
  const std::vector<PlannedGroup> plan = scheduler_.schedule(queue, ctx);
  const auto t_place = std::chrono::steady_clock::now();
  scheduler_wall_ms_ +=
      std::chrono::duration<double, std::milli>(t_place - t_schedule).count();

  // The round id cross-links into the decision log (and equals the round
  // ordinal when no log is wired, so trace and jobtrace are byte-identical
  // either way for the same run).
  round_id_ = decisions != nullptr ? decisions->current_round() : rounds_;
  if (options_.tracer != nullptr) {
    options_.tracer->instant_at(
        to_us(now), "round", "sched", obs::kSchedulerTrack, 0,
        obs::TraceArgs("queue", static_cast<double>(queue.size()), "groups",
                       static_cast<double>(plan.size()), "round",
                       static_cast<double>(round_id_)));
  }
  // Displacements recorded while placing belong to the next round's delta.
  dirty_jobs_.clear();
  apply_plan(plan);

  // Post-round wait verdicts: classify every job the plan left queued,
  // identically in the jobtrace events and the decision log's "wait"
  // record (ids ascending).
  if (jobtrace != nullptr || decisions != nullptr) {
    const std::vector<JobId>& deferred = scheduler_.last_deferred();
    const int capacity = ctx.capacity();
    std::vector<std::int64_t> wait_ids;
    std::vector<std::string> wait_buckets;
    for (JobId id : active_) {
      const JobRecord& s = jobs_[static_cast<size_t>(id)];
      if (s.phase != JobPhase::kQueued) continue;
      const bool was_deferred =
          std::binary_search(deferred.begin(), deferred.end(), id);
      const obs::SpanKind bucket =
          obs::classify_wait(was_deferred, s.job.num_gpus, capacity);
      if (jobtrace != nullptr) {
        jobtrace->wait_verdict(id, now, round_id_, bucket);
      }
      if (decisions != nullptr) {
        wait_ids.push_back(id);
        wait_buckets.emplace_back(obs::span_kind_name(bucket));
      }
    }
    if (decisions != nullptr && !wait_ids.empty()) {
      decisions->entry("wait")
          .num("t", now)
          .ids("job", wait_ids)
          .strs("bucket", wait_buckets);
    }
  }

  if (options_.observer != nullptr) {
    const auto t_end = std::chrono::steady_clock::now();
    options_.observer->on_round(
        now, std::chrono::duration<double>(t_place - t_schedule).count(),
        std::chrono::duration<double>(t_end - t_place).count());
  }
}

void Engine::apply_plan(const std::vector<PlannedGroup>& plan) {
  const Time now = now_;
  obs::DecisionLog* const decisions = options_.decisions;
  cluster_.reset();
  running_groups_.clear();
  struct Admitted {
    GroupKey key;
    const PlannedGroup* group;
    OwnerId owner;
  };
  std::vector<Admitted> admitted;
  OwnerId next_owner = 1;

  // Place the plan in order; a member already placed this round makes its
  // group invalid.
  for (const PlannedGroup& g : plan) {
    if (g.members.empty()) continue;
    bool valid = true;
    int max_gpus = 0;
    for (JobId id : g.members) {
      const JobRecord* s = find(id);
      if (s == nullptr || !in_flight(s->phase) ||
          s->placed_round == rounds_) {
        valid = false;
        break;
      }
      max_gpus = std::max(max_gpus, s->job.num_gpus);
    }
    if (!valid || g.num_gpus < max_gpus) {
      if (decisions != nullptr) {
        decisions->entry("placement_skip")
            .num("t", now)
            .ids("jobs", g.members)
            .integer("gpus", g.num_gpus)
            .str("reason", "invalid");
      }
      continue;
    }
    if (!cluster_.can_allocate(g.num_gpus)) {
      if (decisions != nullptr) {
        decisions->entry("placement_skip")
            .num("t", now)
            .ids("jobs", g.members)
            .integer("gpus", g.num_gpus)
            .str("reason", "no_capacity")
            .integer("available_gpus", cluster_.free_gpus());
      }
      continue;
    }
    const OwnerId owner = next_owner++;
    RunningGroup rg;
    rg.members = g.members;
    rg.mode = g.mode;
    rg.num_gpus = g.num_gpus;
    for (GpuId gpu : cluster_.allocate(owner, g.num_gpus)) {
      const MachineId m = cluster_.machine_of(gpu);
      if (rg.machines.empty() || rg.machines.back() != m) {
        rg.machines.push_back(m);
      }
    }
    if (decisions != nullptr) {
      const std::vector<int> machine_ids(rg.machines.begin(),
                                         rg.machines.end());
      decisions->entry("placement")
          .num("t", now)
          .ids("jobs", g.members)
          .integer("gpus", g.num_gpus)
          .str("mode", mode_name(g.mode))
          .ints("machines", machine_ids)
          .integer("owner", static_cast<std::int64_t>(owner));
    }
    if (options_.jobtrace != nullptr) {
      for (JobId id : g.members) {
        options_.jobtrace->placed(id, now, round_id_, g.members,
                                  g.predicted_gamma, mode_name(g.mode));
      }
    }
    running_groups_.emplace(owner, std::move(rg));

    GroupKey key;
    key.members = g.members;
    std::sort(key.members.begin(), key.members.end());
    key.mode = g.mode;
    key.num_gpus = g.num_gpus;
    for (JobId id : g.members) {
      jobs_[static_cast<size_t>(id)].placed_round = rounds_;
    }
    admitted.push_back({std::move(key), &g, owner});
  }

  // Compute execution periods and start or continue the members.
  for (const auto& [key, group, owner] : admitted) {
    const auto p = group->members.size();
    std::vector<IterationProfile> true_profiles;
    true_profiles.reserve(p);
    int max_gpus = 0, min_gpus = std::numeric_limits<int>::max();
    for (JobId id : group->members) {
      const Job& job = jobs_[static_cast<size_t>(id)].job;
      true_profiles.push_back(job.profile);
      max_gpus = std::max(max_gpus, job.num_gpus);
      min_gpus = std::min(min_gpus, job.num_gpus);
    }
    // The shared execution model (sim/exec_model) runs the scheduler's
    // rotation schedule against the ground-truth profiles.
    const GroupExecution ex = compute_group_execution(
        true_profiles, group->mode, max_gpus, min_gpus, group->slots,
        group->offsets, group->planned_period, /*degraded=*/false, options_);
    if (group->mode == GroupMode::kInterleaved && p > 1) {
      for (JobId id : group->members) {
        jobs_[static_cast<size_t>(id)].group_gamma = ex.gamma_pred;
      }
    }

    const std::vector<MachineId>& machines =
        running_groups_.at(owner).machines;
    const MachineId home =
        machines.empty() ? kInvalidMachine : machines.front();

    // An unchanged group (same members, mode, GPUs, every member still
    // running under the same key) keeps its incarnation; anything else
    // opens a new one.
    bool group_unchanged = true;
    for (JobId id : group->members) {
      const JobRecord& s = jobs_[static_cast<size_t>(id)];
      group_unchanged =
          group_unchanged && s.phase == JobPhase::kRunning && s.key == key;
    }
    std::int64_t gid = 0;
    GroupAccount* acct = nullptr;
    if (group_unchanged) {
      const JobRecord& first = jobs_[static_cast<size_t>(group->members[0])];
      gid = first.group_id;
      acct = first.acct;
      // Attribution follows the placement if the unchanged group moved.
      if (acct != nullptr) acct->machine = home;
    } else {
      acct = new_account(gid);
      acct->machine = home;
      acct->size = static_cast<int>(p);
      acct->mode = group->mode;
      acct->gamma_predicted = ex.gamma_pred;
      acct->window_start = now;
      acct->window_end = now;
      acct->ready_at = now + options_.restart_penalty;
      for (JobId id : group->members) {
        const Job& job = jobs_[static_cast<size_t>(id)].job;
        for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
          if (job.profile.stage_time[r] > 0) acct->active[r] = true;
        }
      }
    }

    for (size_t i = 0; i < p; ++i) {
      const JobId id = group->members[i];
      JobRecord& s = jobs_[static_cast<size_t>(id)];
      const bool running = s.phase == JobPhase::kRunning;
      const bool unchanged = running && s.key == key;
      const double strag = straggler_factor_for(s.job, machines);
      if (!unchanged) {
        if (running) {
          c_restarts_->inc();
          job_instant(s, "restart");
          if (decisions != nullptr) {
            decisions->entry("restart")
                .num("t", now)
                .integer("job", id)
                .str("reason", "regrouped");
          }
          end_run_span(s);
        } else {
          ++running_;
        }
        s.key = key;
        s.ready_at = now + options_.restart_penalty;
        s.next_fault =
            fault_rate_ > 0 ? now + s.fault_rng->exponential(fault_rate_)
                            : kInf;
        if (s.first_scheduled < 0) {
          s.first_scheduled = now;
          if (options_.observer != nullptr) {
            options_.observer->on_first_schedule(now,
                                                 now - s.job.submit_time);
          }
        }
      } else if (s.run_since != kNoTime &&
                 (s.period != ex.periods[i] || s.straggler_factor != strag ||
                  s.run_machine != home || s.degraded)) {
        // Same configuration key but drifted execution parameters
        // (recomputed period, straggler factor, machine move, or a
        // degraded continuation re-admitted): cycle the run-stage span so
        // the busy fractions stamped on it stay constant over its window.
        end_run_span(s);
      }
      if (strag != s.straggler_factor) {
        // The factor a placement realizes differs from the job's last
        // known one (first placement onto a straggling machine, or an
        // unchanged group whose machines drifted between rounds).
        if (decisions != nullptr) {
          decisions->entry("straggler")
              .num("t", now)
              .integer("job", id)
              .num("factor", strag);
        }
        if (options_.jobtrace != nullptr) {
          options_.jobtrace->straggler(id, now, strag);
        }
      }
      s.period = ex.periods[i];
      s.owner = owner;
      s.straggler_factor = strag;
      s.degraded = false;
      s.group_id = gid;
      s.acct = acct;
      s.phase = JobPhase::kRunning;
      if (s.run_since == kNoTime) begin_run_span(s, home);
    }
  }

  // Jobs not in the admitted plan are preempted back to the queue.
  for (JobId id : active_) {
    JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning || s.placed_round == rounds_) continue;
    job_instant(s, "preempt");
    c_preempt_displaced_->inc();
    if (decisions != nullptr) {
      decisions->entry("preempt")
          .num("t", now)
          .integer("job", id)
          .str("reason", "displaced");
    }
    if (options_.jobtrace != nullptr) {
      options_.jobtrace->preempted(id, now, round_id_);
    }
    end_run_span(s);
    stop_running(s);
    ++s.preemptions;
    mark_dirty(id);
  }
  trace_busy_counters();
}

// ---------------------------------------------------------------------------
// Tracing.

void Engine::end_run_span(JobRecord& s) {
  obs::Tracer* const tracer = options_.tracer;
  if (tracer == nullptr || s.run_since == kNoTime) return;
  const int pid = obs::machine_track(s.run_machine >= 0 ? s.run_machine : 0);
  // Span cycling keeps (period, straggler factor, machine) constant over
  // each span, so one set of busy fractions describes its whole window:
  // resource r was occupied busy_<r> × (dur − overhead) seconds.
  // `overhead` is the restart-gate stall inside this span; `group` ties
  // the span to its group incarnation, `gamma_pred` is the schedule-time
  // γ the analysis layer compares realized utilization against.
  const Duration span_wall = now_ - s.run_since;
  const Duration span_overhead =
      std::clamp(s.ready_at - s.run_since, 0.0, span_wall);
  std::array<double, kNumResources> busy{};
  if (s.period > 0 && std::isfinite(s.period)) {
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      busy[r] = s.job.profile.stage_time[r] / (s.period * s.straggler_factor);
    }
  }
  obs::TraceArgs args("group_size", static_cast<double>(s.key.members.size()),
                      "gamma", s.group_gamma, "period", s.period, "degraded",
                      s.degraded ? 1.0 : 0.0);
  args.add("run", run_epoch_)
      .add("group", static_cast<double>(s.group_id))
      .add("gamma_pred", s.acct != nullptr ? s.acct->gamma_predicted : 0.0)
      .add("overhead", span_overhead)
      .add("busy_storage", busy[0])
      .add("busy_cpu", busy[1])
      .add("busy_gpu", busy[2])
      .add("busy_net", busy[3]);
  tracer->complete(to_us(s.run_since), to_us(now_) - to_us(s.run_since),
                   "run-stage", "job", pid, static_cast<int>(s.job.id), args);
  s.run_since = kNoTime;
  s.run_machine = kInvalidMachine;
}

void Engine::begin_run_span(JobRecord& s, MachineId machine) {
  if (options_.tracer == nullptr) return;
  s.run_since = now_;
  s.run_machine = machine;
  options_.tracer->name_lane(obs::machine_track(machine >= 0 ? machine : 0),
                             static_cast<int>(s.job.id),
                             "job " + std::to_string(s.job.id));
}

void Engine::job_instant(const JobRecord& s, const char* name) {
  if (options_.tracer == nullptr) return;
  const int pid = s.run_machine >= 0 ? obs::machine_track(s.run_machine)
                                     : obs::kSchedulerTrack;
  options_.tracer->instant_at(
      to_us(now_), name, "job", pid, static_cast<int>(s.job.id),
      obs::TraceArgs("job", static_cast<double>(s.job.id), "run", run_epoch_));
}

void Engine::trace_busy_counters() {
  obs::Tracer* const tracer = options_.tracer;
  if (tracer == nullptr) return;
  // The per-resource busy fractions of the jobs attributed to each
  // machine; counters hold their value between samples, so change points
  // suffice.
  std::vector<std::array<double, kNumResources>> density(
      static_cast<size_t>(options_.cluster.num_machines));
  for (JobId id : active_) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning || s.acct == nullptr) continue;
    if (!(s.period > 0) || !std::isfinite(s.period)) continue;
    size_t m = s.acct->machine >= 0 ? static_cast<size_t>(s.acct->machine) : 0;
    if (m >= density.size()) m = 0;
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      density[m][r] +=
          s.job.profile.stage_time[r] / (s.period * s.straggler_factor);
    }
  }
  for (size_t m = 0; m < density.size(); ++m) {
    tracer->counter(to_us(now_), "busy",
                    obs::machine_track(static_cast<int>(m)),
                    obs::TraceArgs("storage", density[m][0], "cpu",
                                   density[m][1], "gpu", density[m][2],
                                   "network", density[m][3]));
  }
}

void Engine::close_trace(Time end) {
  obs::Tracer* const tracer = options_.tracer;
  if (tracer == nullptr) return;
  now_ = end;
  for (JobId id : active_) end_run_span(jobs_[static_cast<size_t>(id)]);
  for (size_t m = 0; m < machine_down_since_.size(); ++m) {
    const int track = obs::machine_track(static_cast<int>(m));
    if (machine_down_since_[m] != kNoTime) {
      tracer->complete(to_us(machine_down_since_[m]),
                       to_us(now_) - to_us(machine_down_since_[m]), "down",
                       "fault", track, 0);
    }
    if (machine_straggler_since_[m] != kNoTime) {
      tracer->complete(to_us(machine_straggler_since_[m]),
                       to_us(now_) - to_us(machine_straggler_since_[m]),
                       "straggler", "fault", track, 0);
    }
  }
}

// ---------------------------------------------------------------------------
// Samples, accounting and snapshots.

EngineSample Engine::sample() const {
  EngineSample out;
  double blocking_sum = 0;
  double rate_sum = 0;
  double gamma_sum = 0;
  std::map<std::vector<JobId>, int> groups_seen;
  const double total_gpus = cluster_.total_gpus();
  for (JobId id : active_) {
    const JobRecord& s = jobs_[static_cast<size_t>(id)];
    if (s.phase != JobPhase::kRunning) {
      ++out.queued;
      const Duration pending_time = (now_ - s.job.submit_time) - s.ran_wall;
      const Duration remaining = std::max(s.remaining_solo(), 1.0);
      blocking_sum += std::max(pending_time, 0.0) / remaining;
      continue;
    }
    ++out.running;
    if (s.period > 0) rate_sum += s.job.profile.iteration_time() / s.period;
    groups_seen[s.key.members] = static_cast<int>(s.key.members.size());
    if (s.key.members.size() > 1) {
      gamma_sum += s.group_gamma;
      ++out.grouped;
    }
    if (s.period <= 0) continue;
    // Each running job contributes its own stage-time densities on its
    // group's GPU share.
    const double share = static_cast<double>(s.key.num_gpus) / total_gpus;
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      const double density = s.job.profile.stage_time[r] / s.period;
      out.utilization[r] += share * std::min(density, 1.0);
    }
  }
  for (double& u : out.utilization) u = std::min(u, 1.0);
  if (out.queued > 0) out.blocking = blocking_sum / out.queued;
  if (out.grouped > 0) out.mean_gamma = gamma_sum / out.grouped;
  if (out.running > 0) {
    out.mean_rate = rate_sum / out.running;
    double width_sum = 0;
    for (const auto& [members, width] : groups_seen) width_sum += width;
    out.mean_width = width_sum / static_cast<double>(groups_seen.size());
  }
  return out;
}

EngineCounts Engine::counts() const {
  EngineCounts c;
  c.faults = std::llround(c_faults_->value() - base_.faults);
  c.restarts = std::llround(c_restarts_->value() - base_.restarts);
  c.machine_failures =
      std::llround(c_machine_failures_->value() - base_.machine_failures);
  c.evictions = std::llround(c_evictions_->value() - base_.evictions);
  c.straggler_seconds =
      c_straggler_seconds_->value() - base_.straggler_seconds;
  c.degraded_seconds = c_degraded_seconds_->value() - base_.degraded_seconds;
  return c;
}

GammaAudit Engine::audit_group_gamma() {
  // Realized γ per multi-member incarnation: busy seconds over the active
  // window (wall minus the shared restart stall), averaged over the
  // resources the group uses, then window-weighted across incarnations.
  GammaAudit out;
  double weight = 0, realized_sum = 0, error_sum = 0;
  for (const GroupAccount& acct : group_accounts_) {
    if (acct.size < 2) continue;
    const double wall = acct.window_end - acct.window_start;
    const double stall =
        std::clamp(acct.ready_at - acct.window_start, 0.0, wall);
    const double active_window = wall - stall;
    if (active_window <= 0) continue;
    int used = 0;
    double fraction_sum = 0;
    for (size_t r = 0; r < static_cast<size_t>(kNumResources); ++r) {
      if (!acct.active[r]) continue;
      ++used;
      fraction_sum += std::min(acct.busy[r] / active_window, 1.0);
    }
    if (used == 0) continue;
    const double realized = fraction_sum / used;
    s_gamma_realized_->observe(realized);
    s_gamma_error_->observe(realized - acct.gamma_predicted);
    realized_sum += realized * active_window;
    error_sum += (realized - acct.gamma_predicted) * active_window;
    weight += active_window;
  }
  if (weight > 0) {
    out.realized = realized_sum / weight;
    out.error = error_sum / weight;
  }
  return out;
}

void Engine::fill_status(const JobRecord& rec, JobStatus& out) {
  out.id = rec.job.id;
  out.phase = rec.phase;
  out.model = rec.job.model;
  out.name = rec.name;
  out.num_gpus = rec.job.num_gpus;
  out.iterations = rec.job.iterations;
  out.done_iterations = rec.done_iterations;
  out.submit_time = rec.job.submit_time;
  out.first_scheduled = rec.first_scheduled;
  out.end_time = rec.end_time;
  out.preemptions = rec.preemptions;
}

bool Engine::job_status(JobId id, JobStatus& out) const {
  const JobRecord* rec = find(id);
  if (rec == nullptr) return false;
  fill_status(*rec, out);
  return true;
}

void Engine::checkpoint_progress(Time now) {
  if (options_.decisions == nullptr) return;
  for (JobId id : active_) {
    const JobRecord& rec = jobs_[static_cast<size_t>(id)];
    if (rec.done_iterations <= 0) continue;
    options_.decisions->entry("job_progress")
        .num("t", now)
        .integer("job", id)
        .num("done", rec.done_iterations);
  }
}

}  // namespace muri
