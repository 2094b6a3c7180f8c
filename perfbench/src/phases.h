// The benchmark's workloads and the three phases each one runs on its own
// seeded trace: replay (run_simulation), serve (a manual-clock MuriDaemon
// driven over loopback HTTP) and resume (a daemon restarted on the serve
// phase's WAL). Every call goes through the library's public functions and
// the daemon's HTTP endpoints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "job/trace.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {

struct Workload {
  std::string name;
  // Trace shape and job count. `shape.seed` draws the job population (GPU
  // counts, models, durations) every seed of the workload shares.
  muri::PhillyTraceOptions shape;
  int num_jobs = 0;
  // Replay phase: job faults, machine crashes and stragglers on.
  bool faults = false;
  // Serve phase: read /stats every window, GET /jobs every 10 windows and
  // GET /jobs/<id>?explain=1 every 100 windows beside the submits.
  bool reads = false;
};

// Null when `name` is not a workload.
const Workload* find_workload(const std::string& name);
std::vector<std::string> workload_names();

// The workload's job population (generate_philly_like at shape.seed),
// reordered by `seed` within blocks of 64 consecutive jobs and given the
// arrival times of generate_philly_like at `seed`. Seeds differ in arrival
// times and in the order of nearby jobs, not in the work or its load curve.
// `smoke` shrinks the trace to 150 jobs.
muri::Trace make_trace(const Workload& w, std::uint64_t seed, bool smoke);

// Every check and every HTTP request counts as one attempted operation; a
// failed check, a transport error or an unexpected status counts as failed.
struct Ledger {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;

  // Records one check; false when it failed.
  bool check(bool ok, const std::string& what);
};

struct ReplayResult {
  muri::SimResult sim;
  double wall_s = 0;
  // Filled only when traced: one entry per schedule() call.
  std::vector<double> call_ms;
  std::vector<double> queue_len;
  muri::GroupingStats grouping;
};

// Replays `trace` through a fresh Muri-L `scheduler`. `spans` non-null
// selects the traced path: the scheduler behind a timing decorator, with a
// span per schedule() call.
ReplayResult run_replay(const muri::Trace& trace, const Workload& w,
                        std::uint64_t seed, muri::MuriScheduler& scheduler,
                        SpanRecorder* spans, Ledger& ledger);

struct ServeResult {
  double start_s = 0;  // daemon start/bind (part of set-up)
  // Wall time of each window: its submits, its step() and its reads, up to
  // the /stats read that reports 0 active.
  std::vector<double> window_s;
  double wall_s = 0;      // sum of window_s
  double jobs_per_s = 0;  // jobs / wall_s
  double avg_jct_s = 0;
  std::int64_t wal_bytes = 0;
  std::int64_t steps = 0;
  double step_s = 0;
  std::int64_t requests = 0;
  std::int64_t failed_requests = 0;
  // Client-side latency per endpoint: submit, stats, list, explain.
  std::map<std::string, std::vector<double>> latency_ms;
  // From the final /stats document.
  std::map<std::string, double> stats;
  // Traced only: the GET /decisions body at the end of the phase.
  std::string decisions;
};

ServeResult run_serve(const muri::Trace& trace, const Workload& w,
                      const std::string& wal_path, SpanRecorder* spans,
                      Ledger& ledger);

struct RecoveryResult {
  double read_wal_s = 0;
  std::int64_t records = 0;
  std::int64_t replayed_records = 0;
};

// Times recover_wal() on the serve phase's final WAL and checks it.
RecoveryResult check_wal(const std::string& wal_path, std::int64_t jobs,
                         std::int64_t stats_records, SpanRecorder* spans,
                         Ledger& ledger);

// Wall time of start() for a daemon resuming from `wal_path`.
double run_resume(const std::string& wal_path, SpanRecorder* spans,
                  Ledger& ledger);

}  // namespace perfbench
