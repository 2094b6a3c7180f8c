#include "phases.h"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <utility>

#include "common/rng.h"
#include "job/model.h"
#include "obs/json.h"
#include "recovery/durable.h"
#include "service/daemon.h"
#include "service/http_client.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Simulated seconds per serve window: each window's arrivals are submitted
// before one step() of this length, so the daemon sees the same sequence of
// calls on every run.
constexpr double kWindowS = 360;
// The seed reorders the workload's job population and its inter-arrival
// gaps only within blocks of this many consecutive jobs, so every seed keeps
// the same load curve.
constexpr std::size_t kShuffleBlock = 64;
// Jobs per trace in --smoke runs.
constexpr int kSmokeJobs = 150;
// Serve gives up (and fails its check) after this many windows.
constexpr std::int64_t kMaxWindows = 200000;

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = [] {
    std::vector<Workload> all;
    // Shaped like paper trace 4: a deep queue, so schedule() dominates.
    Workload contended;
    contended.name = "contended";
    contended.shape.jobs_per_hour = 100;
    contended.shape.duration_log_mean = 7.0;
    contended.shape.duration_log_sigma = 1.5;
    contended.shape.max_duration = 24.0 * 3600;
    contended.shape.seed = 404;
    contended.num_jobs = 1000;
    all.push_back(contended);
    // Shaped like paper trace 3: a light queue, so the simulator core and
    // its fault handling dominate the replay, and a read-heavy client whose
    // O(history) reads dominate the serve phase.
    Workload sparse;
    sparse.name = "sparse-faults-readmix";
    sparse.shape.jobs_per_hour = 18;
    sparse.shape.duration_log_mean = 6.2;
    sparse.shape.duration_log_sigma = 2.0;
    sparse.shape.max_duration = 96.0 * 3600;
    sparse.shape.seed = 303;
    sparse.num_jobs = 2000;
    sparse.faults = true;
    sparse.reads = true;
    all.push_back(sparse);
    return all;
  }();
  return kAll;
}

// Times every schedule() call of the wrapped scheduler and records a span
// for it. The plan passes through untouched.
class TimedScheduler final : public muri::Scheduler {
 public:
  TimedScheduler(muri::Scheduler& inner, SpanRecorder* spans,
                 ReplayResult& out)
      : inner_(inner), spans_(spans), out_(out) {}

  std::string name() const override { return inner_.name(); }
  bool needs_durations() const override { return inner_.needs_durations(); }

  std::vector<muri::PlannedGroup> schedule(
      const std::vector<muri::JobView>& queue,
      const muri::SchedulerContext& ctx) override {
    ScopedSpan span(spans_, "schedule");
    const auto t0 = Clock::now();
    std::vector<muri::PlannedGroup> plan = inner_.schedule(queue, ctx);
    out_.call_ms.push_back(seconds_since(t0) * 1e3);
    out_.queue_len.push_back(static_cast<double>(queue.size()));
    set_last_deferred(inner_.last_deferred());
    return plan;
  }

 private:
  muri::Scheduler& inner_;
  SpanRecorder* spans_;
  ReplayResult& out_;
};

muri::SimOptions replay_options(const Workload& w, std::uint64_t seed) {
  muri::SimOptions opt;  // 8 machines x 8 GPUs, 360 s rounds
  if (w.faults) {
    opt.mtbf_hours = 12;
    opt.fault_seed = seed * 2 + 1;
    opt.machine_faults.machine_mtbf_hours = 24;
    opt.machine_faults.machine_mttr_hours = 0.5;
    opt.machine_faults.straggler_rate_per_hour = 0.1;
    opt.machine_faults.seed = seed * 3 + 7;
  }
  return opt;
}

std::string submit_body(const muri::Job& job) {
  return "{\"model\":\"" + std::string(muri::to_string(job.model)) +
         "\",\"gpus\":" + std::to_string(job.num_gpus) +
         ",\"iterations\":" + std::to_string(job.iterations) + "}";
}

// Loopback HTTP client that books every request against the ledger and,
// per endpoint, its client-side latency.
class Client {
 public:
  Client(int port, SpanRecorder* spans, Ledger& ledger, ServeResult& out)
      : port_(port), spans_(spans), ledger_(ledger), out_(out) {}

  // False when the request failed or answered another status than
  // `expect`; the response is left in `resp`.
  bool call(const char* endpoint, const std::string& method,
            const std::string& path, const std::string& body, int expect,
            muri::service::ClientResponse& resp) {
    ScopedSpan span(spans_, endpoint);
    const auto t0 = Clock::now();
    std::string error;
    const bool sent =
        muri::service::http_request(port_, method, path, body, resp, &error);
    out_.latency_ms[endpoint].push_back(seconds_since(t0) * 1e3);
    ++out_.requests;
    const bool ok = sent && resp.status == expect;
    if (!ok) ++out_.failed_requests;
    ledger_.check(ok, ok ? std::string()
                         : method + " " + path + " answered " +
                               (sent ? std::to_string(resp.status) : error) +
                               ", expected " + std::to_string(expect));
    return ok;
  }

 private:
  int port_;
  SpanRecorder* spans_;
  Ledger& ledger_;
  ServeResult& out_;
};

bool parse_body(const muri::service::ClientResponse& resp,
                muri::obs::JsonValue& out) {
  return muri::obs::parse_json(resp.body, out) && out.is_object();
}

muri::service::DaemonOptions daemon_options(const std::string& wal_path,
                                            std::size_t queue_capacity) {
  muri::service::DaemonOptions opt;  // Muri-L on 8 x 8 GPUs, default fsync
  opt.manual_time = true;
  opt.wal_path = wal_path;
  opt.queue_capacity = queue_capacity;
  return opt;
}

}  // namespace

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : all_workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Workload& w : all_workloads()) names.push_back(w.name);
  return names;
}

muri::Trace make_trace(const Workload& w, std::uint64_t seed, bool smoke) {
  muri::PhillyTraceOptions opt = w.shape;
  opt.name = w.name;
  opt.num_jobs = smoke ? kSmokeJobs : w.num_jobs;
  muri::Trace trace = muri::generate_philly_like(opt);

  // The seed shuffles the population, and separately its inter-arrival
  // gaps, within each block of kShuffleBlock consecutive jobs. Every block
  // keeps its jobs and its first and last arrival times.
  const std::size_t n = trace.jobs.size();
  std::vector<double> gaps(n);
  for (std::size_t i = 0; i < n; ++i) {
    gaps[i] = trace.jobs[i].submit_time -
              (i == 0 ? 0.0 : trace.jobs[i - 1].submit_time);
  }
  muri::Rng rng(seed);
  // Shuffles xs[begin + skip, end) of every block [begin, end).
  const auto shuffle_blocks = [&](auto& xs, std::size_t skip) {
    for (std::size_t begin = 0; begin < n; begin += kShuffleBlock) {
      const std::size_t first = begin + skip;
      const std::size_t end = std::min(n, begin + kShuffleBlock);
      for (std::size_t i = end - 1; i > first; --i) {
        const auto j = static_cast<std::size_t>(rng.uniform_int(
            static_cast<std::int64_t>(first), static_cast<std::int64_t>(i)));
        std::swap(xs[i], xs[j]);
      }
    }
  };
  shuffle_blocks(trace.jobs, 0);
  // Gap i leads up to job i. A block's first gap leads up to it from the
  // block before and stays; the others move only among themselves.
  shuffle_blocks(gaps, 1);
  double t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += gaps[i];
    trace.jobs[i].id = static_cast<muri::JobId>(i);
    trace.jobs[i].submit_time = t;
  }
  return trace;
}

bool Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    // Keep the first few for the report; the count carries the rest.
    if (failures.size() < 20) failures.push_back(what);
  }
  return ok;
}

ReplayResult run_replay(const muri::Trace& trace, const Workload& w,
                        std::uint64_t seed, muri::MuriScheduler& muri_l,
                        SpanRecorder* spans, Ledger& ledger) {
  ReplayResult out;
  const muri::SimOptions opt = replay_options(w, seed);
  {
    ScopedSpan span(spans, "replay");
    const auto t0 = Clock::now();
    if (spans != nullptr) {
      TimedScheduler timed(muri_l, spans, out);
      out.sim = muri::run_simulation(trace, timed, opt);
    } else {
      out.sim = muri::run_simulation(trace, muri_l, opt);
    }
    out.wall_s = seconds_since(t0);
  }
  out.grouping = muri_l.cumulative_stats();
  ledger.check(out.sim.unfinished_jobs == 0 &&
                   out.sim.finished_jobs ==
                       static_cast<int>(trace.jobs.size()),
               "replay finished " + std::to_string(out.sim.finished_jobs) +
                   " of " + std::to_string(trace.jobs.size()) + " jobs, " +
                   std::to_string(out.sim.unfinished_jobs) + " unfinished");
  return out;
}

ServeResult run_serve(const muri::Trace& trace, const Workload& w,
                      const std::string& wal_path, SpanRecorder* spans,
                      Ledger& ledger) {
  ServeResult out;
  ScopedSpan phase(spans, "serve");
  const std::int64_t n = static_cast<std::int64_t>(trace.jobs.size());
  muri::service::MuriDaemon daemon(
      daemon_options(wal_path, static_cast<std::size_t>(n) + 16));
  {
    ScopedSpan span(spans, "daemon.start");
    const auto t0 = Clock::now();
    std::string error;
    const bool started = daemon.start(&error);
    out.start_s = seconds_since(t0);
    if (!ledger.check(started, "serve daemon start: " + error)) return out;
  }
  Client client(daemon.port(), spans, ledger, out);
  muri::service::ClientResponse resp;

  std::int64_t next = 0;
  std::int64_t window = 0;
  bool drained = false;
  while (!drained && window < kMaxWindows) {
    const auto t_window = Clock::now();
    const double window_end = static_cast<double>(window + 1) * kWindowS;
    while (next < n && trace.jobs[static_cast<std::size_t>(next)]
                               .submit_time < window_end) {
      client.call("http.submit", "POST", "/jobs",
                  submit_body(trace.jobs[static_cast<std::size_t>(next)]),
                  202, resp);
      ++next;
    }
    {
      ScopedSpan span(spans, "step");
      const auto t0 = Clock::now();
      daemon.step(kWindowS);
      out.step_s += seconds_since(t0);
      ++out.steps;
    }
    ++window;
    if (w.reads && next > 0) {
      if (window % 10 == 0) client.call("http.list", "GET", "/jobs", "", 200, resp);
      if (window % 100 == 0) {
        const std::string path =
            "/jobs/" + std::to_string(next - 1) + "?explain=1";
        muri::obs::JsonValue v;
        if (client.call("http.explain", "GET", path, "", 200, resp)) {
          ledger.check(parse_body(resp, v) &&
                           v.at("explain").type !=
                               muri::obs::JsonValue::Type::kNull,
                       "GET " + path + " returned a null explanation");
        }
      }
    }
    if (w.reads || next == n) {
      muri::obs::JsonValue v;
      if (client.call("http.stats", "GET", "/stats", "", 200, resp) &&
          next == n && parse_body(resp, v)) {
        drained = v.at("jobs").at("active").number == 0;
      }
    }
    out.window_s.push_back(seconds_since(t_window));
    out.wall_s += out.window_s.back();
  }
  out.jobs_per_s = static_cast<double>(n) / out.wall_s;
  ledger.check(drained, "serve did not drain within " +
                            std::to_string(kMaxWindows) + " windows");

  // Final job table: every job finished; simulated JCT from it.
  muri::obs::JsonValue jobs;
  if (client.call("http.final_list", "GET", "/jobs", "", 200, resp) &&
      ledger.check(parse_body(resp, jobs), "GET /jobs body is not JSON")) {
    std::int64_t finished = 0;
    double jct_sum = 0;
    for (const muri::obs::JsonValue& j : jobs.at("jobs").array) {
      if (j.at("state").string != "finished") continue;
      ++finished;
      jct_sum += j.at("end_t").number - j.at("submit_t").number;
    }
    ledger.check(finished == n && static_cast<std::int64_t>(
                                      jobs.at("jobs").array.size()) == n,
                 "final GET /jobs: " + std::to_string(finished) + " of " +
                     std::to_string(n) + " jobs finished");
    out.avg_jct_s = finished > 0 ? jct_sum / static_cast<double>(finished) : 0;
  }

  muri::obs::JsonValue stats;
  if (client.call("http.final_stats", "GET", "/stats", "", 200, resp) &&
      ledger.check(parse_body(resp, stats), "GET /stats body is not JSON")) {
    const muri::obs::JsonValue& wal = stats.at("wal");
    const muri::obs::JsonValue& phases = stats.at("round_phases");
    out.stats = {
        {"wal.records", wal.at("records").number},
        {"wal.fsyncs", wal.at("fsyncs").number},
        {"wal.append_s", wal.at("append_s").number},
        {"wal.fsync_s", wal.at("fsync_s").number},
        {"rounds", stats.at("jobs").at("rounds").number},
        {"round_p50_s", stats.at("round_s").at("p50").number},
        {"round_p90_s", stats.at("round_s").at("p90").number},
        {"schedule_s", phases.at("schedule").at("sum_s").number},
        {"place_s", phases.at("place").at("sum_s").number},
        {"wal_s", phases.at("wal").at("sum_s").number},
    };
  }
  if (spans != nullptr &&
      client.call("http.decisions", "GET", "/decisions", "", 200, resp)) {
    out.decisions = std::move(resp.body);
  }

  {
    ScopedSpan span(spans, "daemon.stop");
    daemon.stop("benchmark");
  }
  std::error_code ec;
  out.wal_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(wal_path, ec));
  ledger.check(!ec && out.wal_bytes > 0, "WAL " + wal_path + " is missing");
  return out;
}

RecoveryResult check_wal(const std::string& wal_path, std::int64_t jobs,
                         std::int64_t stats_records, SpanRecorder* spans,
                         Ledger& ledger) {
  RecoveryResult out;
  muri::recovery::RecoverResult rec;
  std::string error;
  bool ok = false;
  {
    ScopedSpan span(spans, "recover_wal");
    const auto t0 = Clock::now();
    ok = muri::recovery::recover_wal(wal_path, rec, &error);
    out.read_wal_s = seconds_since(t0);
  }
  out.records = rec.records_on_disk;
  out.replayed_records = rec.replayed_records;
  ledger.check(ok, "recover_wal failed: " + error);
  ledger.check(!rec.torn, "WAL has a torn tail: " + rec.torn_reason);
  ledger.check(rec.state.finished_jobs == jobs ||
                   static_cast<std::int64_t>(rec.state.finished.size()) ==
                       jobs,
               "WAL recovery finished " +
                   std::to_string(rec.state.finished.size()) + " of " +
                   std::to_string(jobs) + " jobs");
  // /stats was read before the graceful stop, which appends daemon_stop.
  ledger.check(rec.records_on_disk == stats_records + 1,
               "WAL holds " + std::to_string(rec.records_on_disk) +
                   " records, /stats reported " +
                   std::to_string(stats_records) + " + daemon_stop");
  return out;
}

double run_resume(const std::string& wal_path, SpanRecorder* spans,
                  Ledger& ledger) {
  ScopedSpan phase(spans, "resume");
  muri::service::DaemonOptions opt = daemon_options(wal_path, 64);
  opt.resume = true;
  muri::service::MuriDaemon daemon(opt);
  double start_s = 0;
  bool started = false;
  std::string error;
  {
    ScopedSpan span(spans, "daemon.start");
    const auto t0 = Clock::now();
    started = daemon.start(&error);
    start_s = seconds_since(t0);
  }
  if (!ledger.check(started, "resume daemon start: " + error)) return start_s;
  ServeResult scratch;
  Client client(daemon.port(), spans, ledger, scratch);
  muri::service::ClientResponse resp;
  muri::obs::JsonValue v;
  if (client.call("http.stats", "GET", "/stats", "", 200, resp)) {
    ledger.check(parse_body(resp, v) && v.at("jobs").at("active").number == 0,
                 "resume re-admitted jobs: /stats reports " +
                     std::to_string(v.at("jobs").at("active").number) +
                     " active");
  }
  ScopedSpan span(spans, "daemon.stop");
  daemon.stop("benchmark");
  return start_s;
}

}  // namespace perfbench
