// perfbench — end-to-end benchmark of the Muri reproduction.
//
//   perfbench --workload contended|sparse-faults-readmix --seed N
//             --seconds S --trace 0|1 [--smoke]
//
// Each run generates the workload's trace from the seed, then repeats
// replay -> serve -> resume until S seconds have passed (at least
// kMinReps times). It reports the best repetition of replay_s and
// resume_s, serve_jobs_per_s from the best repetition of each serve
// window, and the median of every other metric. Simulated outputs and WAL
// bytes must repeat bit for bit in every repetition. With --trace 1,
// repetitions alternate between untraced and traced; the traced ones
// record spans (written out at the end) and give the per-layer metrics,
// and the difference between the two kinds is the tracing overhead. WALs
// and spans go to .bench_out/ under the working directory.
//
// The last line of stdout is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Human-readable tables go to stderr.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/provenance.h"
#include "phases.h"
#include "spans.h"

namespace {

using Clock = std::chrono::steady_clock;
using perfbench::Ledger;
using perfbench::SpanRecorder;
using perfbench::Workload;

constexpr int kMinReps = 3;
constexpr const char* kOutDir = ".bench_out";

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      a.smoke = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
      a.seed_set = true;
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--trace" && has_value) {
      a.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      std::fprintf(stderr, "perfbench: unknown or incomplete flag '%s'\n",
                   flag.c_str());
      return false;
    }
  }
  return true;
}

double median(std::vector<double> xs) {
  return xs.empty() ? 0 : muri::percentile(std::move(xs), 50);
}

// Phase timings reported as the fastest repetition rather than the median.
// Every repetition does the same work, so a slower one was slowed by the
// host, whose speed drifts over seconds and minutes (README, "Noise
// decisions").
const std::vector<std::string> kBestOf = {"replay_s", "resume_s"};

// The serve phase's fastest time, window by window: the elementwise minimum
// of the repetitions' window times. Every repetition serves the same
// windows, so a serve phase of a few seconds, too long to fall into one
// fast stretch of the host as a whole, still finds one for each window.
class BestWindows {
 public:
  void add(const std::vector<double>& window_s, Ledger& ledger) {
    if (best_.empty()) {
      best_ = window_s;
    } else if (ledger.check(window_s.size() == best_.size(),
                            "the serve phase took " +
                                std::to_string(window_s.size()) +
                                " windows, the first repetition " +
                                std::to_string(best_.size()))) {
      for (std::size_t i = 0; i < best_.size(); ++i) {
        best_[i] = std::min(best_[i], window_s[i]);
      }
    }
  }
  double jobs_per_s(double jobs) const {
    double wall_s = 0;
    for (double s : best_) wall_s += s;
    return jobs / wall_s;
  }

 private:
  std::vector<double> best_;
};

// Bit-exact comparison, so -0.0/0.0 and NaN payloads count as changes.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// True when `a` and `b` agree bit for bit on every output that must repeat
// exactly for one seed.
bool same_outputs(const std::map<std::string, double>& a,
                  const std::map<std::string, double>& b) {
  for (const char* k : {"avg_jct_s", "p99_jct_s", "makespan_s",
                        "serve_avg_jct_s", "wal_bytes_per_job"}) {
    if (!same_bits(a.at(k), b.at(k))) return false;
  }
  return true;
}

// One replay -> serve -> resume repetition. Returns every end-to-end
// metric except peak_rss_mb and, when traced, the per-layer metrics.
// `check_recovery` also reads the serve phase's WAL back with recover_wal()
// and checks it; traced repetitions always do.
// `windows` collects the serve phase's window times, `jobs` the trace size.
std::map<std::string, double> run_rep(const Workload& w, const Args& args,
                                      const std::string& wal_path,
                                      bool check_recovery, SpanRecorder* spans,
                                      Ledger& ledger, BestWindows& windows,
                                      double& jobs) {
  std::map<std::string, double> m;
  perfbench::ScopedSpan root(spans, "workload");

  const auto t_trace = Clock::now();
  const muri::Trace trace = perfbench::make_trace(w, args.seed, args.smoke);
  double setup_s = seconds_since(t_trace);
  jobs = static_cast<double>(trace.jobs.size());

  const auto t_sched = Clock::now();
  muri::MuriScheduler scheduler;
  setup_s += seconds_since(t_sched);

  const perfbench::ReplayResult replay =
      perfbench::run_replay(trace, w, args.seed, scheduler, spans, ledger);
  m["replay_s"] = replay.wall_s;
  m["avg_jct_s"] = replay.sim.avg_jct;
  m["p99_jct_s"] = replay.sim.p99_jct;
  m["makespan_s"] = replay.sim.makespan;

  perfbench::ServeResult serve =
      perfbench::run_serve(trace, w, wal_path, spans, ledger);
  setup_s += serve.start_s;
  m["setup_s"] = setup_s;
  m["serve_jobs_per_s"] = serve.jobs_per_s;
  windows.add(serve.window_s, ledger);
  m["serve_avg_jct_s"] = serve.avg_jct_s;
  m["wal_bytes_per_job"] = static_cast<double>(serve.wal_bytes) / jobs;

  const auto stat = [&](const char* key) {
    const auto it = serve.stats.find(key);
    return it != serve.stats.end() ? it->second : 0.0;
  };
  perfbench::RecoveryResult recovery;
  if (check_recovery || spans != nullptr) {
    recovery = perfbench::check_wal(
        wal_path, static_cast<std::int64_t>(trace.jobs.size()),
        static_cast<std::int64_t>(stat("wal.records")), spans, ledger);
  }
  m["resume_s"] = perfbench::run_resume(wal_path, spans, ledger);
  // The next repetition starts from no WAL at all, as the first one did.
  std::error_code ec;
  std::filesystem::remove(wal_path, ec);
  if (spans == nullptr) return m;

  // ---- Per-layer metrics (traced repetitions only).
  const muri::GroupingStats& g = replay.grouping;
  double busy_s = 0;
  for (double ms : replay.call_ms) busy_s += ms * 1e-3;
  m["scheduler.calls"] = static_cast<double>(replay.call_ms.size());
  m["scheduler.busy_s"] = busy_s;
  m["scheduler.call_p50_ms"] = median(replay.call_ms);
  m["scheduler.call_p90_ms"] =
      replay.call_ms.empty() ? 0 : muri::percentile(replay.call_ms, 90);
  m["scheduler.queue_mean"] = muri::mean(replay.queue_len);
  m["scheduler.sort_s"] = g.priority_sort_seconds;
  m["scheduler.admit_s"] = g.admission_seconds;
  m["scheduler.replay_share"] = busy_s / replay.wall_s;
  m["interleave.graph_s"] = g.graph_build_seconds;
  m["interleave.gamma_evals"] = static_cast<double>(g.cache_misses);
  const double gamma_lookups =
      static_cast<double>(g.cache_hits + g.cache_misses);
  m["interleave.gamma_hit_ratio"] =
      gamma_lookups > 0 ? static_cast<double>(g.cache_hits) / gamma_lookups
                        : 0;
  m["matching.blossom_s"] = g.matching_seconds;
  m["matching.blossom_calls"] = static_cast<double>(g.matchings_run);
  const double attempts =
      static_cast<double>(g.matchings_run + g.matching_fallbacks);
  m["matching.fallback_ratio"] =
      attempts > 0 ? static_cast<double>(g.matching_fallbacks) / attempts : 0;
  m["sim.self_s"] = replay.wall_s - busy_s;
  m["sim.restarts_per_job"] = static_cast<double>(replay.sim.restarts) / jobs;
  m["fault.job_faults"] = static_cast<double>(replay.sim.faults);
  m["fault.machine_failures"] =
      static_cast<double>(replay.sim.machine_failures);
  m["fault.evictions"] = static_cast<double>(replay.sim.evictions);
  m["fault.straggler_s"] = replay.sim.straggler_seconds;
  m["fault.degraded_s"] = replay.sim.degraded_group_seconds;

  const auto& lat = serve.latency_ms;
  const auto lat_pct = [&](const char* endpoint, double p) {
    const auto it = lat.find(endpoint);
    return it == lat.end() || it->second.empty()
               ? 0.0
               : muri::percentile(it->second, p);
  };
  const auto lat_sum_s = [&](const char* endpoint) {
    const auto it = lat.find(endpoint);
    double s = 0;
    if (it != lat.end()) {
      for (double ms : it->second) s += ms * 1e-3;
    }
    return s;
  };
  m["service.submit_p50_ms"] = lat_pct("http.submit", 50);
  m["service.submit_p99_ms"] = lat_pct("http.submit", 99);
  m["service.stats_p50_ms"] = lat_pct("http.stats", 50);
  m["service.list_p50_ms"] = lat_pct("http.list", 50);
  m["service.explain_p50_ms"] = lat_pct("http.explain", 50);
  const auto calls = [&](const char* endpoint) {
    const auto it = lat.find(endpoint);
    return it == lat.end() ? 0.0 : static_cast<double>(it->second.size());
  };
  m["service.stats_calls"] = calls("http.stats");
  m["service.list_calls"] = calls("http.list");
  m["service.explain_calls"] = calls("http.explain");
  const double reads_s =
      lat_sum_s("http.stats") + lat_sum_s("http.list") +
      lat_sum_s("http.explain");
  m["service.reads_s"] = reads_s;
  m["service.read_share"] = reads_s / serve.wall_s;
  m["service.step_s"] = serve.step_s;
  m["service.steps"] = static_cast<double>(serve.steps);
  m["service.rounds"] = stat("rounds");
  m["service.round_p50_ms"] = stat("round_p50_s") * 1e3;
  m["service.round_p90_ms"] = stat("round_p90_s") * 1e3;
  m["service.schedule_s"] = stat("schedule_s");
  m["service.place_s"] = stat("place_s");
  m["service.wal_s"] = stat("wal_s");
  m["service.requests"] = static_cast<double>(serve.requests);
  m["service.failed_requests"] = static_cast<double>(serve.failed_requests);
  m["recovery.wal_records"] = static_cast<double>(recovery.records);
  m["recovery.fsyncs"] = stat("wal.fsyncs");
  m["recovery.append_s"] = stat("wal.append_s");
  m["recovery.fsync_s"] = stat("wal.fsync_s");
  m["recovery.read_wal_s"] = recovery.read_wal_s;
  m["recovery.replayed_records"] =
      static_cast<double>(recovery.replayed_records);

  // Offline observability: the same decision stream GET /decisions serves,
  // parsed and explained directly.
  perfbench::ScopedSpan obs_span(spans, "obs");
  m["obs.decisions_bytes_per_job"] =
      static_cast<double>(serve.decisions.size()) / jobs;
  std::vector<muri::obs::DecisionRecord> records;
  std::string error;
  bool parsed = false;
  {
    perfbench::ScopedSpan span(spans, "parse_decision_log");
    const auto t0 = Clock::now();
    parsed = muri::obs::parse_decision_log(serve.decisions, records, &error);
    m["obs.parse_log_s"] = seconds_since(t0);
  }
  ledger.check(parsed, "GET /decisions does not parse: " + error);
  {
    perfbench::ScopedSpan span(spans, "explain_job_json");
    const auto t0 = Clock::now();
    const std::string why = muri::obs::explain_job_json(
        records, static_cast<std::int64_t>(trace.jobs.size()) - 1);
    m["obs.explain_ms"] = seconds_since(t0) * 1e3;
    ledger.check(!why.empty(), "explain_job_json found no records for the "
                               "last job");
  }
  return m;
}

// Span name -> the per-layer metric its self time belongs to.
const std::map<std::string, std::string>& span_layers() {
  static const std::map<std::string, std::string> kLayers = {
      {"workload", "(benchmark)"},
      {"replay", "sim.self_s"},
      {"schedule", "scheduler.busy_s"},
      {"serve", "(serve client)"},
      {"step", "service.step_s"},
      {"daemon.start", "setup_s / resume_s"},
      {"daemon.stop", "(graceful stop)"},
      {"http.submit", "service.submit_p50_ms"},
      {"http.stats", "service.stats_p50_ms"},
      {"http.list", "service.list_p50_ms"},
      {"http.explain", "service.explain_p50_ms"},
      {"http.final_list", "serve_avg_jct_s"},
      {"http.final_stats", "service.rounds"},
      {"http.decisions", "obs.decisions_bytes_per_job"},
      {"recover_wal", "recovery.read_wal_s"},
      {"resume", "resume_s"},
      {"obs", "(obs phase)"},
      {"parse_decision_log", "obs.parse_log_s"},
      {"explain_job_json", "obs.explain_ms"},
  };
  return kLayers;
}

void print_self_time_table(const SpanRecorder& spans, int traced_reps) {
  std::fprintf(stderr,
               "\nself time per traced repetition (run %s, %d traced)\n"
               "%-20s %10s %12s %12s  %s\n",
               spans.run_id().c_str(), traced_reps, "span", "count",
               "total_s", "self_s", "layer metric");
  const double reps = std::max(1, traced_reps);
  for (const auto& [name, t] : spans.totals()) {
    const auto it = span_layers().find(name);
    std::fprintf(stderr, "%-20s %10.0f %12.6f %12.6f  %s\n", name.c_str(),
                 static_cast<double>(t.count) / reps, t.total_s / reps,
                 t.self_s / reps,
                 it != span_layers().end() ? it->second.c_str() : "");
  }
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Units of everything the run can print.
std::string unit_of(const std::string& name) {
  static const std::map<std::string, std::string> kUnits = {
      {"serve_jobs_per_s", "1/s"},
      {"wal_bytes_per_job", "B"},
      {"peak_rss_mb", "MB"},
      {"scheduler.calls", "count"},
      {"scheduler.queue_mean", "jobs"},
      {"scheduler.replay_share", "ratio"},
      {"interleave.gamma_evals", "count"},
      {"interleave.gamma_hit_ratio", "ratio"},
      {"matching.blossom_calls", "count"},
      {"matching.fallback_ratio", "ratio"},
      {"sim.restarts_per_job", "count"},
      {"fault.job_faults", "count"},
      {"fault.machine_failures", "count"},
      {"fault.evictions", "count"},
      {"service.read_share", "ratio"},
      {"service.steps", "count"},
      {"service.stats_calls", "count"},
      {"service.list_calls", "count"},
      {"service.explain_calls", "count"},
      {"service.rounds", "count"},
      {"service.requests", "count"},
      {"service.failed_requests", "count"},
      {"recovery.wal_records", "count"},
      {"recovery.fsyncs", "count"},
      {"recovery.replayed_records", "count"},
      {"obs.decisions_bytes_per_job", "B"},
      {"trace.overhead_serve_jobs_per_s", "1/s"},
      {"trace.spans", "count"},
  };
  const auto it = kUnits.find(name);
  if (it != kUnits.end()) return it->second;
  if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ms") == 0) {
    return "ms";
  }
  return "s";
}

const std::vector<std::string> kEndToEnd = {
    "replay_s",        "avg_jct_s",         "p99_jct_s",
    "makespan_s",      "serve_jobs_per_s",  "serve_avg_jct_s",
    "resume_s",        "wal_bytes_per_job", "peak_rss_mb",
    "setup_s"};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return 2;
  const Workload* w = perfbench::find_workload(args.workload);
  if (w == nullptr || !args.seed_set) {
    std::string names;
    for (const std::string& n : perfbench::workload_names()) {
      names += (names.empty() ? "" : "|") + n;
    }
    std::fprintf(stderr,
                 "usage: perfbench --workload %s --seed N --seconds S "
                 "--trace 0|1 [--smoke]\n",
                 names.c_str());
    return 2;
  }

  std::error_code ec;
  std::filesystem::create_directories(kOutDir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n", kOutDir,
                 ec.message().c_str());
    return 1;
  }
  const std::string tag = w->name + "-seed" + std::to_string(args.seed) +
                          "-pid" + std::to_string(::getpid());
  const std::string wal_path = std::string(kOutDir) + "/" + tag + ".wal";
  SpanRecorder spans(tag);

  Ledger ledger;
  std::vector<std::map<std::string, double>> untraced;
  std::vector<std::map<std::string, double>> traced;
  BestWindows untraced_windows;
  BestWindows traced_windows;
  double jobs = 0;
  double peak_rss_mb = 0;
  const auto t_start = Clock::now();
  for (int rep = 0;; ++rep) {
    const bool trace_this = args.trace && rep % 2 == 1;
    auto m = run_rep(*w, args, wal_path, rep == 0,
                     trace_this ? &spans : nullptr, ledger,
                     trace_this ? traced_windows : untraced_windows, jobs);
    if (rep == 0) {
      // One pass from a fresh process. Later repetitions only add what the
      // allocator keeps between them.
      rusage ru{};
      ::getrusage(RUSAGE_SELF, &ru);
      peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    }
    // Simulated outputs and WAL bytes repeat exactly for one seed.
    if (!untraced.empty()) {
      ledger.check(same_outputs(m, untraced[0]),
                   "repetition " + std::to_string(rep) +
                       " changed a simulated output or the WAL size");
    }
    std::fprintf(stderr,
                 "rep %d%s: replay_s %.4f serve_jobs_per_s %.1f resume_s "
                 "%.4f setup_s %.5f\n",
                 rep, trace_this ? " (traced)" : "", m["replay_s"],
                 m["serve_jobs_per_s"], m["resume_s"], m["setup_s"]);
    (trace_this ? traced : untraced).push_back(std::move(m));
    const int per_kind = static_cast<int>(
        args.trace ? std::min(untraced.size(), traced.size())
                   : untraced.size());
    if (per_kind >= (args.trace ? 2 : kMinReps) &&
        seconds_since(t_start) >= args.seconds) {
      break;
    }
  }

  std::map<std::string, double> out;
  const auto median_of = [](const std::vector<std::map<std::string, double>>&
                                reps,
                            const std::string& key) {
    std::vector<double> xs;
    for (const auto& r : reps) xs.push_back(r.at(key));
    return median(xs);
  };
  const auto best_of = [](const std::vector<std::map<std::string, double>>&
                              reps,
                          const std::string& key) {
    double best = reps.front().at(key);
    for (const auto& r : reps) best = std::min(best, r.at(key));
    return best;
  };
  if (!args.trace) {
    for (const std::string& k : kEndToEnd) {
      if (k == "peak_rss_mb" || k == "serve_jobs_per_s") continue;
      const bool best = std::find(kBestOf.begin(), kBestOf.end(), k) !=
                        kBestOf.end();
      out[k] = best ? best_of(untraced, k) : median_of(untraced, k);
    }
    out["serve_jobs_per_s"] = untraced_windows.jobs_per_s(jobs);
    out["peak_rss_mb"] = peak_rss_mb;
  } else {
    for (const auto& [k, v] : traced[0]) {
      if (std::find(kEndToEnd.begin(), kEndToEnd.end(), k) ==
          kEndToEnd.end()) {
        out[k] = median_of(traced, k);
      }
    }
    out["trace.overhead_replay_s"] =
        best_of(traced, "replay_s") - best_of(untraced, "replay_s");
    out["trace.overhead_serve_jobs_per_s"] =
        traced_windows.jobs_per_s(jobs) - untraced_windows.jobs_per_s(jobs);
    out["trace.spans"] = static_cast<double>(spans.spans().size()) /
                         static_cast<double>(traced.size());
    print_self_time_table(spans, static_cast<int>(traced.size()));
    const std::string spans_path =
        std::string(kOutDir) + "/" + tag + ".spans.json";
    std::FILE* f = std::fopen(spans_path.c_str(), "w");
    const std::string body = spans.json();
    ledger.check(f != nullptr &&
                     std::fwrite(body.data(), 1, body.size(), f) ==
                         body.size(),
                 "cannot write " + spans_path);
    if (f != nullptr) std::fclose(f);
    std::fprintf(stderr, "spans: %s\n", spans_path.c_str());
  }

  std::fprintf(stderr, "%s seed %llu: %zu untraced + %zu traced reps in "
               "%.1f s, %lld checks and requests, %lld failed\n",
               w->name.c_str(), static_cast<unsigned long long>(args.seed),
               untraced.size(), traced.size(), seconds_since(t_start),
               static_cast<long long>(ledger.attempted),
               static_cast<long long>(ledger.failed));
  for (const std::string& f : ledger.failures) {
    std::fprintf(stderr, "FAILED: %s\n", f.c_str());
  }

  std::string json = "{\"correct\":";
  json += ledger.failed == 0 ? "true" : "false";
  json += ",\"attempted\":" + std::to_string(ledger.attempted);
  json += ",\"failed\":" + std::to_string(ledger.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const auto& [k, v] : out) {
    if (!first) json += ",";
    first = false;
    json += "\"" + k + "\":{\"value\":" + json_number(v) + ",\"unit\":\"" +
            unit_of(k) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
