#include "obs/jobs_report.h"

#include <algorithm>
#include <cstdio>
#include <map>

#include "common/stats.h"

namespace muri::obs {

namespace {

std::string f3(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

struct Percentiles {
  double p50 = 0, p90 = 0, p99 = 0, mean = 0;
  std::size_t n = 0;
};

Percentiles percentiles_of(std::vector<double> xs) {
  Percentiles p;
  p.n = xs.size();
  if (xs.empty()) return p;
  double sum = 0;
  for (double x : xs) sum += x;
  p.mean = sum / static_cast<double>(xs.size());
  p.p50 = percentile(xs, 50);
  p.p90 = percentile(xs, 90);
  p.p99 = percentile(xs, 99);
  return p;
}

}  // namespace

JobsReport build_jobs_report(const std::vector<DecisionRecord>& records) {
  std::map<std::int64_t, JobLatencyRow> rows;
  auto row = [&rows](std::int64_t job) -> JobLatencyRow& {
    JobLatencyRow& r = rows[job];
    r.job = job;
    return r;
  };

  for (const DecisionRecord& rec : records) {
    const JsonValue& v = rec.value;
    const std::string& type = v.at("type").string;
    const double t = v.at("t").number;
    if (type == "job_submit" || type == "arrival") {
      JobLatencyRow& r = row(static_cast<std::int64_t>(v.at("job").number));
      if (r.submit_t < 0) r.submit_t = t;
    } else if (type == "placement") {
      for (const JsonValue& j : v.at("jobs").array) {
        JobLatencyRow& r = row(static_cast<std::int64_t>(j.number));
        if (r.first_scheduled_t < 0) r.first_scheduled_t = t;
      }
    } else if (type == "finish") {
      JobLatencyRow& r = row(static_cast<std::int64_t>(v.at("job").number));
      r.finished = true;
      r.end_t = t;
    } else if (type == "job_cancel") {
      JobLatencyRow& r = row(static_cast<std::int64_t>(v.at("job").number));
      r.cancelled = true;
      r.end_t = t;
    } else if (type == "preempt" || type == "evict") {
      ++row(static_cast<std::int64_t>(v.at("job").number)).preemptions;
    } else if (type == "restart") {
      ++row(static_cast<std::int64_t>(v.at("job").number)).restarts;
    }
  }

  JobsReport report;
  report.rows.reserve(rows.size());
  for (auto& [id, r] : rows) {
    if (r.finished) {
      ++report.finished;
    } else if (r.cancelled) {
      ++report.cancelled;
    } else {
      ++report.in_flight;
    }
    report.rows.push_back(std::move(r));
  }
  return report;
}

namespace {

std::pair<Percentiles, Percentiles> aggregates(const JobsReport& report) {
  std::vector<double> waits;
  std::vector<double> jcts;
  for (const JobLatencyRow& r : report.rows) {
    if (r.has_wait()) waits.push_back(r.wait());
    if (r.has_jct()) jcts.push_back(r.jct());
  }
  return {percentiles_of(std::move(waits)), percentiles_of(std::move(jcts))};
}

const char* state_of(const JobLatencyRow& r) {
  if (r.finished) return "finished";
  if (r.cancelled) return "cancelled";
  if (r.first_scheduled_t >= 0) return "scheduled";
  return "queued";
}

}  // namespace

std::string jobs_report_text(const JobsReport& report) {
  std::string out;
  out += "job        state      submit_t   wait_s     jct_s      preempt  restart\n";
  for (const JobLatencyRow& r : report.rows) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "%-10lld %-10s %-10s %-10s %-10s %-8lld %lld\n",
                  static_cast<long long>(r.job), state_of(r),
                  r.submit_t >= 0 ? f3(r.submit_t).c_str() : "-",
                  r.has_wait() ? f3(r.wait()).c_str() : "-",
                  r.has_jct() ? f3(r.jct()).c_str() : "-",
                  static_cast<long long>(r.preemptions),
                  static_cast<long long>(r.restarts));
    out += line;
  }
  const auto [wait, jct] = aggregates(report);
  out += "\njobs: " + std::to_string(report.rows.size()) +
         " (finished " + std::to_string(report.finished) + ", cancelled " +
         std::to_string(report.cancelled) + ", in flight " +
         std::to_string(report.in_flight) + ")\n";
  if (wait.n > 0) {
    out += "wait_s: mean " + f3(wait.mean) + "  p50 " + f3(wait.p50) +
           "  p90 " + f3(wait.p90) + "  p99 " + f3(wait.p99) + "\n";
  }
  if (jct.n > 0) {
    out += "jct_s:  mean " + f3(jct.mean) + "  p50 " + f3(jct.p50) +
           "  p90 " + f3(jct.p90) + "  p99 " + f3(jct.p99) + "\n";
  }
  return out;
}

std::string jobs_report_csv(const JobsReport& report) {
  std::string out =
      "job,state,submit_t,first_scheduled_t,end_t,wait_s,jct_s,preemptions,"
      "restarts\n";
  for (const JobLatencyRow& r : report.rows) {
    out += std::to_string(r.job);
    out += ",";
    out += state_of(r);
    out += ",";
    out += r.submit_t >= 0 ? g17(r.submit_t) : "";
    out += ",";
    out += r.first_scheduled_t >= 0 ? g17(r.first_scheduled_t) : "";
    out += ",";
    out += r.end_t >= 0 ? g17(r.end_t) : "";
    out += ",";
    out += r.has_wait() ? g17(r.wait()) : "";
    out += ",";
    out += r.has_jct() ? g17(r.jct()) : "";
    out += ",";
    out += std::to_string(r.preemptions);
    out += ",";
    out += std::to_string(r.restarts);
    out += "\n";
  }
  return out;
}

std::string jobs_report_json(const JobsReport& report) {
  std::string out = "{\"jobs\":[";
  bool first = true;
  for (const JobLatencyRow& r : report.rows) {
    if (!first) out += ",";
    first = false;
    out += "{\"job\":" + std::to_string(r.job);
    out += ",\"state\":\"";
    out += state_of(r);
    out += "\"";
    if (r.submit_t >= 0) out += ",\"submit_t\":" + g17(r.submit_t);
    if (r.first_scheduled_t >= 0) {
      out += ",\"first_scheduled_t\":" + g17(r.first_scheduled_t);
    }
    if (r.end_t >= 0) out += ",\"end_t\":" + g17(r.end_t);
    if (r.has_wait()) out += ",\"wait_s\":" + g17(r.wait());
    if (r.has_jct()) out += ",\"jct_s\":" + g17(r.jct());
    out += ",\"preemptions\":" + std::to_string(r.preemptions);
    out += ",\"restarts\":" + std::to_string(r.restarts);
    out += "}";
  }
  out += "],\"finished\":" + std::to_string(report.finished);
  out += ",\"cancelled\":" + std::to_string(report.cancelled);
  out += ",\"in_flight\":" + std::to_string(report.in_flight);
  const auto [wait, jct] = aggregates(report);
  if (wait.n > 0) {
    out += ",\"wait_s\":{\"mean\":" + g17(wait.mean) +
           ",\"p50\":" + g17(wait.p50) + ",\"p90\":" + g17(wait.p90) +
           ",\"p99\":" + g17(wait.p99) + "}";
  }
  if (jct.n > 0) {
    out += ",\"jct_s\":{\"mean\":" + g17(jct.mean) +
           ",\"p50\":" + g17(jct.p50) + ",\"p90\":" + g17(jct.p90) +
           ",\"p99\":" + g17(jct.p99) + "}";
  }
  out += "}\n";
  return out;
}

}  // namespace muri::obs
