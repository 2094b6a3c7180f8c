#include "recovery/resume.h"

#include <utility>

namespace muri::recovery {

bool resume_simulation(const Trace& trace, Scheduler& scheduler,
                       const SimOptions& sim_options,
                       const ResumeOptions& options, SimResult& result,
                       ResumeReport& report, std::string* error) {
  report = ResumeReport{};

  // Phase 1: reconstruct state from the durable prefix — what a daemon
  // would serve from while catching up. A missing file is a cold start.
  // This is the only read of the file: the sink below takes the decoded
  // image over for byte verification.
  RecoverResult recovered;
  if (!recover_wal_for_resume(options.wal_path, recovered, error)) {
    return false;
  }
  report.recovered = recovered.state;
  report.records_on_disk = recovered.records_on_disk;
  report.used_snapshot = recovered.used_snapshot;
  report.suffix_replayed = recovered.replayed_records;
  report.torn_tail = recovered.torn;
  report.torn_reason = recovered.torn_reason;

  // Phase 2: deterministic re-execution with the sink resumed onto the
  // WAL. The durable prefix is byte-verified as it is regenerated; new
  // records append past the old tail.
  DurableSinkOptions sink_options = options.sink;
  sink_options.resume = true;
  DurableSink sink(options.wal_path, sink_options, std::move(recovered));
  if (!sink.ok()) {
    if (error != nullptr) *error = sink.error();
    return false;
  }

  obs::DecisionLog log;
  log.set_sink(&sink);
  SimOptions sim = sim_options;
  sim.decisions = &log;
  scheduler.set_decision_log(&log);
  result = run_simulation(trace, scheduler, sim);
  log.set_sink(nullptr);
  sink.close();

  report.records_verified = sink.records_verified();
  report.records_appended = sink.records_appended();
  report.diverged = sink.diverged();
  if (!sink.ok()) {
    if (error != nullptr) *error = sink.error();
    return false;
  }
  return true;
}

}  // namespace muri::recovery
