// Randomized lifecycle properties of the engine under run_simulation:
// seeded small traces × {FIFO, Tiresias, Muri-S, Muri-L} × {no faults,
// job faults, machine crashes + stragglers} × scheduling threads {1, 4}.
// Every run must
//  - never place more GPUs in one round than the up machines hold, nor
//    place onto a machine that is down;
//  - keep every finished job's span timeline valid (buckets + run ≡ JCT);
//  - replay from its decision log to the live SimResult;
//  - write the same decision-log and trace bytes with the per-job span
//    recorder attached and detached.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "job/trace.h"
#include "obs/jobtrace.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "recovery/replay.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

enum class Faults { kNone, kJobFaults, kMachineCrashesAndStragglers };

struct Scenario {
  std::uint64_t seed = 1;
  std::string scheduler;
  Faults faults = Faults::kNone;
  int threads = 1;

  std::string label() const {
    return scheduler + " seed=" + std::to_string(seed) +
           " faults=" + std::to_string(static_cast<int>(faults)) +
           " threads=" + std::to_string(threads);
  }
};

constexpr int kMachines = 3;
constexpr int kGpusPerMachine = 4;

Trace small_trace(std::uint64_t seed) {
  PhillyTraceOptions opt;
  opt.name = "property";
  opt.num_jobs = 24;
  opt.seed = seed;
  opt.jobs_per_hour = 30;
  opt.duration_log_mean = 7.5;
  opt.duration_log_sigma = 1.0;
  opt.max_duration = 6 * 3600;
  // Up to one machine's worth of GPUs, so every job can be placed.
  opt.gpu_count_weights = {0.6, 0.25, 0.15};
  return generate_philly_like(opt);
}

std::unique_ptr<Scheduler> make_scheduler(const Scenario& s) {
  if (s.scheduler == "FIFO") return std::make_unique<FifoScheduler>();
  if (s.scheduler == "Tiresias") return std::make_unique<TiresiasScheduler>();
  MuriOptions opt;
  opt.durations_known = s.scheduler == "Muri-S";
  opt.num_threads = s.threads;
  return std::make_unique<MuriScheduler>(opt);
}

SimOptions options_for(const Scenario& s, const Scheduler& scheduler) {
  SimOptions opt;
  opt.cluster.num_machines = kMachines;
  opt.cluster.gpus_per_machine = kGpusPerMachine;
  opt.schedule_interval = 300;
  opt.durations_known = scheduler.needs_durations();
  switch (s.faults) {
    case Faults::kNone:
      break;
    case Faults::kJobFaults:
      opt.mtbf_hours = 2;
      opt.fault_seed = s.seed * 7 + 1;
      break;
    case Faults::kMachineCrashesAndStragglers:
      opt.machine_faults.machine_mtbf_hours = 6;
      opt.machine_faults.machine_mttr_hours = 0.5;
      opt.machine_faults.straggler_rate_per_hour = 0.5;
      opt.machine_faults.seed = s.seed * 11 + 3;
      break;
  }
  return opt;
}

struct RunOutput {
  SimResult result;
  std::string decisions;
  std::string trace;
  std::vector<obs::JobTimeline> timelines;
};

RunOutput run(const Scenario& s, bool with_jobtrace) {
  const Trace trace = small_trace(s.seed);
  std::unique_ptr<Scheduler> scheduler = make_scheduler(s);
  SimOptions opt = options_for(s, *scheduler);
  obs::DecisionLog log;
  obs::Tracer tracer(1 << 20);
  obs::JobTraceLog jobtrace;
  opt.decisions = &log;
  opt.tracer = &tracer;
  if (with_jobtrace) opt.jobtrace = &jobtrace;
  RunOutput out;
  out.result = run_simulation(trace, *scheduler, opt);
  out.decisions = log.jsonl();
  out.trace = tracer.chrome_trace_json();
  if (with_jobtrace) out.timelines = jobtrace.timelines();
  return out;
}

// Per round: GPUs placed never exceed the up machines' GPUs, and no
// placement lands on a down machine.
void expect_placements_fit(const std::string& jsonl, const std::string& label) {
  std::vector<obs::DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(jsonl, records)) << label;
  std::set<int> down;
  double round = -1;
  int placed_gpus = 0;
  int placements = 0;
  for (const obs::DecisionRecord& rec : records) {
    const std::string& type = rec.value.at("type").string;
    if (type == "machine_down") {
      down.insert(static_cast<int>(rec.value.at("machine").number));
    } else if (type == "machine_up") {
      down.erase(static_cast<int>(rec.value.at("machine").number));
    }
    if (type != "placement") continue;
    ++placements;
    if (rec.value.at("round").number != round) {
      round = rec.value.at("round").number;
      placed_gpus = 0;
    }
    placed_gpus += static_cast<int>(rec.value.at("gpus").number);
    const int up_gpus =
        (kMachines - static_cast<int>(down.size())) * kGpusPerMachine;
    EXPECT_LE(placed_gpus, up_gpus) << label << ": " << rec.raw;
    for (const obs::JsonValue& m : rec.value.at("machines").array) {
      EXPECT_EQ(down.count(static_cast<int>(m.number)), 0u)
          << label << ": placed on a down machine: " << rec.raw;
    }
  }
  EXPECT_GT(placements, 0) << label;
}

void expect_replay_matches(const std::string& jsonl, const SimResult& live,
                           const std::string& label) {
  recovery::ReplayEngine replay;
  std::string error;
  ASSERT_TRUE(replay.replay(jsonl, &error)) << label << ": " << error;
  const recovery::ReplayState& state = replay.state();
  EXPECT_TRUE(state.run_complete) << label;
  EXPECT_EQ(state.jcts, live.jcts) << label;
  EXPECT_EQ(state.makespan, live.makespan) << label;
  EXPECT_EQ(state.finished_jobs, live.finished_jobs) << label;
  EXPECT_EQ(state.unfinished_jobs, live.unfinished_jobs) << label;
  EXPECT_EQ(state.faults, live.faults) << label;
  EXPECT_EQ(state.restarts, live.restarts) << label;
  EXPECT_EQ(state.machine_failures, live.machine_failures) << label;
  EXPECT_EQ(state.evictions, live.evictions) << label;
  EXPECT_EQ(state.scheduler_invocations, live.scheduler_invocations)
      << label;
}

TEST(LifecycleProperty, InvariantsHoldAcrossSchedulersFaultsAndThreads) {
  std::int64_t faults = 0, evictions = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    for (const char* scheduler : {"FIFO", "Tiresias", "Muri-S", "Muri-L"}) {
      for (const Faults f : {Faults::kNone, Faults::kJobFaults,
                             Faults::kMachineCrashesAndStragglers}) {
        for (const int threads : {1, 4}) {
          const Scenario s{seed, scheduler, f, threads};
          const std::string label = s.label();
          const RunOutput traced = run(s, /*with_jobtrace=*/true);
          const RunOutput plain = run(s, /*with_jobtrace=*/false);
          faults += traced.result.faults;
          evictions += traced.result.evictions;

          EXPECT_EQ(traced.result.finished_jobs, 24) << label;
          expect_placements_fit(traced.decisions, label);
          int finished_timelines = 0;
          for (const obs::JobTimeline& t : traced.timelines) {
            if (!t.finished) continue;
            ++finished_timelines;
            EXPECT_EQ(obs::validate_timeline(t), "")
                << label << ": job " << t.job;
          }
          EXPECT_EQ(finished_timelines, traced.result.finished_jobs) << label;
          expect_replay_matches(traced.decisions, traced.result, label);
          EXPECT_EQ(traced.decisions, plain.decisions) << label;
          EXPECT_EQ(traced.trace, plain.trace) << label;
          EXPECT_EQ(traced.result.jcts, plain.result.jcts) << label;
        }
      }
    }
  }
  // The fault legs actually exercised the fault paths.
  EXPECT_GT(faults, 0);
  EXPECT_GT(evictions, 0);
}

}  // namespace
}  // namespace muri
