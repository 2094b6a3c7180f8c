#include <gtest/gtest.h>

#include "obs/provenance.h"
#include "scheduler/baselines.h"
#include "scheduler/muri.h"
#include "sim/simulator.h"

namespace muri {
namespace {

Job make_job(JobId id, ModelKind m, int gpus, Time submit, double solo_secs) {
  Job j;
  j.id = id;
  j.model = m;
  j.num_gpus = gpus;
  j.submit_time = submit;
  j.profile = model_profile(m, gpus);
  j.iterations = std::max<std::int64_t>(
      1, static_cast<std::int64_t>(solo_secs / j.profile.iteration_time()));
  return j;
}

Trace tiny_trace() {
  Trace t;
  t.name = "tiny";
  t.jobs.push_back(make_job(0, ModelKind::kShuffleNet, 1, 0, 600));
  t.jobs.push_back(make_job(1, ModelKind::kA2c, 1, 0, 600));
  t.jobs.push_back(make_job(2, ModelKind::kGpt2, 1, 0, 600));
  t.jobs.push_back(make_job(3, ModelKind::kVgg16, 1, 0, 600));
  return t;
}

SimOptions small_cluster(int machines = 1, int gpus = 2) {
  SimOptions opt;
  opt.cluster.num_machines = machines;
  opt.cluster.gpus_per_machine = gpus;
  opt.schedule_interval = 60;
  opt.restart_penalty = 5;
  return opt;
}

TEST(Sim, SingleJobRunsForItsSoloDuration) {
  Trace t;
  t.name = "one";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 1000));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_EQ(r.finished_jobs, 1);
  EXPECT_EQ(r.unfinished_jobs, 0);
  // JCT = solo duration + restart penalty, up to iteration quantization.
  const double expected = t.jobs[0].solo_duration() + opt.restart_penalty;
  EXPECT_NEAR(r.avg_jct, expected, 1.0);
  EXPECT_NEAR(r.makespan, expected, 1.0);
}

TEST(Sim, AllJobsComplete) {
  const Trace t = tiny_trace();
  for (int pass = 0; pass < 2; ++pass) {
    FifoScheduler fifo;
    SrsfScheduler srsf;
    Scheduler& s = pass == 0 ? static_cast<Scheduler&>(fifo)
                             : static_cast<Scheduler&>(srsf);
    SimOptions opt = small_cluster();
    opt.durations_known = pass == 1;
    const SimResult r = run_simulation(t, s, opt);
    EXPECT_EQ(r.finished_jobs, 4) << s.name();
    EXPECT_GT(r.avg_jct, 0) << s.name();
    EXPECT_GE(r.makespan, 0) << s.name();
    EXPECT_GE(r.p99_jct, r.avg_jct * 0.5) << s.name();
  }
}

TEST(Sim, JctNeverBelowSoloDuration) {
  const Trace t = tiny_trace();
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster());
  ASSERT_EQ(r.jcts.size(), 4u);
  // Every JCT is at least the job's pure compute time.
  for (double jct : r.jcts) {
    EXPECT_GE(jct, 500.0);  // all jobs ~600s solo
  }
}

TEST(Sim, MuriInterleavesComplementaryJobsFasterThanFifo) {
  // Four complementary single-GPU jobs on ONE GPU: FIFO serializes them;
  // Muri interleaves all four on the same GPU.
  Trace t = tiny_trace();
  SimOptions opt = small_cluster(1, 1);

  FifoScheduler fifo;
  const SimResult r_fifo = run_simulation(t, fifo, opt);

  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt_known = opt;
  opt_known.durations_known = true;
  const SimResult r_muri = run_simulation(t, muri, opt_known);

  EXPECT_EQ(r_fifo.finished_jobs, 4);
  EXPECT_EQ(r_muri.finished_jobs, 4);
  EXPECT_LT(r_muri.makespan, r_fifo.makespan * 0.55)
      << "interleaving four complementary jobs should be ≥ ~2x faster";
  EXPECT_LT(r_muri.avg_jct, r_fifo.avg_jct);
}

TEST(Sim, UncoordinatedSharingSlowsContendingJobs) {
  // Two storage-bound jobs co-located by AntMan contend on storage; their
  // JCT must exceed their solo duration significantly (the §2.1 example).
  Trace t;
  t.name = "contend";
  t.jobs.push_back(make_job(0, ModelKind::kShuffleNet, 1, 0, 300));
  t.jobs.push_back(make_job(1, ModelKind::kShuffleNet, 1, 0, 300));
  AntManScheduler antman;
  SimOptions opt = small_cluster(1, 1);
  const SimResult r = run_simulation(t, antman, opt);
  EXPECT_EQ(r.finished_jobs, 2);
  for (double jct : r.jcts) {
    EXPECT_GT(jct, 300 * 1.5);
  }
}

TEST(Sim, RestartPenaltyDelaysCompletion) {
  Trace t;
  t.name = "penalty";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 500));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.restart_penalty = 100;
  const SimResult with_penalty = run_simulation(t, fifo, opt);
  opt.restart_penalty = 0;
  FifoScheduler fifo2;
  const SimResult without = run_simulation(t, fifo2, opt);
  EXPECT_NEAR(with_penalty.avg_jct - without.avg_jct, 100, 1.0);
}

TEST(Sim, QueueMetricsPositiveUnderContention) {
  // Many jobs on one GPU: queue builds up.
  Trace t;
  t.name = "queue";
  for (int i = 0; i < 8; ++i) {
    t.jobs.push_back(make_job(i, ModelKind::kBert, 1, 0, 400));
  }
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster(1, 1));
  EXPECT_GT(r.avg_queue_length, 1.0);
  EXPECT_GT(r.avg_blocking_index, 0.0);
}

TEST(Sim, UtilizationBoundedAndGpuBusyWhenSaturated) {
  Trace t;
  t.name = "util";
  for (int i = 0; i < 4; ++i) {
    t.jobs.push_back(make_job(i, ModelKind::kGpt2, 1, 0, 2000));
  }
  FifoScheduler fifo;
  SimOptions opt = small_cluster(1, 2);
  const SimResult r = run_simulation(t, fifo, opt);
  for (int j = 0; j < kNumResources; ++j) {
    EXPECT_GE(r.avg_utilization[static_cast<size_t>(j)], 0.0);
    EXPECT_LE(r.avg_utilization[static_cast<size_t>(j)], 1.0);
  }
  // GPT-2 is GPU-bound: GPU utilization dominates.
  EXPECT_GT(r.avg_utilization[static_cast<size_t>(Resource::kGpu)],
            r.avg_utilization[static_cast<size_t>(Resource::kStorage)]);
}

TEST(Sim, SeriesRecordedWhenRequested) {
  Trace t = tiny_trace();
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.record_series = true;
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_FALSE(r.queue_series.empty());
  EXPECT_FALSE(r.util_series[static_cast<size_t>(Resource::kGpu)].empty());
  FifoScheduler fifo2;
  opt.record_series = false;
  const SimResult r2 = run_simulation(t, fifo2, opt);
  EXPECT_TRUE(r2.queue_series.empty());
}

TEST(Sim, MaxTimeStopsEarly) {
  Trace t;
  t.name = "long";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 100000));
  FifoScheduler fifo;
  SimOptions opt = small_cluster();
  opt.max_time = 500;
  const SimResult r = run_simulation(t, fifo, opt);
  EXPECT_EQ(r.finished_jobs, 0);
  EXPECT_EQ(r.unfinished_jobs, 1);
}

TEST(Sim, MultiGpuJobsRespectMachineGranularity) {
  Trace t;
  t.name = "multigpu";
  t.jobs.push_back(make_job(0, ModelKind::kVgg16, 16, 0, 600));
  t.jobs.push_back(make_job(1, ModelKind::kBert, 8, 0, 600));
  t.jobs.push_back(make_job(2, ModelKind::kGpt2, 1, 0, 600));
  SrsfScheduler srsf;
  SimOptions opt;
  opt.cluster.num_machines = 3;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = true;
  const SimResult r = run_simulation(t, srsf, opt);
  EXPECT_EQ(r.finished_jobs, 3);
}

TEST(Sim, ArrivalOrderRespected) {
  // A job that arrives later cannot finish before an identical earlier
  // one under FIFO.
  Trace t;
  t.name = "order";
  t.jobs.push_back(make_job(0, ModelKind::kBert, 1, 0, 300));
  t.jobs.push_back(make_job(1, ModelKind::kBert, 1, 1000, 300));
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster(1, 1));
  ASSERT_EQ(r.jcts.size(), 2u);
  EXPECT_EQ(r.finished_jobs, 2);
}

TEST(Sim, EmptyTraceIsNoOp) {
  Trace t;
  t.name = "empty";
  FifoScheduler fifo;
  const SimResult r = run_simulation(t, fifo, small_cluster());
  EXPECT_EQ(r.finished_jobs, 0);
  EXPECT_DOUBLE_EQ(r.makespan, 0.0);
}

TEST(Sim, SchedulerAccountingPopulated) {
  Trace t = tiny_trace();
  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler muri(mopt);
  SimOptions opt = small_cluster(1, 1);
  opt.durations_known = true;
  const SimResult r = run_simulation(t, muri, opt);
  EXPECT_GT(r.scheduler_invocations, 0);
  EXPECT_GE(r.scheduler_wall_ms, 0.0);
  EXPECT_GT(r.profiler_sessions, 0);
}

// Plans every queued job as its own exclusive group, in id order — a
// fixed plan, so a test can pin which group placement has to skip.
class EachJobAloneScheduler final : public Scheduler {
 public:
  std::string name() const override { return "each-job-alone"; }
  std::vector<PlannedGroup> schedule(const std::vector<JobView>& queue,
                                     const SchedulerContext&) override {
    if (decision_log() != nullptr) decision_log()->begin_round();
    std::vector<PlannedGroup> plan;
    for (const JobView& v : queue) {
      PlannedGroup g;
      g.members = {v.id};
      g.num_gpus = v.num_gpus;
      plan.push_back(g);
    }
    return plan;
  }
};

TEST(Sim, NoCapacitySkipReportsTheGpusStillFree) {
  // 2 machines x 4 GPUs. Job 0 takes machine 0, job 1 two GPUs of machine
  // 1, so job 2 (4 GPUs, consolidated on one machine) cannot fit: its skip
  // must report the 2 GPUs still free, not the 8-GPU pool.
  Trace t;
  t.name = "no-capacity";
  t.jobs.push_back(make_job(0, ModelKind::kResNet18, 4, 0, 600));
  t.jobs.push_back(make_job(1, ModelKind::kResNet18, 2, 0, 600));
  t.jobs.push_back(make_job(2, ModelKind::kResNet18, 4, 0, 600));
  SimOptions opt = small_cluster(2, 4);
  obs::DecisionLog log;
  opt.decisions = &log;
  EachJobAloneScheduler sched;
  const SimResult r = run_simulation(t, sched, opt);
  EXPECT_EQ(r.finished_jobs, 3);

  std::vector<obs::DecisionRecord> records;
  ASSERT_TRUE(obs::parse_decision_log(log.jsonl(), records));
  int skips = 0;
  double round = -1;
  double placed_gpus = 0;
  for (const obs::DecisionRecord& rec : records) {
    const std::string& type = rec.value.at("type").string;
    if (rec.value.at("round").number != round) {
      round = rec.value.at("round").number;
      placed_gpus = 0;
    }
    if (type == "placement") placed_gpus += rec.value.at("gpus").number;
    if (type != "placement_skip" ||
        rec.value.at("reason").string != "no_capacity") {
      continue;
    }
    ++skips;
    EXPECT_EQ(rec.value.at("available_gpus").number, 8 - placed_gpus)
        << rec.raw;
  }
  // The first round skips job 2 after placing jobs 0 and 1.
  EXPECT_GE(skips, 1);
}

TEST(Sim, DeterministicRepeatability) {
  const Trace t = standard_trace(1);
  Trace head;
  head.name = "head";
  head.jobs.assign(t.jobs.begin(), t.jobs.begin() + 60);
  SimOptions opt;
  opt.cluster.num_machines = 2;
  opt.cluster.gpus_per_machine = 8;
  opt.durations_known = true;

  MuriOptions mopt;
  mopt.durations_known = true;
  MuriScheduler m1(mopt), m2(mopt);
  const SimResult a = run_simulation(head, m1, opt);
  const SimResult b = run_simulation(head, m2, opt);
  EXPECT_DOUBLE_EQ(a.avg_jct, b.avg_jct);
  EXPECT_DOUBLE_EQ(a.makespan, b.makespan);
  EXPECT_DOUBLE_EQ(a.p99_jct, b.p99_jct);
}

}  // namespace
}  // namespace muri
