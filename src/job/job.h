// The static description of a DL training job as submitted to the cluster.
// Runtime state (progress, placement, grouping) lives in the simulator.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "job/model.h"

namespace muri {

struct Job {
  JobId id = kInvalidJob;
  ModelKind model = ModelKind::kResNet18;
  // Number of GPUs (workers); the paper follows common practice and uses
  // powers of two (§5).
  int num_gpus = 1;
  Time submit_time = 0;
  // Total number of training iterations to run.
  std::int64_t iterations = 0;
  // Ground-truth per-iteration resource profile. Schedulers must not read
  // this directly; they see the (possibly noisy) profiler output.
  IterationProfile profile;

  // Solo runtime if the job ran alone from start to finish.
  Duration solo_duration() const noexcept {
    return static_cast<Duration>(iterations) * profile.iteration_time();
  }

  // GPU-time product used by SRSF/2D-LAS style priorities.
  double gpu_time(Duration t) const noexcept {
    return t * static_cast<double>(num_gpus);
  }

  std::string to_string() const;
};

// What a client submits to the daemon: the job's static description plus
// service-side knobs. The ground-truth profile is derived from (model,
// gpus) at admission into the engine, exactly like trace generation does.
struct JobSpec {
  ModelKind model = ModelKind::kResNet18;
  int num_gpus = 1;
  std::int64_t iterations = 0;
  // Client-chosen idempotency key; resubmitting an identical name returns
  // the original job id instead of a duplicate job. Empty = no dedupe.
  std::string name;
  // Start deadline in simulated seconds: a job still unscheduled this
  // long after submission is cancelled by the service (0 = none) — the
  // exemplar's start-deadline semantics.
  double deadline_s = 0;
};

// True if g is a positive power of two (the placement and bucketing logic
// relies on this normal form).
bool is_power_of_two(int g) noexcept;

}  // namespace muri
