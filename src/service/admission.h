// Bounded admission queue — the backpressure stage between the HTTP
// front door and the scheduling engine (borrowing the typed-queue /
// start-deadline / per-type-statistics idiom of the JobScheduler
// exemplar in SNIPPETS.md).
//
// POST /jobs lands here: the handler thread pushes, the daemon's event
// loop drains. The queue is strictly FIFO, capacity-bounded (a full
// queue rejects — the daemon answers 429 + Retry-After), and supports
// cancel-while-queued (DELETE /jobs/<id> before the submission ever
// reaches the engine). All operations are thread-safe; statistics are
// monotonic counters a metrics registry can mirror.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.h"
#include "job/job.h"

namespace muri::service {

struct QueuedSubmission {
  JobSpec spec;
  // Assigned at admission (ids are handed out before the engine sees the
  // job, so the POST response can carry one).
  JobId id = kInvalidJob;
  // Simulated submission time, stamped when the POST was accepted — a
  // job's queueing clock starts at the door, not at the drain.
  Time submit_time = 0;
};

class AdmissionQueue {
 public:
  struct Stats {
    std::int64_t accepted = 0;       // pushes that fit
    std::int64_t rejected_full = 0;  // pushes refused at capacity
    std::int64_t cancelled = 0;      // removed while queued
    std::int64_t drained = 0;        // handed to the engine
  };

  explicit AdmissionQueue(std::size_t capacity) : capacity_(capacity) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  // False (and no state change beyond the rejection counter) when full.
  bool try_push(QueuedSubmission submission);

  // Removes and returns everything, FIFO order.
  std::vector<QueuedSubmission> drain();

  // Removes a still-queued submission; false if `id` is not in the queue
  // (already drained, or never admitted).
  bool cancel(JobId id);

  // Copy of the queue contents, FIFO order (status endpoints report
  // admitted-but-not-yet-drained jobs from this).
  std::vector<QueuedSubmission> snapshot() const;
  bool contains(JobId id) const;

  std::size_t depth() const;
  std::size_t capacity() const noexcept { return capacity_; }
  Stats stats() const;

 private:
  mutable std::mutex mu_;
  std::deque<QueuedSubmission> queue_;
  const std::size_t capacity_;
  Stats stats_;
};

}  // namespace muri::service
