// Deterministic fan-out driver for every parallel loop in the tree: N
// independent jobs (one guest execution per fault/mutant, one replay per
// timing configuration), each writing its result into a slot chosen by
// submission index.
//
// Determinism contract: because every job owns its slot and aggregation
// happens *after* the barrier by walking the slots in submission order, the
// output of run_affine() is bit-identical to a serial loop over the same
// jobs — regardless of thread count or OS scheduling. jobs == 1 starts no
// thread and runs the jobs inline on the caller's thread (the exact
// pre-parallelism code path).
//
// Progress contract: workers bump atomic counters (jobs done + a caller-
// defined 8-bucket histogram); a monitor thread may take consistent-enough
// snapshots at any time without perturbing the workers.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>

#include "common/bits.hpp"

namespace s4e::exec {

// Live counters for an in-flight campaign. Readable from any thread.
class CampaignProgress {
 public:
  static constexpr unsigned kBuckets = 8;

  struct Snapshot {
    u64 total = 0;
    u64 completed = 0;
    u64 buckets[kBuckets] = {};

    double fraction() const noexcept {
      return total == 0 ? 0.0
                        : static_cast<double>(completed) /
                              static_cast<double>(total);
    }
  };

  void begin(u64 total) noexcept {
    total_.store(total, std::memory_order_relaxed);
    completed_.store(0, std::memory_order_relaxed);
    for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  }

  // Called by workers once per finished job; `bucket` indexes the caller's
  // outcome histogram (fault Outcome / mutation Verdict).
  void record(unsigned bucket) noexcept {
    if (bucket < kBuckets) {
      buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_release);
  }

  Snapshot snapshot() const noexcept {
    Snapshot snap;
    snap.completed = completed_.load(std::memory_order_acquire);
    snap.total = total_.load(std::memory_order_relaxed);
    for (unsigned i = 0; i < kBuckets; ++i) {
      snap.buckets[i] = buckets_[i].load(std::memory_order_relaxed);
    }
    return snap;
  }

 private:
  std::atomic<u64> total_{0};
  std::atomic<u64> completed_{0};
  std::atomic<u64> buckets_[kBuckets]{};
};

class CampaignExecutor {
 public:
  // jobs == 0 resolves to std::thread::hardware_concurrency() (at least
  // 1); larger requests are capped at 4096. Starts no thread.
  explicit CampaignExecutor(unsigned jobs);

  unsigned jobs() const noexcept { return jobs_; }

  // Run job(worker, i) for every i in [0, count), where `worker`
  // identifies the executing lane (0..jobs()-1, stable for that lane's
  // whole lifetime). Only min(jobs(), count) lanes start, one thread each,
  // claiming indices from a shared atomic counter, so a lane can keep
  // worker-local state (e.g. a reusable vp::Machine) across the jobs it
  // executes while load balancing stays dynamic. Slots are indexed by
  // submission order. jobs() == 1 runs inline on the caller as lane 0.
  // A lane that throws stops claiming further indices, the remaining lanes
  // finish the campaign; once all lanes are joined the exception of the
  // lowest failed lane is rethrown.
  void run_affine(std::size_t count,
                  const std::function<void(unsigned, std::size_t)>& job);

 private:
  unsigned jobs_;
};

}  // namespace s4e::exec
