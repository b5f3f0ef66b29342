// Timing decorators around the simulator's public layer interfaces.
//
// The traced run wraps every object the engines call through —
// alloc::Allocator, sched::RequestPolicy, dag::Job and the open-system
// JobFactory — in a decorator that forwards each call and times it with
// std::chrono::steady_clock.  Nothing inside the library is traced.
//
// Race freedom: the sharded engine runs allocator clones, request-policy
// clones and jobs on pool workers.  Each decorator object is only ever
// driven by one thread at a time, so it accumulates into its own plain
// counters and adds them to the shared Ledger, under the ledger's mutex,
// when it is destroyed.  Counts therefore come out exact at any thread
// count, and no counter is shared between threads while a run is live.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string_view>
#include <vector>

#include "alloc/allocator.hpp"
#include "dag/job.hpp"
#include "open/streaming_engine.hpp"
#include "sched/request_policy.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds consumed so far by every thread of this process.
double process_cpu_seconds();

/// Fixed-point scale for summing fractional levels exactly: per-quantum
/// critical-path lengths are rounded to 2^-20 levels and summed as
/// integers, so the total does not depend on summation order.
inline constexpr double kLevelScale = 1048576.0;

/// Per-layer totals of one traced run.  Times are host seconds; everything
/// else is an exact count.
struct LayerTotals {
  double build_s = 0.0;
  std::int64_t build_calls = 0;
  double run_quantum_s = 0.0;
  std::int64_t run_quantum_calls = 0;
  std::int64_t levels_fixed = 0;  // Σ cpl in units of 1 / kLevelScale
  double allocate_s = 0.0;
  std::int64_t allocate_calls = 0;
  std::int64_t request_slots = 0;
  std::int64_t nonzero_requests = 0;
  /// Time the allocator decorator spends counting nonzero requests; it is
  /// tracing cost, not engine work, and is excluded from sim.self_s.
  double tracer_s = 0.0;
  double next_request_s = 0.0;
  std::int64_t next_request_calls = 0;
  double factory_s = 0.0;
  std::int64_t factory_calls = 0;

  void add(const LayerTotals& other);
  /// True when every exact count matches (times are ignored).
  bool same_counts(const LayerTotals& other) const;
};

/// Thread-safe sink the decorators flush into when they are destroyed.
class Ledger {
 public:
  void add(const LayerTotals& totals);
  LayerTotals totals() const;

 private:
  mutable std::mutex mutex_;
  LayerTotals totals_;
};

class TimedAllocator final : public abg::alloc::Allocator {
 public:
  TimedAllocator(std::unique_ptr<abg::alloc::Allocator> inner,
                 Ledger& ledger);
  ~TimedAllocator() override;
  TimedAllocator(const TimedAllocator&) = delete;
  TimedAllocator& operator=(const TimedAllocator&) = delete;

  std::vector<int> allocate(const std::vector<int>& requests,
                            int total_processors) override;
  std::vector<int> allocate_sized(const std::vector<int>& requests,
                                  const std::vector<double>& remaining,
                                  int total_processors) override;
  int pool(int total_processors) const override {
    return inner_->pool(total_processors);
  }
  void reset() override { inner_->reset(); }
  bool size_aware() const override { return inner_->size_aware(); }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<abg::alloc::Allocator> clone() const override;

 private:
  void count(const std::vector<int>& requests, Clock::time_point start,
             Clock::time_point end);

  std::unique_ptr<abg::alloc::Allocator> inner_;
  Ledger& ledger_;
  LayerTotals local_;
};

class TimedRequestPolicy final : public abg::sched::RequestPolicy {
 public:
  TimedRequestPolicy(std::unique_ptr<abg::sched::RequestPolicy> inner,
                     Ledger& ledger);
  ~TimedRequestPolicy() override;
  TimedRequestPolicy(const TimedRequestPolicy&) = delete;
  TimedRequestPolicy& operator=(const TimedRequestPolicy&) = delete;

  int first_request() const override { return inner_->first_request(); }
  int next_request(const abg::sched::QuantumStats& completed) override;
  void reset() override { inner_->reset(); }
  std::string_view name() const override { return inner_->name(); }
  std::unique_ptr<abg::sched::RequestPolicy> clone() const override;

 private:
  std::unique_ptr<abg::sched::RequestPolicy> inner_;
  Ledger& ledger_;
  LayerTotals local_;
};

/// Forwards every dag::Job call; run_quantum is timed and its critical
/// path summed.  phase_view is forwarded so engines that evaluate quanta
/// in closed form still take that path.
class TimedJob final : public abg::dag::Job {
 public:
  TimedJob(std::unique_ptr<abg::dag::Job> inner, Ledger& ledger);
  ~TimedJob() override;
  TimedJob(const TimedJob&) = delete;
  TimedJob& operator=(const TimedJob&) = delete;

  bool finished() const override { return inner_->finished(); }
  abg::dag::TaskCount step(int procs, abg::dag::PickOrder order) override {
    return inner_->step(procs, order);
  }
  abg::dag::QuantumExecution run_quantum(int procs, abg::dag::Steps budget,
                                         abg::dag::PickOrder order) override;
  abg::dag::TaskCount total_work() const override {
    return inner_->total_work();
  }
  abg::dag::Steps critical_path() const override {
    return inner_->critical_path();
  }
  abg::dag::TaskCount completed_work() const override {
    return inner_->completed_work();
  }
  double level_progress() const override { return inner_->level_progress(); }
  abg::dag::TaskCount ready_count() const override {
    return inner_->ready_count();
  }
  abg::dag::PhaseView phase_view() const override {
    return inner_->phase_view();
  }
  std::unique_ptr<abg::dag::Job> fresh_clone() const override;

 private:
  std::unique_ptr<abg::dag::Job> inner_;
  Ledger& ledger_;
  LayerTotals local_;
};

/// Wraps an open-system job factory so each call is timed and counted
/// into `local`.  The returned factory must not outlive `local`, and —
/// like the open engine itself — is called from one thread only.
abg::open::JobFactory timed_factory(abg::open::JobFactory inner,
                                    LayerTotals& local);

}  // namespace perfbench
