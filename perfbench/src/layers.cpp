#include "layers.hpp"

#include <cmath>
#include <ctime>
#include <utility>

namespace perfbench {

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

void LayerTotals::add(const LayerTotals& o) {
  build_s += o.build_s;
  build_calls += o.build_calls;
  run_quantum_s += o.run_quantum_s;
  run_quantum_calls += o.run_quantum_calls;
  levels_fixed += o.levels_fixed;
  allocate_s += o.allocate_s;
  allocate_calls += o.allocate_calls;
  request_slots += o.request_slots;
  nonzero_requests += o.nonzero_requests;
  tracer_s += o.tracer_s;
  next_request_s += o.next_request_s;
  next_request_calls += o.next_request_calls;
  factory_s += o.factory_s;
  factory_calls += o.factory_calls;
}

bool LayerTotals::same_counts(const LayerTotals& o) const {
  return build_calls == o.build_calls &&
         run_quantum_calls == o.run_quantum_calls &&
         levels_fixed == o.levels_fixed &&
         allocate_calls == o.allocate_calls &&
         request_slots == o.request_slots &&
         nonzero_requests == o.nonzero_requests &&
         next_request_calls == o.next_request_calls &&
         factory_calls == o.factory_calls;
}

void Ledger::add(const LayerTotals& totals) {
  const std::lock_guard<std::mutex> lock(mutex_);
  totals_.add(totals);
}

LayerTotals Ledger::totals() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return totals_;
}

TimedAllocator::TimedAllocator(std::unique_ptr<abg::alloc::Allocator> inner,
                               Ledger& ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

TimedAllocator::~TimedAllocator() { ledger_.add(local_); }

void TimedAllocator::count(const std::vector<int>& requests,
                           Clock::time_point start, Clock::time_point end) {
  local_.allocate_s += seconds_between(start, end);
  ++local_.allocate_calls;
  local_.request_slots += static_cast<std::int64_t>(requests.size());
  std::int64_t nonzero = 0;
  for (const int r : requests) {
    nonzero += r != 0 ? 1 : 0;
  }
  local_.nonzero_requests += nonzero;
  local_.tracer_s += seconds_between(end, Clock::now());
}

std::vector<int> TimedAllocator::allocate(const std::vector<int>& requests,
                                          int total_processors) {
  const Clock::time_point start = Clock::now();
  std::vector<int> out = inner_->allocate(requests, total_processors);
  count(requests, start, Clock::now());
  return out;
}

std::vector<int> TimedAllocator::allocate_sized(
    const std::vector<int>& requests, const std::vector<double>& remaining,
    int total_processors) {
  const Clock::time_point start = Clock::now();
  std::vector<int> out =
      inner_->allocate_sized(requests, remaining, total_processors);
  count(requests, start, Clock::now());
  return out;
}

std::unique_ptr<abg::alloc::Allocator> TimedAllocator::clone() const {
  return std::make_unique<TimedAllocator>(inner_->clone(), ledger_);
}

TimedRequestPolicy::TimedRequestPolicy(
    std::unique_ptr<abg::sched::RequestPolicy> inner, Ledger& ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

TimedRequestPolicy::~TimedRequestPolicy() { ledger_.add(local_); }

int TimedRequestPolicy::next_request(
    const abg::sched::QuantumStats& completed) {
  const Clock::time_point start = Clock::now();
  const int request = inner_->next_request(completed);
  local_.next_request_s += seconds_between(start, Clock::now());
  ++local_.next_request_calls;
  return request;
}

std::unique_ptr<abg::sched::RequestPolicy> TimedRequestPolicy::clone()
    const {
  return std::make_unique<TimedRequestPolicy>(inner_->clone(), ledger_);
}

TimedJob::TimedJob(std::unique_ptr<abg::dag::Job> inner, Ledger& ledger)
    : inner_(std::move(inner)), ledger_(ledger) {}

TimedJob::~TimedJob() { ledger_.add(local_); }

abg::dag::QuantumExecution TimedJob::run_quantum(int procs,
                                                 abg::dag::Steps budget,
                                                 abg::dag::PickOrder order) {
  const Clock::time_point start = Clock::now();
  const abg::dag::QuantumExecution out =
      inner_->run_quantum(procs, budget, order);
  local_.run_quantum_s += seconds_between(start, Clock::now());
  ++local_.run_quantum_calls;
  local_.levels_fixed += std::llround(out.cpl * kLevelScale);
  return out;
}

std::unique_ptr<abg::dag::Job> TimedJob::fresh_clone() const {
  return std::make_unique<TimedJob>(inner_->fresh_clone(), ledger_);
}

abg::open::JobFactory timed_factory(abg::open::JobFactory inner,
                                    LayerTotals& local) {
  return [inner = std::move(inner), &local](
             abg::util::Rng& rng, const abg::open::Arrival& arrival) {
    const Clock::time_point start = Clock::now();
    std::unique_ptr<abg::dag::Job> job = inner(rng, arrival);
    local.factory_s += seconds_between(start, Clock::now());
    ++local.factory_calls;
    return job;
  };
}

}  // namespace perfbench
