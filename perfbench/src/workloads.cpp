#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <fstream>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "alloc/equipartition.hpp"
#include "core/run.hpp"
#include "dag/builders.hpp"
#include "dag/profile_job.hpp"
#include "metrics/lower_bounds.hpp"
#include "rng.hpp"
#include "sim/validate.hpp"

namespace perfbench {

namespace {

using abg::dag::Steps;
using abg::dag::TaskCount;
using Phases = std::vector<abg::dag::builders::PhaseSpec>;

// fig6-sets: the paper's Figure 6 machine and loads.
constexpr int kFig6Processors = 128;
constexpr Steps kFig6Quantum = 1000;
constexpr int kFig6SetsPerLoad = 32;
constexpr double kFig6Loads[] = {0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 6.0};

// closed-50k and closed-50k-hier.
constexpr int kClosedProcessors = 256;
constexpr Steps kClosedQuantum = 50;
constexpr int kClosedJobs = 50000;
constexpr Steps kClosedPhaseLevels = 25;
constexpr int kHierGroups = 8;
constexpr Steps kHierRebalance = 8;

// open-stream.
constexpr int kOpenProcessors = 128;
constexpr Steps kOpenQuantum = 1000;
constexpr int kOpenArrivals = 200000;
constexpr double kOpenLoad = 0.8;

// Stream indexes of the benchmark's generator, one per input family.
constexpr std::uint64_t kFig6Stream = 0x100000;
constexpr std::uint64_t kClosedStream = 0x200000;
constexpr std::uint64_t kOpenJobStream = 0x300000;
constexpr std::uint64_t kOpenArrivalStream = 0x300001;

struct JobInput {
  Phases phases;
  abg::metrics::JobSummary summary;
};

JobInput make_input(Phases phases) {
  JobInput in;
  for (const auto& p : phases) {
    in.summary.work += p.width * p.length;
    in.summary.critical_path += p.length;
  }
  in.phases = std::move(phases);
  return in;
}

/// FNV-1a over the raw bytes of each value folded in.
class Digest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffU;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void add_double(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Per-repetition tracing state: the ledger the decorators flush into and
/// the main thread's own counters (job builds, factory calls).
struct Tracing {
  Ledger ledger;
  LayerTotals main_thread;
};

abg::core::SchedulerSpec make_spec(bool abg, Tracing* tracing) {
  abg::core::SchedulerSpec spec =
      abg ? abg::core::abg_spec() : abg::core::a_greedy_spec();
  if (tracing != nullptr) {
    spec.request = std::make_unique<TimedRequestPolicy>(
        std::move(spec.request), tracing->ledger);
  }
  return spec;
}

std::unique_ptr<abg::alloc::Allocator> make_allocator(Tracing* tracing) {
  auto deq = std::make_unique<abg::alloc::EquiPartition>();
  if (tracing == nullptr) {
    return deq;
  }
  return std::make_unique<TimedAllocator>(std::move(deq), tracing->ledger);
}

/// Builds one job through builders::profile_from_phases and
/// dag::ProfileJob; traced builds are timed and return a TimedJob.
std::unique_ptr<abg::dag::Job> build(const Phases& phases, Tracing* tracing) {
  if (tracing == nullptr) {
    return std::make_unique<abg::dag::ProfileJob>(
        abg::dag::builders::profile_from_phases(phases));
  }
  const Clock::time_point start = Clock::now();
  auto job = std::make_unique<abg::dag::ProfileJob>(
      abg::dag::builders::profile_from_phases(phases));
  tracing->main_thread.build_s += seconds_between(start, Clock::now());
  ++tracing->main_thread.build_calls;
  return std::make_unique<TimedJob>(std::move(job), tracing->ledger);
}

void fail(RepResult& rep, const std::string& message) {
  ++rep.failed_calls;
  if (rep.errors.size() < 8) {
    rep.errors.push_back(message);
  }
}

double lower_bound(const std::vector<JobInput>& jobs, int processors) {
  std::vector<abg::metrics::JobSummary> summaries;
  summaries.reserve(jobs.size());
  for (const JobInput& j : jobs) {
    summaries.push_back(j.summary);
  }
  return abg::metrics::makespan_lower_bound(summaries, processors);
}

/// One core::run_set call: builds the submissions (setup), runs the engine
/// (sim), then applies the correctness gate and folds the result digest.
void closed_call(const std::vector<JobInput>& jobs, bool abg,
                 abg::sim::SimConfig config, bool validate, RepResult& rep,
                 Digest& digest, Tracing* tracing, const std::string& label) {
  const Clock::time_point setup_start = Clock::now();
  std::vector<abg::sim::JobSubmission> submissions;
  submissions.reserve(jobs.size());
  for (const JobInput& j : jobs) {
    abg::sim::JobSubmission s;
    s.job = build(j.phases, tracing);
    s.release_step = j.summary.release;
    submissions.push_back(std::move(s));
  }
  rep.setup_s += seconds_between(setup_start, Clock::now());

  const abg::core::SchedulerSpec spec = make_spec(abg, tracing);
  const std::unique_ptr<abg::alloc::Allocator> allocator =
      make_allocator(tracing);
  std::vector<double> worker_busy;
  if (config.hier.groups > 0) {
    config.hier.worker_busy_seconds = &worker_busy;
  }

  ++rep.engine_calls;
  abg::sim::SimResult result;
  // The CPU clock is read inside the wall-clock interval, so a
  // single-threaded call never reports more CPU than wall time.
  const Clock::time_point sim_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  try {
    result = abg::core::run_set(spec, std::move(submissions), config,
                                allocator.get());
  } catch (const std::exception& e) {
    rep.sim_s += seconds_between(sim_start, Clock::now());
    fail(rep, label + ": engine threw: " + e.what());
    return;
  }
  const double cpu = process_cpu_seconds() - cpu_start;
  rep.sim_s += seconds_between(sim_start, Clock::now());
  rep.engine_cpu_s += cpu;
  if (config.hier.groups > 0) {
    rep.busy_s += std::accumulate(worker_busy.begin(), worker_busy.end(), 0.0);
    rep.loop_threads = static_cast<int>(worker_busy.size());
  } else {
    rep.busy_s += cpu;
  }

  const std::vector<std::string> issues =
      validate ? abg::sim::validate_result(result, config.processors)
               : std::vector<std::string>{};
  std::int64_t finished = 0;
  TaskCount work = 0;
  for (const abg::sim::JobTrace& t : result.jobs) {
    finished += t.finished() ? 1 : 0;
    work += t.work;
  }
  const double bound = lower_bound(jobs, config.processors);
  if (!issues.empty()) {
    fail(rep, label + ": validate_result: " + issues.front());
  } else if (finished != static_cast<std::int64_t>(jobs.size())) {
    fail(rep, label + ": " + std::to_string(finished) + " of " +
                  std::to_string(jobs.size()) + " jobs finished");
  } else if (static_cast<double>(result.makespan) < bound) {
    fail(rep, label + ": makespan " + std::to_string(result.makespan) +
                  " below lower bound " + std::to_string(bound));
  }
  rep.jobs_completed += finished;
  digest.add(static_cast<std::uint64_t>(result.makespan));
  digest.add(static_cast<std::uint64_t>(result.quanta));
  digest.add(static_cast<std::uint64_t>(result.total_waste));
  digest.add(static_cast<std::uint64_t>(work));
  digest.add_double(result.mean_response_time);
}

// ---- fig6-sets ----------------------------------------------------------

/// One Figure 6 fork-join job: 4 (serial, parallel) phase pairs whose
/// parallel width is the transition factor, log-uniform in [2, 100], and
/// whose phase lengths are log-uniform in [L/2, 2L].
Phases fig6_job(Rng& rng) {
  const double factor = rng.log_uniform(2.0, 100.0);
  const auto width =
      std::max<TaskCount>(1, static_cast<TaskCount>(std::llround(factor)));
  auto length = [&rng] {
    return static_cast<Steps>(
        std::llround(rng.log_uniform(static_cast<double>(kFig6Quantum) / 2,
                                     2.0 * static_cast<double>(kFig6Quantum))));
  };
  Phases phases;
  for (int pair = 0; pair < 4; ++pair) {
    phases.push_back({1, length()});
    phases.push_back({width, length()});
  }
  return phases;
}

/// Adds jobs until Σ T1/T∞ reaches load · P, keeping |J| <= P.
std::vector<JobInput> fig6_set(std::uint64_t seed, std::size_t load_index,
                               int set) {
  Rng rng(seed, kFig6Stream + (load_index << 12) +
                    static_cast<std::uint64_t>(set));
  const double target = kFig6Loads[load_index] * kFig6Processors;
  std::vector<JobInput> jobs;
  double parallelism = 0.0;
  while ((jobs.empty() || parallelism < target) &&
         jobs.size() < static_cast<std::size_t>(kFig6Processors)) {
    jobs.push_back(make_input(fig6_job(rng)));
    const auto& s = jobs.back().summary;
    parallelism +=
        static_cast<double>(s.work) / static_cast<double>(s.critical_path);
  }
  return jobs;
}

void run_fig6(const RepOptions& options, RepResult& rep, Digest& digest,
              Tracing* tracing) {
  const int sets = options.quarter ? kFig6SetsPerLoad / 4 : kFig6SetsPerLoad;
  const Clock::time_point gen_start = Clock::now();
  std::vector<std::vector<JobInput>> inputs;
  for (std::size_t li = 0; li < std::size(kFig6Loads); ++li) {
    for (int s = 0; s < sets; ++s) {
      inputs.push_back(fig6_set(options.seed, li, s));
    }
  }
  rep.setup_s += seconds_between(gen_start, Clock::now());

  abg::sim::SimConfig config;
  config.processors = kFig6Processors;
  config.quantum_length = kFig6Quantum;
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    // Each set is rebuilt for each scheduler so both face the same jobs.
    for (const bool abg : {true, false}) {
      closed_call(inputs[k], abg, config, options.validate, rep, digest,
                  tracing,
                  "fig6 set " + std::to_string(k) +
                      (abg ? " ABG" : " A-Greedy"));
    }
  }
}

// ---- closed-50k / closed-50k-hier ---------------------------------------

/// Square-wave jobs: width 1 and a width in [2, 12], 25 levels each,
/// two periods.
std::vector<JobInput> closed_jobs(std::uint64_t seed, int count) {
  Rng rng(seed, kClosedStream);
  std::vector<JobInput> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const TaskCount high = rng.uniform(2, 12);
    jobs.push_back(make_input({{1, kClosedPhaseLevels},
                               {high, kClosedPhaseLevels},
                               {1, kClosedPhaseLevels},
                               {high, kClosedPhaseLevels}}));
  }
  return jobs;
}

void run_closed(const RepOptions& options, bool hier, RepResult& rep,
                Digest& digest, Tracing* tracing) {
  const int count = options.quarter ? kClosedJobs / 4 : kClosedJobs;
  const Clock::time_point gen_start = Clock::now();
  const std::vector<JobInput> jobs = closed_jobs(options.seed, count);
  rep.setup_s += seconds_between(gen_start, Clock::now());

  abg::sim::SimConfig config;
  config.processors = kClosedProcessors;
  config.quantum_length = kClosedQuantum;
  if (hier) {
    config.hier.groups = kHierGroups;
    config.hier.rebalance_quanta = kHierRebalance;
    config.hier.threads = options.hier_threads;
  }
  closed_call(jobs, true, config, options.validate, rep, digest, tracing,
              hier ? "closed-50k-hier" : "closed-50k");
}

// ---- open-stream --------------------------------------------------------

/// Square-wave jobs sized to fractions of the quantum: 1-4 periods of a
/// serial phase and a parallel phase of width 2-16, each [L/16+1, L/4+1]
/// levels long.
std::vector<JobInput> open_jobs(std::uint64_t seed, int count) {
  Rng rng(seed, kOpenJobStream);
  constexpr Steps lo = kOpenQuantum / 16 + 1;
  constexpr Steps hi = kOpenQuantum / 4 + 1;
  std::vector<JobInput> jobs;
  jobs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    const Steps serial = rng.uniform(lo, hi);
    const Steps parallel = rng.uniform(lo, hi);
    const TaskCount width = rng.uniform(2, 16);
    const std::int64_t periods = rng.uniform(1, 4);
    Phases phases;
    for (std::int64_t p = 0; p < periods; ++p) {
      phases.push_back({1, serial});
      phases.push_back({width, parallel});
    }
    jobs.push_back(make_input(std::move(phases)));
  }
  return jobs;
}

/// Poisson releases at offered load kOpenLoad: exponential gaps with mean
/// E[T1] / (load · P), E[T1] taken over the generated jobs themselves.
void assign_releases(std::uint64_t seed, std::vector<JobInput>& jobs) {
  double work = 0.0;
  for (const JobInput& j : jobs) {
    work += static_cast<double>(j.summary.work);
  }
  const double mean_gap = work / static_cast<double>(jobs.size()) /
                          (kOpenLoad * kOpenProcessors);
  Rng rng(seed, kOpenArrivalStream);
  double t = 0.0;
  for (JobInput& j : jobs) {
    t -= mean_gap * std::log1p(-rng.unit());
    j.summary.release = static_cast<Steps>(t);
  }
}

void run_open(const RepOptions& options, RepResult& rep, Digest& digest,
              Tracing* tracing) {
  const int count = options.quarter ? kOpenArrivals / 4 : kOpenArrivals;
  const Clock::time_point gen_start = Clock::now();
  std::vector<JobInput> jobs = open_jobs(options.seed, count);
  assign_releases(options.seed, jobs);
  abg::open::OpenConfig config;
  config.processors = kOpenProcessors;
  config.quantum_length = kOpenQuantum;
  config.jobs_total = count;
  config.arrival = abg::open::ArrivalKind::kTrace;
  config.trace_path = options.scratch_dir + "/open-stream-" +
                      std::to_string(options.seed) + "-" +
                      std::to_string(count) + ".jsonl";
  {
    std::vector<abg::open::Arrival> arrivals;
    arrivals.reserve(jobs.size());
    for (const JobInput& j : jobs) {
      arrivals.push_back({j.summary.release, 1.0});
    }
    std::ofstream out(config.trace_path);
    abg::open::write_arrival_trace(out, arrivals);
    out.close();
    if (!out) {
      throw std::runtime_error("cannot write arrival trace " +
                               config.trace_path);
    }
  }
  rep.setup_s += seconds_between(gen_start, Clock::now());

  // The factory ignores the engine's per-job rng: job k is the k-th
  // generated input.  Admission is FCFS in release order, so the engine
  // must ask for jobs in index order; a mismatch fails the run.
  std::size_t next = 0;
  abg::open::JobFactory factory =
      [&](abg::util::Rng&,
          const abg::open::Arrival& arrival) -> std::unique_ptr<abg::dag::Job> {
    if (next >= jobs.size() || jobs[next].summary.release != arrival.release) {
      throw std::runtime_error("factory: arrival " + std::to_string(next) +
                               " out of order");
    }
    return build(jobs[next++].phases, tracing);
  };
  if (tracing != nullptr) {
    factory = timed_factory(std::move(factory), tracing->main_thread);
  }

  const abg::core::SchedulerSpec spec = make_spec(true, tracing);
  const std::unique_ptr<abg::alloc::Allocator> allocator =
      make_allocator(tracing);
  ++rep.engine_calls;
  abg::open::OpenResult result;
  // The CPU clock is read inside the wall-clock interval, so a
  // single-threaded call never reports more CPU than wall time.
  const Clock::time_point sim_start = Clock::now();
  const double cpu_start = process_cpu_seconds();
  try {
    result = abg::core::run_open(spec, config, options.seed, factory,
                                 allocator.get());
  } catch (const std::exception& e) {
    rep.sim_s += seconds_between(sim_start, Clock::now());
    fail(rep, std::string("open-stream: engine threw: ") + e.what());
    return;
  }
  const double cpu = process_cpu_seconds() - cpu_start;
  rep.sim_s += seconds_between(sim_start, Clock::now());
  rep.engine_cpu_s += cpu;
  rep.busy_s += cpu;

  TaskCount work = 0;
  for (const JobInput& j : jobs) {
    work += j.summary.work;
  }
  const double bound = lower_bound(jobs, config.processors);
  if (result.completed != count || result.admitted != count) {
    fail(rep, "open-stream: completed " + std::to_string(result.completed) +
                  " admitted " + std::to_string(result.admitted) + " of " +
                  std::to_string(count));
  } else if (result.total_work != work) {
    fail(rep, "open-stream: executed work " +
                  std::to_string(result.total_work) + " != generated " +
                  std::to_string(work));
  } else if (static_cast<double>(result.makespan) < bound) {
    fail(rep, "open-stream: makespan " + std::to_string(result.makespan) +
                  " below lower bound " + std::to_string(bound));
  }
  rep.jobs_completed += result.completed;
  digest.add(static_cast<std::uint64_t>(result.makespan));
  digest.add(static_cast<std::uint64_t>(result.quanta));
  digest.add(static_cast<std::uint64_t>(result.total_waste));
  digest.add(static_cast<std::uint64_t>(result.total_work));
  digest.add_double(result.stats.response().mean());
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fig6-sets", "closed-50k", "closed-50k-hier", "open-stream"};
  return names;
}

RepResult run_rep(const std::string& workload, const RepOptions& options) {
  RepResult rep;
  Digest digest;
  std::unique_ptr<Tracing> tracing =
      options.traced ? std::make_unique<Tracing>() : nullptr;
  if (workload == "fig6-sets") {
    run_fig6(options, rep, digest, tracing.get());
  } else if (workload == "closed-50k") {
    run_closed(options, false, rep, digest, tracing.get());
  } else if (workload == "closed-50k-hier") {
    run_closed(options, true, rep, digest, tracing.get());
  } else if (workload == "open-stream") {
    run_open(options, rep, digest, tracing.get());
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  rep.digest = digest.value();
  if (tracing != nullptr) {
    // Every decorator has been destroyed by now, so the ledger is final.
    rep.layers = tracing->ledger.totals();
    rep.layers.add(tracing->main_thread);
  }
  return rep;
}

}  // namespace perfbench
