// The benchmark's four workloads: input generation from the benchmark's
// own generator, one timed repetition through core::run_set or
// core::run_open, and the correctness gate on every engine call.
// README.md in this directory says why each workload exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "layers.hpp"

namespace perfbench {

/// The workload names, in the order the README lists them.
const std::vector<std::string>& workload_names();

struct RepOptions {
  std::uint64_t seed = 1;
  /// Run the quarter-size variant of the same generator (the scaling
  /// point): a quarter of the sets, jobs or arrivals.
  bool quarter = false;
  /// Wrap every layer in the timing decorators of layers.hpp.
  bool traced = false;
  /// Also run sim::validate_result on each closed-engine result.  The
  /// other checks of the gate run on every call regardless.
  bool validate = true;
  /// Worker threads of the sharded engine (closed-50k-hier only).  One by
  /// default: with two, sim_s of the same input ranged 1.4-2.9 s between
  /// runs on a 4-vCPU VM with hypervisor steal, because a descheduled
  /// worker stalls every epoch barrier.  The self-test runs two.
  int hier_threads = 1;
  /// Directory for the open-stream arrival trace file.
  std::string scratch_dir = ".";
};

struct RepResult {
  /// Host seconds generating inputs and building jobs before engine calls.
  double setup_s = 0.0;
  /// Host seconds inside core::run_set / core::run_open.
  double sim_s = 0.0;
  /// CPU seconds of all threads of the process during the engine calls.
  double engine_cpu_s = 0.0;
  /// Σ wall-clock busy seconds of the threads that ran the quantum loops,
  /// and how many there were.  Flat engines run on the calling thread,
  /// which counts as one worker busy for its CPU time.
  double busy_s = 0.0;
  int loop_threads = 1;
  std::int64_t jobs_completed = 0;
  std::int64_t engine_calls = 0;
  std::int64_t failed_calls = 0;
  /// FNV-1a over (makespan, quanta, Σ waste, Σ work, mean response) of
  /// every engine call, in call order.
  std::uint64_t digest = 0;
  std::vector<std::string> errors;
  /// Traced repetitions only.
  LayerTotals layers;
};

/// Runs one repetition of `workload`.  Throws std::invalid_argument for an
/// unknown workload; engine failures are recorded in the result instead.
RepResult run_rep(const std::string& workload, const RepOptions& options);

}  // namespace perfbench
