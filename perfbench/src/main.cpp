// abg_perfbench: end-to-end and per-layer benchmark of the ABG simulator.
//
//   abg_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--revision REV] [--scratch DIR] [--digests FILE]
//   abg_perfbench --self-test [--digests FILE] [--scratch DIR]
//
// Untraced runs (--trace 0) repeat the workload and its quarter-size
// scaling point for S seconds and print the end-to-end metrics; traced
// runs (--trace 1) alternate untraced and traced repetitions and print the
// per-layer metrics.  The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  Any failed correctness
// check makes the exit code non-zero.  README.md explains every metric.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Clock;
using perfbench::RepOptions;
using perfbench::RepResult;

/// The seed whose digests are recorded in expected_digests.txt.
constexpr std::uint64_t kDefaultSeed = 1;
/// Fewest repetitions a run takes, however long they last, so every
/// reported time is a median of at least this many.
constexpr int kMinReps = 3;
/// Stop starting timed repetitions past this point so a run, warm-up
/// included, always ends well inside its 180-second limit.
constexpr double kHardStopSeconds = 100.0;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool self_test = false;
  std::string revision = "unknown";
  std::string scratch = ".";
  std::string digests;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "abg_perfbench: " << why
            << "\nusage: abg_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--revision REV] [--scratch DIR] "
               "[--digests FILE]\n       abg_perfbench --self-test "
               "[--digests FILE] [--scratch DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      args.self_test = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--revision") {
        args.revision = value;
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else if (flag == "--digests") {
        args.digests = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!args.self_test) {
    const auto& names = perfbench::workload_names();
    if (std::find(names.begin(), names.end(), args.workload) == names.end()) {
      usage("unknown workload '" + args.workload + "'");
    }
    if (!(args.seconds > 0.0)) {
      usage("--seconds must be positive");
    }
  }
  return args;
}

/// Recorded digests: one "workload seed hex" line each; # starts a comment.
std::map<std::string, std::uint64_t> load_digests(const std::string& path,
                                                  std::uint64_t seed) {
  std::map<std::string, std::uint64_t> out;
  if (path.empty()) {
    return out;
  }
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read digests file " + path);
  }
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string name;
    std::uint64_t file_seed = 0;
    std::string hex;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!(fields >> name >> file_seed >> hex)) {
      throw std::runtime_error("malformed digests line: " + line);
    }
    if (file_seed == seed) {
      out[name] = std::stoull(hex, nullptr, 16);
    }
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Tallies engine calls and failures; every failure message goes to
/// stderr as it is found.
struct Gate {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  void take(const RepResult& rep) {
    attempted += rep.engine_calls;
    failed += rep.failed_calls;
    for (const std::string& e : rep.errors) {
      std::cerr << "FAIL " << e << "\n";
    }
  }
  /// A repetition-level check (digest or count agreement) that failed.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      ++failed;
      std::cerr << "FAIL " << what << "\n";
    }
  }
};

void print_result(const Gate& gate, const std::vector<Metric>& metrics) {
  std::cout << "\n" << std::left;
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << std::string(24 - std::min<std::size_t>(
                                                   23, m.name.size()), ' ')
              << number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "  error_rate              "
            << number(gate.attempted > 0
                          ? static_cast<double>(gate.failed) /
                                static_cast<double>(gate.attempted)
                          : 1.0)
            << " (" << gate.failed << " of " << gate.attempted
            << " engine calls)\n";
  std::ostringstream json;
  json << "{\"correct\": " << (gate.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << gate.attempted
       << ", \"failed\": " << gate.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json << (i > 0 ? ", " : "") << "\"" << metrics[i].name
         << "\": {\"value\": " << number(metrics[i].value)
         << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

std::vector<Metric> end_to_end(const std::vector<RepResult>& full,
                               const std::vector<RepResult>& quarter) {
  std::vector<double> setup;
  std::vector<double> sim;
  std::vector<double> quarter_sim;
  std::vector<double> throughput;
  for (const RepResult& r : full) {
    setup.push_back(r.setup_s);
    sim.push_back(r.sim_s);
    throughput.push_back(static_cast<double>(r.jobs_completed) /
                         (r.setup_s + r.sim_s));
  }
  for (const RepResult& r : quarter) {
    quarter_sim.push_back(r.sim_s);
  }
  return {
      {"setup_s", median(setup), "s"},
      {"sim_s", median(sim), "s"},
      {"jobs_per_s", median(throughput), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
      {"scaling_exponent",
       std::log(median(sim) / median(quarter_sim)) / std::log(4.0), "1"},
  };
}

std::vector<Metric> per_layer(const std::vector<RepResult>& untraced,
                              const std::vector<RepResult>& traced) {
  // Counts come from the first traced repetition (all agree, checked by
  // the caller); times are medians over the traced repetitions.
  const perfbench::LayerTotals& c = traced.front().layers;
  auto med = [&traced](auto field) {
    std::vector<double> v;
    for (const RepResult& r : traced) {
      v.push_back(field(r));
    }
    return median(v);
  };
  const double run_quantum_s =
      med([](const RepResult& r) { return r.layers.run_quantum_s; });
  const double levels = static_cast<double>(c.levels_fixed) /
                        perfbench::kLevelScale;
  const double sim_s = med([](const RepResult& r) { return r.sim_s; });
  const double busy_s = med([](const RepResult& r) { return r.busy_s; });
  const double threads = traced.front().loop_threads;
  std::vector<double> untraced_sim;
  for (const RepResult& r : untraced) {
    untraced_sim.push_back(r.sim_s);
  }
  auto count = [](std::int64_t v) { return static_cast<double>(v); };
  return {
      {"dag.build_s", med([](const RepResult& r) { return r.layers.build_s; }),
       "s"},
      {"dag.build_calls", count(c.build_calls), "count"},
      {"dag.run_quantum_s", run_quantum_s, "s"},
      {"dag.run_quantum_calls", count(c.run_quantum_calls), "count"},
      {"dag.levels_crossed", levels, "levels"},
      {"dag.ns_per_level", levels > 0 ? run_quantum_s / levels * 1e9 : 0.0,
       "ns"},
      {"alloc.allocate_s",
       med([](const RepResult& r) { return r.layers.allocate_s; }), "s"},
      {"alloc.allocate_calls", count(c.allocate_calls), "count"},
      {"alloc.request_slots", count(c.request_slots), "count"},
      {"alloc.active_ratio",
       c.request_slots > 0
           ? count(c.nonzero_requests) / count(c.request_slots)
           : 0.0,
       "ratio"},
      {"sched.next_request_s",
       med([](const RepResult& r) { return r.layers.next_request_s; }), "s"},
      {"sched.next_request_calls", count(c.next_request_calls), "count"},
      {"open.factory_s",
       med([](const RepResult& r) { return r.layers.factory_s; }), "s"},
      {"open.factory_calls", count(c.factory_calls), "count"},
      {"sim.self_s", med([](const RepResult& r) {
         const perfbench::LayerTotals& l = r.layers;
         return r.engine_cpu_s - l.run_quantum_s - l.allocate_s -
                l.tracer_s - l.next_request_s - l.factory_s;
       }),
       "s"},
      {"hier.busy_s", busy_s, "s"},
      {"hier.barrier_wait_s", threads * sim_s - busy_s, "s"},
      {"hier.busy_ratio", busy_s / (threads * sim_s), "ratio"},
      {"trace.overhead_ratio", sim_s / median(untraced_sim), "ratio"},
  };
}

int run(const Args& args) {
  const std::map<std::string, std::uint64_t> expected =
      load_digests(args.digests, args.seed);
  RepOptions options;
  options.seed = args.seed;
  options.scratch_dir = args.scratch;

  Gate gate;
  // Warm-up: one untraced full-size repetition (plus the quarter-size one
  // in untraced runs), validated and not timed.  It lets allocator pools
  // and caches settle, and sim::validate_result — which costs up to 20
  // times the engine call it checks — runs once per distinct call instead
  // of once per repetition.  Every timed repetition must reproduce the
  // warm-up digests exactly.
  options.validate = true;
  const RepResult reference = perfbench::run_rep(args.workload, options);
  gate.take(reference);
  RepResult quarter_reference;
  if (!args.trace) {
    options.quarter = true;
    quarter_reference = perfbench::run_rep(args.workload, options);
    gate.take(quarter_reference);
  }
  options.validate = false;

  std::vector<RepResult> full;
  std::vector<RepResult> second;  // quarter-size, or traced
  const Clock::time_point start = Clock::now();
  for (;;) {
    const Clock::time_point rep_start = Clock::now();
    options.traced = false;
    options.quarter = false;
    full.push_back(perfbench::run_rep(args.workload, options));
    options.traced = args.trace;
    options.quarter = !args.trace;
    second.push_back(perfbench::run_rep(args.workload, options));
    gate.take(full.back());
    gate.take(second.back());
    std::cerr << "rep " << full.size() << ": setup_s " << full.back().setup_s
              << " sim_s " << full.back().sim_s << " cpu_s "
              << full.back().engine_cpu_s << " "
              << (args.trace ? "traced" : "quarter") << " sim_s "
              << second.back().sim_s << "\n";
    gate.check(full.back().digest == reference.digest,
               "full-size digest differs from the validated repetition");
    gate.check(second.back().digest ==
                   (args.trace ? reference : quarter_reference).digest,
               args.trace ? "traced digest differs from untraced"
                          : "quarter-size digest differs from the "
                            "validated repetition");
    if (args.trace) {
      gate.check(second.back().layers.same_counts(second.front().layers),
                 "traced layer counts differ between repetitions");
    }
    const double elapsed = perfbench::seconds_between(start, Clock::now());
    const double last = perfbench::seconds_between(rep_start, Clock::now());
    const int reps = static_cast<int>(full.size());
    if ((reps >= kMinReps && elapsed + last > args.seconds) ||
        elapsed + last > kHardStopSeconds) {
      break;
    }
  }
  const auto it = expected.find(args.workload);
  if (it != expected.end()) {
    gate.check(reference.digest == it->second,
               "digest " + hex(reference.digest) +
                   " differs from the recorded " + hex(it->second));
  }

  std::cout << "workload " << args.workload << " seed " << args.seed
            << " digest " << hex(reference.digest) << " repetitions "
            << full.size() << (args.trace ? " untraced + " : " full + ")
            << second.size() << (args.trace ? " traced" : " quarter-size")
            << "\n";
  print_result(gate, args.trace ? per_layer(full, second)
                                : end_to_end(full, second));
  return gate.failed == 0 ? 0 : 1;
}

/// Deterministic counts and digests must repeat exactly: across traced
/// repetitions, between traced and untraced runs, between 1 and 2 hier
/// threads, and against the digests recorded for the default seed.
int self_test(const Args& args) {
  const std::map<std::string, std::uint64_t> expected =
      load_digests(args.digests, kDefaultSeed);
  Gate gate;
  for (const std::string& name : perfbench::workload_names()) {
    RepOptions options;
    options.seed = kDefaultSeed;
    options.scratch_dir = args.scratch;
    const RepResult untraced = perfbench::run_rep(name, options);
    options.traced = true;
    options.validate = false;
    const RepResult first = perfbench::run_rep(name, options);
    const RepResult again = perfbench::run_rep(name, options);
    gate.take(untraced);
    gate.take(first);
    gate.take(again);
    gate.check(first.digest == untraced.digest,
               name + ": traced digest differs from untraced");
    gate.check(again.digest == untraced.digest,
               name + ": traced digest differs between runs");
    gate.check(first.layers.same_counts(again.layers),
               name + ": layer counts differ between runs");
    if (name == "closed-50k-hier") {
      options.hier_threads = 2;
      const RepResult two_threads = perfbench::run_rep(name, options);
      gate.take(two_threads);
      gate.check(two_threads.digest == untraced.digest,
                 name + ": digest differs between 1 and 2 threads");
      gate.check(two_threads.layers.same_counts(first.layers),
                 name + ": layer counts differ between 1 and 2 threads");
    }
    const auto it = expected.find(name);
    gate.check(it != expected.end() && it->second == untraced.digest,
               name + ": digest " + hex(untraced.digest) +
                   " does not match the recorded digest");
    const perfbench::LayerTotals& l = first.layers;
    std::cout << name << " " << kDefaultSeed << " " << hex(untraced.digest)
              << "  (run_quantum " << l.run_quantum_calls << ", allocate "
              << l.allocate_calls << ", slots " << l.request_slots
              << ", next_request " << l.next_request_calls << ", build "
              << l.build_calls << ", factory " << l.factory_calls << ")\n";
  }
  std::cout << (gate.failed == 0 ? "self-test passed" : "self-test FAILED")
            << " (" << gate.failed << " failures)\n";
  return gate.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  const bool optimized = build_type == "Release" ||
                         build_type == "RelWithDebInfo";
#else
  const bool optimized = false;
#endif
  if (!optimized) {
    std::cerr << "abg_perfbench: refusing to report metrics from an "
                 "unoptimised build (build type '"
              << build_type << "')\n";
    return 3;
  }
  const Args args = parse(argc, argv);
  std::cout << "provenance {\"build_type\": \"" << build_type
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER
            << "\", \"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
            << ", \"revision\": \"" << args.revision << "\", \"seed\": "
            << (args.self_test ? kDefaultSeed : args.seed) << "}\n";
  try {
    return args.self_test ? self_test(args) : run(args);
  } catch (const std::exception& e) {
    std::cerr << "abg_perfbench: " << e.what() << "\n";
    return 1;
  }
}
