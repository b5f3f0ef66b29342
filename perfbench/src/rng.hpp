// The benchmark's own seeded generator.
//
// Every input the benchmark feeds the simulator is drawn from this
// generator, never from util::Rng or the workload:: / scenario::
// generators, so a change to the library's random streams can change how
// fast a workload runs but never what the workload is.
#pragma once

#include <cmath>
#include <cstdint>

namespace perfbench {

__extension__ using Uint128 = unsigned __int128;

/// SplitMix64: a small, portable 64-bit generator.  Integer draws use the
/// multiply-shift reduction and real draws the top 53 bits, so the stream
/// is identical on every platform.
class Rng {
 public:
  /// Stream `index` of `seed`; distinct (seed, index) pairs give
  /// independent-looking streams.
  Rng(std::uint64_t seed, std::uint64_t index)
      : state_(mix(seed ^ mix(index + 0x632be59bd9b4e019ULL))) {}

  std::uint64_t next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    return mix(state_);
  }

  /// Uniform real in [0, 1).
  double unit() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in [lo, hi].  Requires lo <= hi.
  std::int64_t uniform(std::int64_t lo, std::int64_t hi) {
    const Uint128 span =
        static_cast<Uint128>(static_cast<std::uint64_t>(hi - lo)) + 1;
    return lo + static_cast<std::int64_t>(
                    (static_cast<Uint128>(next()) * span) >> 64);
  }

  /// Log-uniform real in [lo, hi].  Requires 0 < lo <= hi.
  double log_uniform(double lo, double hi) {
    return lo * std::exp(unit() * std::log(hi / lo));
  }

 private:
  static std::uint64_t mix(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t state_;
};

}  // namespace perfbench
