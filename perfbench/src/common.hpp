// Shared pieces of the end-to-end benchmark: command-line arguments, the
// metric report, and small timing/statistics helpers.
//
// The benchmark calls only public functions of the is2 library and times
// them from outside; nothing here reaches into the library's internals.
#pragma once

#include <chrono>
#include <map>
#include <cstdint>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
};

/// Seconds on the steady clock (arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Worker threads the benchmark may use: the machine's hardware threads.
std::size_t nproc();

/// One metric as the result line prints it.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What the stages hand back to main(): end-to-end metrics (untraced run)
/// or per-layer metrics (traced run), the operation counts, and the
/// correctness verdict (each check prints its own line).
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// Traced runs: tracing overhead per stage, (traced - untraced) / untraced.
  std::map<std::string, double> overhead;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Record a correctness check; a failed one fails the whole run.
  void check(bool ok, const std::string& what);
};

// -- statistics -------------------------------------------------------------

double median(std::vector<double> xs);
/// Linear-interpolated percentile (p in [0, 100]); 0 for an empty sample.
double pct(std::vector<double> xs, double p);
/// Space-separated values, for the progress lines.
std::string join(const std::vector<double>& xs);
/// Print a sample's shape and whether it splits into two clusters (the
/// OpenMP cliff shows up that way); the benchmark reports it, never hides it.
void note_bimodal(const std::string& name, const std::vector<double>& xs);
/// Peak resident set of this process so far, MiB.
double peak_rss_mb();

/// Median of `reps` set-up runs: the benchmark sets up several times per
/// run so `setup_s` is a median, not one noisy sample. `setup(i)` is called
/// reps times; each call replaces the previous state.
template <typename SetupFn>
double median_setup_s(std::size_t reps, SetupFn&& setup) {
  std::vector<double> times;
  for (std::size_t i = 0; i < reps; ++i) {
    const double t0 = now_s();
    setup(i);
    times.push_back(now_s() - t0);
  }
  return median(times);
}

inline constexpr std::size_t kSetupReps = 3;

/// Print the environment the numbers were taken in (nproc, compiler, build
/// type, OpenMP build option and run-time settings).
void print_environment(const Args& args);

}  // namespace perfbench
