#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "util/stats.hpp"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace perfbench {

std::size_t nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n ? n : 1;
}

void Report::check(bool ok, const std::string& what) {
  std::printf("check %-60s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) correct = false;
}

double median(std::vector<double> xs) { return pct(std::move(xs), 50.0); }

double pct(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  return is2::util::percentile(xs, p);
}

std::string join(const std::vector<double>& xs) {
  std::string out;
  char buf[32];
  for (const double x : xs) {
    std::snprintf(buf, sizeof buf, out.empty() ? "%.6g" : " %.6g", x);
    out += buf;
  }
  return out;
}

void note_bimodal(const std::string& name, const std::vector<double>& xs) {
  if (xs.size() < 2) return;
  std::vector<double> s = xs;
  std::sort(s.begin(), s.end());
  // Largest ratio between neighbours, with at least 5% of the sample (and
  // one value) on each side of the gap.
  const std::size_t margin = std::max<std::size_t>(1, s.size() / 20);
  double gap = 1.0;
  for (std::size_t i = margin; i + margin <= s.size(); ++i)
    if (s[i - 1] > 0.0) gap = std::max(gap, s[i] / s[i - 1]);
  std::printf("shape %s: n=%zu min %.4g p50 %.4g p99 %.4g max %.4g, largest gap x%.2f -> %s\n",
              name.c_str(), s.size(), s.front(), pct(s, 50.0), pct(s, 99.0), s.back(), gap,
              gap > 1.5 ? "BIMODAL" : "unimodal");
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_environment(const Args& args) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("env nproc=%zu compiler=\"%s\" build_type=%s IS2_ENABLE_OPENMP=%s\n", nproc(),
              PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, PERFBENCH_OPENMP_OPTION);
#ifdef _OPENMP
  std::printf("env openmp=%d omp_get_max_threads=%d\n", _OPENMP, omp_get_max_threads());
#else
  std::printf("env openmp=off\n");
#endif
  for (const char* var : {"OMP_NUM_THREADS", "OMP_PROC_BIND", "OMP_PLACES", "OMP_DYNAMIC",
                          "OMP_WAIT_POLICY", "GOMP_SPINCOUNT"}) {
    const char* v = std::getenv(var);
    std::printf("env %s=%s\n", var, v ? v : "(unset)");
  }
}

}  // namespace perfbench
