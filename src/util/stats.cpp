#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace is2::util {

void RunningStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStats::merge(const RunningStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double nt = na + nb;
  mean_ += delta * nb / nt;
  m2_ += other.m2_ + delta * delta * na * nb / nt;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size() - 1);
}

double stddev(std::span<const double> xs) { return std::sqrt(variance(xs)); }

double median(std::span<const double> xs) { return percentile(xs, 50.0); }

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  if (p < 0.0 || p > 100.0) throw std::invalid_argument("percentile: p outside [0,100]");
  std::vector<double> v(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const auto hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  // One order-statistic selection instead of a full sort: after it,
  // everything past position lo is >= v[lo], so the hi = lo + 1-th order
  // statistic is the tail's minimum.
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(v.begin(), mid, v.end());
  const double v_lo = v[lo];
  const double v_hi = hi != lo ? *std::min_element(mid + 1, v.end()) : v_lo;
  return v_lo * (1.0 - frac) + v_hi * frac;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
  if (bins == 0) throw std::invalid_argument("Histogram: bins must be > 0");
  if (!(hi > lo)) throw std::invalid_argument("Histogram: hi must be > lo");
}

void Histogram::add(double x) {
  // NaN must never reach a float->integer cast: std::floor(NaN) is NaN and
  // converting it is undefined behavior. Count such samples separately.
  if (std::isnan(x)) {
    ++nan_;
    return;
  }
  // Clamp in floating point BEFORE the integer cast so +/-inf (and anything
  // past ptrdiff_t range) lands in an edge bin instead of hitting the same
  // undefined cast.
  const double idx = std::floor((x - lo_) / width_);
  const double last = static_cast<double>(counts_.size() - 1);
  const auto bin = static_cast<std::size_t>(std::clamp(idx, 0.0, last));
  ++counts_[bin];
  ++total_;
}

void Histogram::merge(const Histogram& other) {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ || other.hi_ != hi_)
    throw std::invalid_argument("Histogram::merge: incompatible binning");
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  nan_ += other.nan_;
}

double Histogram::bin_center(std::size_t bin) const {
  return lo_ + (static_cast<double>(bin) + 0.5) * width_;
}

double Histogram::mode() const {
  std::size_t best = 0;
  for (std::size_t i = 1; i < counts_.size(); ++i)
    if (counts_[i] > counts_[best]) best = i;
  return bin_center(best);
}

double Histogram::density(std::size_t bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / (static_cast<double>(total_) * width_);
}

std::string Histogram::render(std::size_t max_width) const {
  std::size_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%+9.3f | ", bin_center(i));
    out += buf;
    const auto w = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) * static_cast<double>(max_width));
    out.append(w, '#');
    std::snprintf(buf, sizeof buf, " %zu\n", counts_[i]);
    out += buf;
  }
  return out;
}

double histogram_quantile(const Histogram& hist, double q) {
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("histogram_quantile: q outside [0,1]");
  if (hist.total() == 0) return hist.lo();
  const double target = q * static_cast<double>(hist.total());
  std::size_t cum = 0;
  for (std::size_t b = 0; b < hist.bins(); ++b) {
    const std::size_t c = hist.count(b);
    if (c == 0) continue;
    if (static_cast<double>(cum + c) >= target) {
      const double frac =
          std::clamp((target - static_cast<double>(cum)) / static_cast<double>(c), 0.0, 1.0);
      return hist.lo() + (static_cast<double>(b) + frac) * hist.bin_width();
    }
    cum += c;
  }
  return hist.hi();
}

double pearson(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size() || x.size() < 2) return 0.0;
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double rms_diff(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("rms_diff: size mismatch");
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = x[i] - y[i];
    s += d * d;
  }
  return std::sqrt(s / static_cast<double>(x.size()));
}

}  // namespace is2::util
