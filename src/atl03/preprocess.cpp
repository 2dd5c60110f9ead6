#include "atl03/preprocess.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "geo/polar_stereo.hpp"
#include "util/stats.hpp"

namespace is2::atl03 {

namespace {

/// Along-track width of a geolocation cell [m], counted from along-track 0.
/// The ATL03 ATBD supplies geophysical corrections once per ~20 m
/// geolocation segment; here the first photon of each cell (the anchor) is
/// projected and corrected exactly and the others by a local expansion
/// around it.
constexpr double kGeolocationCellM = 20.0;
/// A photon further than this from its anchor in time starts a new anchor,
/// as does one outside PolarStereo::Local::near().
constexpr double kMaxAnchorDtS = 1.0;
/// Target bucket width of the along-track counting sort [m].
constexpr double kSortBucketM = 1.0;
/// Larger buckets are std::sort-ed, so a skewed spread stays O(n log n).
constexpr std::size_t kInsertionSortMax = 32;

using SortKey = std::pair<double, std::size_t>;  // (along_track, raw index)

/// Sort keys that arrive in raw-index order into (along_track, raw index)
/// order -- std::sort's order -- in O(n) for a beam's near-uniform spread: a
/// counting pass into ~1 m buckets (at most one per key), which keeps raw
/// order within a bucket, then a stable insertion sort per bucket.
void sort_along_track(std::vector<SortKey>& keys, double s_min, double s_max) {
  const std::size_t m = keys.size();
  if (m < 2) return;
  const double span = s_max - s_min;
  const std::size_t n_buckets = static_cast<std::size_t>(
      std::min(static_cast<double>(m), std::floor(span / kSortBucketM) + 1.0));
  if (n_buckets < 2) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  // Monotone in s, so bucket order is along-track order.
  const double scale = static_cast<double>(n_buckets - 1) / span;
  const auto bucket_of = [&](double s) {
    return std::min(static_cast<std::size_t>((s - s_min) * scale), n_buckets - 1);
  };
  // first[b]: one past bucket b after the prefix sum; the backward scatter
  // (stable) then steps it down to bucket b's first slot.
  std::vector<std::size_t> first(n_buckets, 0);
  for (const auto& k : keys) ++first[bucket_of(k.first)];
  for (std::size_t b = 1; b < n_buckets; ++b) first[b] += first[b - 1];
  std::vector<SortKey> sorted(m);
  for (std::size_t k = m; k-- > 0;) sorted[--first[bucket_of(keys[k].first)]] = keys[k];
  for (std::size_t b = 0; b < n_buckets; ++b) {
    const std::size_t lo = first[b];
    const std::size_t hi = b + 1 < n_buckets ? first[b + 1] : m;
    if (hi - lo > kInsertionSortMax) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(lo),
                sorted.begin() + static_cast<std::ptrdiff_t>(hi));
      continue;
    }
    for (std::size_t i = lo + 1; i < hi; ++i) {
      const SortKey key = sorted[i];
      std::size_t j = i;
      for (; j > lo && key.first < sorted[j - 1].first; --j) sorted[j] = sorted[j - 1];
      sorted[j] = key;
    }
  }
  keys.swap(sorted);
}

/// Background rate interpolated from the bckgrd_atlas bins to photon times.
/// Photons arrive in along-track order, so their times are nearly sorted: a
/// bracket cursor carried from one photon to the next steps to the
/// std::lower_bound index instead of binary-searching for it.
class BackgroundRate {
 public:
  BackgroundRate(const std::vector<double>& bin_t, const std::vector<double>& bin_rate)
      : t_(bin_t), rate_(bin_rate) {}

  double at(double t) {
    if (t_.empty()) return 0.0;
    if (t <= t_.front()) return rate_.front();
    if (t >= t_.back()) return rate_.back();
    // t_.front() < t < t_.back() keeps j_ in [1, size - 1].
    while (t_[j_] < t) ++j_;
    while (t_[j_ - 1] >= t) --j_;
    const double t0 = t_[j_ - 1], t1 = t_[j_];
    const double w = (t - t0) / (t1 - t0);
    return rate_[j_ - 1] * (1.0 - w) + rate_[j_] * w;
  }

 private:
  const std::vector<double>& t_;
  const std::vector<double>& rate_;
  std::size_t j_ = 1;
};

}  // namespace

PreprocessedBeam preprocess_beam(const Granule& granule, const BeamData& beam,
                                 const geo::GeoCorrections& corrections,
                                 const PreprocessConfig& config) {
  beam.check_consistent();
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();

  PreprocessedBeam out;
  out.beam = beam.beam;
  out.track_origin = granule.track_origin;
  out.track_heading = granule.track_heading;
  out.epoch_time = granule.epoch_time;

  // Confidence filter (dropping photons with a non-finite field), then sort
  // by along-track distance (footprint jitter makes raw order ragged). Keys
  // carry the raw index so equal distances keep raw order.
  const auto n = beam.size();
  std::vector<SortKey> keys;
  keys.reserve(n);
  double s_min = std::numeric_limits<double>::infinity();
  double s_max = -s_min;
  for (std::size_t i = 0; i < n; ++i) {
    if (beam.signal_conf[i] < static_cast<std::int8_t>(config.min_conf)) continue;
    const double s = beam.along_track[i];
    if (!(std::isfinite(s) && std::isfinite(beam.lon[i]) && std::isfinite(beam.lat[i]) &&
          std::isfinite(beam.h[i]) && std::isfinite(beam.delta_time[i])))
      continue;
    keys.emplace_back(s, i);
    s_min = std::min(s_min, s);
    s_max = std::max(s_max, s);
  }
  sort_along_track(keys, s_min, s_max);

  // Projection + geophysical correction + background interpolation, each
  // photon written once into its sorted slot. Anchors take the exact
  // projection and correction; the other photons of their cell expand
  // around them.
  const std::size_t m = keys.size();
  const bool has_truth = !beam.truth_class.empty();
  out.s.resize(m);
  out.h.resize(m);
  out.t.resize(m);
  out.x.resize(m);
  out.y.resize(m);
  out.bckgrd_rate.resize(m);
  if (has_truth) out.truth_class.resize(m);
  BackgroundRate bckgrd(beam.bckgrd_delta_time, beam.bckgrd_rate);
  geo::PolarStereo::Local cell_proj;
  geo::GeoCorrections::Local cell_corr;
  double cell_end = -std::numeric_limits<double>::infinity();
  double anchor_t = 0.0;
  for (std::size_t k = 0; k < m; ++k) {
    const auto [s, i] = keys[k];
    const geo::LonLat ll{beam.lon[i], beam.lat[i]};
    const double t = granule.epoch_time + beam.delta_time[i];
    if (s >= cell_end || std::abs(t - anchor_t) > kMaxAnchorDtS || !cell_proj.near(ll)) {
      cell_end = (std::floor(s / kGeolocationCellM) + 1.0) * kGeolocationCellM;
      anchor_t = t;
      cell_proj = proj.local(ll);
      const geo::Xy a = cell_proj.at(ll);
      if (config.apply_geo_correction) cell_corr = corrections.local(t, a.x, a.y);
    }
    const geo::Xy p = cell_proj.at(ll);
    double h = beam.h[i];
    if (config.apply_geo_correction) h -= cell_corr.at(t, p.x, p.y);
    out.s[k] = s;
    out.h[k] = h;
    out.t[k] = beam.delta_time[i];
    out.x[k] = p.x;
    out.y[k] = p.y;
    out.bckgrd_rate[k] = bckgrd.at(beam.delta_time[i]);
    if (has_truth) out.truth_class[k] = beam.truth_class[i];
  }

  if (m == 0) return out;

  // Reject ineffective reference photons: compare each photon to the median
  // height of its along-track bin (binned median = robust local surface).
  // The series is sorted, so each bin is one contiguous run of it: take the
  // run's median, then compact the run's survivors to the front of every
  // array, in place (w never passes the run's start).
  const double s0 = out.s.front();
  const auto bin_of = [&](double s) {
    return static_cast<std::size_t>((s - s0) / config.outlier_bin_m);
  };
  std::size_t w = 0;
  for (std::size_t lo = 0; lo < m;) {
    const std::size_t b = bin_of(out.s[lo]);
    std::size_t hi = lo + 1;
    while (hi < m && bin_of(out.s[hi]) == b) ++hi;
    const double median = util::median(std::span<const double>(out.h).subspan(lo, hi - lo));
    for (std::size_t k = lo; k < hi; ++k) {
      if (std::abs(out.h[k] - median) > config.outlier_threshold_m) continue;
      out.s[w] = out.s[k];
      out.h[w] = out.h[k];
      out.t[w] = out.t[k];
      out.x[w] = out.x[k];
      out.y[w] = out.y[k];
      out.bckgrd_rate[w] = out.bckgrd_rate[k];
      if (has_truth) out.truth_class[w] = out.truth_class[k];
      ++w;
    }
    lo = hi;
  }
  out.s.resize(w);
  out.h.resize(w);
  out.t.resize(w);
  out.x.resize(w);
  out.y.resize(w);
  out.bckgrd_rate.resize(w);
  if (has_truth) out.truth_class.resize(w);
  return out;
}

std::vector<PreprocessedBeam> preprocess_strong_beams(const Granule& granule,
                                                      const geo::GeoCorrections& corrections,
                                                      const PreprocessConfig& config) {
  std::vector<PreprocessedBeam> out;
  for (const auto& b : granule.beams)
    if (is_strong(b.beam)) out.push_back(preprocess_beam(granule, b, corrections, config));
  return out;
}

}  // namespace is2::atl03
