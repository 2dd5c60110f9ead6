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

/// Interpolate background-rate bins to an arbitrary time.
double interp_background(const std::vector<double>& bin_t, const std::vector<double>& bin_rate,
                         double t) {
  if (bin_t.empty()) return 0.0;
  if (t <= bin_t.front()) return bin_rate.front();
  if (t >= bin_t.back()) return bin_rate.back();
  const auto it = std::lower_bound(bin_t.begin(), bin_t.end(), t);
  const auto i = static_cast<std::size_t>(it - bin_t.begin());
  const double t0 = bin_t[i - 1], t1 = bin_t[i];
  const double w = (t - t0) / (t1 - t0);
  return bin_rate[i - 1] * (1.0 - w) + bin_rate[i] * w;
}

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

  // Confidence filter, then sort by along-track distance (footprint jitter
  // makes raw order ragged). Keys carry the raw index so equal distances
  // keep raw order.
  const auto n = beam.size();
  std::vector<std::pair<double, std::size_t>> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (beam.signal_conf[i] >= static_cast<std::int8_t>(config.min_conf))
      keys.emplace_back(beam.along_track[i], i);
  std::sort(keys.begin(), keys.end());

  // Projection + geophysical correction + background interpolation, each
  // photon written once into its sorted slot.
  const std::size_t m = keys.size();
  const bool has_truth = !beam.truth_class.empty();
  out.s.resize(m);
  out.h.resize(m);
  out.t.resize(m);
  out.x.resize(m);
  out.y.resize(m);
  out.bckgrd_rate.resize(m);
  if (has_truth) out.truth_class.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t i = keys[k].second;
    const geo::Xy p = proj.forward({beam.lon[i], beam.lat[i]});
    double h = beam.h[i];
    if (config.apply_geo_correction)
      h -= corrections.total(granule.epoch_time + beam.delta_time[i], p.x, p.y);
    out.s[k] = keys[k].first;
    out.h[k] = h;
    out.t[k] = beam.delta_time[i];
    out.x[k] = p.x;
    out.y[k] = p.y;
    out.bckgrd_rate[k] =
        interp_background(beam.bckgrd_delta_time, beam.bckgrd_rate, beam.delta_time[i]);
    if (has_truth) out.truth_class[k] = beam.truth_class[i];
  }

  if (m == 0) return out;

  // Reject ineffective reference photons: compare each photon to the median
  // height of its along-track bin (binned median = robust local surface).
  // The series is sorted, so each bin is one contiguous run of it.
  const double s0 = out.s.front();
  const auto bin_of = [&](double s) {
    return static_cast<std::size_t>((s - s0) / config.outlier_bin_m);
  };
  const std::size_t n_bins = bin_of(out.s.back()) + 1;
  std::vector<double> bin_median(n_bins, std::numeric_limits<double>::quiet_NaN());
  for (std::size_t lo = 0; lo < m;) {
    const std::size_t b = bin_of(out.s[lo]);
    std::size_t hi = lo + 1;
    while (hi < m && bin_of(out.s[hi]) == b) ++hi;
    bin_median[b] = util::median(std::span<const double>(out.h).subspan(lo, hi - lo));
    lo = hi;
  }
  // Fill empty bins from the nearest non-empty neighbour.
  for (std::size_t b = 0; b < n_bins; ++b) {
    if (!std::isnan(bin_median[b])) continue;
    for (std::size_t d = 1; d < n_bins; ++d) {
      if (b >= d && !std::isnan(bin_median[b - d])) { bin_median[b] = bin_median[b - d]; break; }
      if (b + d < n_bins && !std::isnan(bin_median[b + d])) { bin_median[b] = bin_median[b + d]; break; }
    }
  }

  // Compact the survivors to the front of every array, in place.
  std::size_t w = 0;
  for (std::size_t k = 0; k < m; ++k) {
    if (std::abs(out.h[k] - bin_median[bin_of(out.s[k])]) > config.outlier_threshold_m) continue;
    out.s[w] = out.s[k];
    out.h[w] = out.h[k];
    out.t[w] = out.t[k];
    out.x[w] = out.x[k];
    out.y[w] = out.y[k];
    out.bckgrd_rate[w] = out.bckgrd_rate[k];
    if (has_truth) out.truth_class[w] = out.truth_class[k];
    ++w;
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
