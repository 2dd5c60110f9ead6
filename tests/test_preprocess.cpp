// Preprocessing tests: confidence filtering, geophysical correction,
// outlier rejection, along-track ordering, and agreement with a reference
// copy of the original two-pass algorithm that projects and corrects every
// photon with exact libm calls.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>
#include <type_traits>

#include "atl03/photon_sim.hpp"
#include "atl03/preprocess.hpp"
#include "geo/polar_stereo.hpp"
#include "util/stats.hpp"

// Counting global operator new: bytes allocated while counting is on, so a
// test can bound what one call allocates.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<std::size_t> g_allocated_bytes{0};
}  // namespace

// The nothrow forms are replaced too (std::stable_sort's temporary buffer
// uses them), so every scalar new/delete pair is malloc/free, also under a
// sanitizer that supplies its own defaults.
void* operator new(std::size_t bytes, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed))
    g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return std::malloc(bytes ? bytes : 1);
}
void* operator new(std::size_t bytes) {
  if (void* p = operator new(bytes, std::nothrow)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

using namespace is2;

/// Bytes `fn` allocates through operator new.
template <typename Fn>
std::size_t allocated_bytes(Fn fn) {
  g_allocated_bytes = 0;
  g_count_allocations = true;
  fn();
  g_count_allocations = false;
  return g_allocated_bytes;
}
using atl03::BeamId;
using atl03::PreprocessConfig;
using atl03::SignalConf;

struct FixtureImpl {
  geo::GeoCorrections corrections{7};
  atl03::SurfaceConfig scfg;
  geo::GroundTrack track;
  atl03::SurfaceModel surface;
  atl03::Granule granule;

  explicit FixtureImpl(double length = 6'000.0)
      : track(geo::PolarStereo::epsg3976().forward({-165.0, -75.5}), 0.3),
        surface((scfg.length_m = length, scfg), track, corrections, 21),
        granule(atl03::PhotonSimulator(atl03::InstrumentConfig{}, 22)
                    .simulate_granule(surface, "ATL03_PRE", 50.0)) {}
};

/// The granule simulation is the slow part; all tests here only read it, so
/// one shared instance serves the whole suite.
struct Fixture {
  static FixtureImpl& get() {
    static FixtureImpl instance;
    return instance;
  }
  geo::GeoCorrections& corrections = get().corrections;
  atl03::Granule& granule = get().granule;
};

TEST(Preprocess, KeepsOnlyHighConfidenceByDefault) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const auto pre = atl03::preprocess_beam(fx.granule, raw, fx.corrections);
  std::size_t high = 0;
  for (auto c : raw.signal_conf)
    if (c == static_cast<std::int8_t>(SignalConf::High)) ++high;
  EXPECT_LE(pre.size(), high);           // outlier filter can drop a few more
  EXPECT_GT(pre.size(), high * 9 / 10);  // but not many
}

TEST(Preprocess, LowerThresholdKeepsMore) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  PreprocessConfig strict;
  strict.min_conf = SignalConf::High;
  PreprocessConfig loose;
  loose.min_conf = SignalConf::Low;
  const auto a = atl03::preprocess_beam(fx.granule, raw, fx.corrections, strict);
  const auto b = atl03::preprocess_beam(fx.granule, raw, fx.corrections, loose);
  EXPECT_GT(b.size(), a.size());
}

TEST(Preprocess, OutputSortedAlongTrack) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  for (std::size_t i = 1; i < pre.size(); ++i) EXPECT_GE(pre.s[i], pre.s[i - 1]);
}

TEST(Preprocess, GeoCorrectionRemovesGeoidOffset) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  PreprocessConfig with;
  PreprocessConfig without;
  without.apply_geo_correction = false;
  const auto corrected = atl03::preprocess_beam(fx.granule, raw, fx.corrections, with);
  const auto uncorrected = atl03::preprocess_beam(fx.granule, raw, fx.corrections, without);
  // Uncorrected heights sit ~-55 m (geoid); corrected heights near zero.
  EXPECT_LT(util::mean(uncorrected.h), -40.0);
  EXPECT_LT(std::abs(util::mean(corrected.h)), 2.0);
}

TEST(Preprocess, OutlierRejectionRemovesPlantedSpike) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);  // copy
  // Plant obvious outliers tagged high-confidence.
  for (int k = 0; k < 20; ++k) {
    const std::size_t i = 100 + static_cast<std::size_t>(k) * 50;
    raw.h[i] += 200.0;
  }
  const auto pre = atl03::preprocess_beam(fx.granule, raw, fx.corrections);
  for (std::size_t i = 0; i < pre.size(); ++i)
    EXPECT_LT(std::abs(pre.h[i] - util::median(pre.h)), 50.0);
}

TEST(Preprocess, BackgroundRatesInterpolatedPerPhoton) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  ASSERT_EQ(pre.bckgrd_rate.size(), pre.size());
  for (double r : pre.bckgrd_rate) EXPECT_GE(r, 0.0);
  // Rates should vary along the track (albedo-dependent background).
  EXPECT_GT(util::stddev(pre.bckgrd_rate), 1.0);
}

TEST(Preprocess, StrongBeamsOnlyHelper) {
  Fixture fx;
  const auto beams = atl03::preprocess_strong_beams(fx.granule, fx.corrections);
  EXPECT_EQ(beams.size(), 3u);
  for (const auto& b : beams) EXPECT_TRUE(atl03::is_strong(b.beam));
}

TEST(Preprocess, TruthCarriedThrough) {
  Fixture fx;
  const auto pre =
      atl03::preprocess_beam(fx.granule, fx.granule.beam(BeamId::Gt2r), fx.corrections);
  ASSERT_EQ(pre.truth_class.size(), pre.size());
}

TEST(Preprocess, EmptyBeamYieldsEmptyResult) {
  Fixture fx;
  atl03::BeamData empty;
  empty.beam = BeamId::Gt1r;
  const auto pre = atl03::preprocess_beam(fx.granule, empty, fx.corrections);
  EXPECT_EQ(pre.size(), 0u);
}

// ---------------------------------------------------------------------------
// Reference oracle: the original two-pass preprocess_beam (index sort, build
// every array, bin medians via one vector per bin, then copy the survivors
// into a second beam). The one change is std::stable_sort in place of
// std::sort: the original left the order of equal along-track distances
// unspecified, and raw index order is the order preprocess_beam now
// guarantees. It projects and corrects every photon with the exact
// PolarStereo::forward and GeoCorrections::total, the oracle for
// preprocess_beam's per-cell expansions.
// ---------------------------------------------------------------------------

double interp_background_reference(const std::vector<double>& bin_t,
                                   const std::vector<double>& bin_rate, double t) {
  if (bin_t.empty()) return 0.0;
  if (t <= bin_t.front()) return bin_rate.front();
  if (t >= bin_t.back()) return bin_rate.back();
  const auto it = std::lower_bound(bin_t.begin(), bin_t.end(), t);
  const auto i = static_cast<std::size_t>(it - bin_t.begin());
  const double t0 = bin_t[i - 1], t1 = bin_t[i];
  const double w = (t - t0) / (t1 - t0);
  return bin_rate[i - 1] * (1.0 - w) + bin_rate[i] * w;
}

atl03::PreprocessedBeam preprocess_beam_reference(const atl03::Granule& granule,
                                                  const atl03::BeamData& beam,
                                                  const geo::GeoCorrections& corrections,
                                                  const PreprocessConfig& config) {
  beam.check_consistent();
  const geo::PolarStereo proj = geo::PolarStereo::epsg3976();

  atl03::PreprocessedBeam out;
  out.beam = beam.beam;
  out.track_origin = granule.track_origin;
  out.track_heading = granule.track_heading;
  out.epoch_time = granule.epoch_time;

  const auto n = beam.size();
  std::vector<std::size_t> keep;
  keep.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (beam.signal_conf[i] >= static_cast<std::int8_t>(config.min_conf)) keep.push_back(i);
  std::stable_sort(keep.begin(), keep.end(), [&](std::size_t a, std::size_t b) {
    return beam.along_track[a] < beam.along_track[b];
  });

  out.s.reserve(keep.size());
  for (std::size_t i : keep) {
    const geo::Xy p = proj.forward({beam.lon[i], beam.lat[i]});
    double h = beam.h[i];
    if (config.apply_geo_correction)
      h -= corrections.total(granule.epoch_time + beam.delta_time[i], p.x, p.y);
    out.s.push_back(beam.along_track[i]);
    out.h.push_back(h);
    out.t.push_back(beam.delta_time[i]);
    out.x.push_back(p.x);
    out.y.push_back(p.y);
    out.bckgrd_rate.push_back(
        interp_background_reference(beam.bckgrd_delta_time, beam.bckgrd_rate, beam.delta_time[i]));
    if (!beam.truth_class.empty()) out.truth_class.push_back(beam.truth_class[i]);
  }

  if (out.s.empty()) return out;

  const double s0 = out.s.front();
  const auto n_bins =
      static_cast<std::size_t>((out.s.back() - s0) / config.outlier_bin_m) + 1;
  std::vector<std::vector<double>> bins(n_bins);
  for (std::size_t i = 0; i < out.s.size(); ++i)
    bins[static_cast<std::size_t>((out.s[i] - s0) / config.outlier_bin_m)].push_back(out.h[i]);
  std::vector<double> bin_median(n_bins, 0.0);
  for (std::size_t b = 0; b < n_bins; ++b)
    bin_median[b] = bins[b].empty() ? std::numeric_limits<double>::quiet_NaN()
                                    : util::median(bins[b]);
  for (std::size_t b = 0; b < n_bins; ++b) {
    if (!std::isnan(bin_median[b])) continue;
    for (std::size_t d = 1; d < n_bins; ++d) {
      if (b >= d && !std::isnan(bin_median[b - d])) { bin_median[b] = bin_median[b - d]; break; }
      if (b + d < n_bins && !std::isnan(bin_median[b + d])) { bin_median[b] = bin_median[b + d]; break; }
    }
  }

  atl03::PreprocessedBeam filtered;
  filtered.beam = out.beam;
  filtered.track_origin = out.track_origin;
  filtered.track_heading = out.track_heading;
  filtered.epoch_time = out.epoch_time;
  for (std::size_t i = 0; i < out.s.size(); ++i) {
    const auto b = static_cast<std::size_t>((out.s[i] - s0) / config.outlier_bin_m);
    if (std::abs(out.h[i] - bin_median[b]) > config.outlier_threshold_m) continue;
    filtered.s.push_back(out.s[i]);
    filtered.h.push_back(out.h[i]);
    filtered.t.push_back(out.t[i]);
    filtered.x.push_back(out.x[i]);
    filtered.y.push_back(out.y[i]);
    filtered.bckgrd_rate.push_back(out.bckgrd_rate[i]);
    if (!out.truth_class.empty()) filtered.truth_class.push_back(out.truth_class[i]);
  }
  return filtered;
}

template <typename T>
bool bitwise_equal(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
    worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

/// Tolerances of the geolocation-cell expansion against exact libm, fixed
/// before measuring: projection 1e-6 m, corrected height 1e-5 m.
constexpr double kXyTol = 1e-6;
constexpr double kHTol = 1e-5;

struct GeometryError {
  double xy = 0.0;
  double h = 0.0;
};

/// Output order, survivors and every non-geometric field bitwise; x, y and
/// h within the expansion's tolerances.
GeometryError expect_matches_reference(const atl03::PreprocessedBeam& got,
                                       const atl03::PreprocessedBeam& want) {
  EXPECT_EQ(got.beam, want.beam);
  EXPECT_TRUE(bitwise_equal(std::vector<double>{got.track_origin.x, got.track_origin.y,
                                                got.track_heading, got.epoch_time},
                            std::vector<double>{want.track_origin.x, want.track_origin.y,
                                                want.track_heading, want.epoch_time}));
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(bitwise_equal(got.s, want.s)) << "s";
  EXPECT_TRUE(bitwise_equal(got.t, want.t)) << "t";
  EXPECT_TRUE(bitwise_equal(got.bckgrd_rate, want.bckgrd_rate)) << "bckgrd_rate";
  EXPECT_TRUE(bitwise_equal(got.truth_class, want.truth_class)) << "truth_class";
  const GeometryError err{std::max(max_abs_diff(got.x, want.x), max_abs_diff(got.y, want.y)),
                          max_abs_diff(got.h, want.h)};
  EXPECT_LE(err.xy, kXyTol) << "x/y";
  EXPECT_LE(err.h, kHTol) << "h";
  return err;
}

atl03::PreprocessedBeam check_against_reference(const atl03::BeamData& beam,
                                                const PreprocessConfig& config = {},
                                                GeometryError* error = nullptr) {
  Fixture fx;
  const auto got = atl03::preprocess_beam(fx.granule, beam, fx.corrections, config);
  const auto err = expect_matches_reference(
      got, preprocess_beam_reference(fx.granule, beam, fx.corrections, config));
  if (error) *error = err;
  return got;
}

/// The photons of `beam` for which keep(i) holds, every per-photon array cut
/// alike; background bins are kept whole.
template <typename Pred>
atl03::BeamData select_photons(const atl03::BeamData& beam, Pred keep) {
  atl03::BeamData out;
  out.beam = beam.beam;
  out.bckgrd_delta_time = beam.bckgrd_delta_time;
  out.bckgrd_rate = beam.bckgrd_rate;
  for (std::size_t i = 0; i < beam.size(); ++i) {
    if (!keep(i)) continue;
    out.delta_time.push_back(beam.delta_time[i]);
    out.lat.push_back(beam.lat[i]);
    out.lon.push_back(beam.lon[i]);
    out.h.push_back(beam.h[i]);
    out.along_track.push_back(beam.along_track[i]);
    out.signal_conf.push_back(beam.signal_conf[i]);
    if (!beam.truth_class.empty()) out.truth_class.push_back(beam.truth_class[i]);
  }
  return out;
}

TEST(PreprocessReference, FixtureMatchesAcrossConfigs) {
  Fixture fx;
  GeometryError worst;
  for (const auto& beam : fx.granule.beams)
    for (const auto conf : {SignalConf::Low, SignalConf::High})
      for (const bool geo : {true, false}) {
        SCOPED_TRACE(testing::Message() << "conf " << static_cast<int>(conf) << " geo " << geo);
        PreprocessConfig cfg;
        cfg.min_conf = conf;
        cfg.apply_geo_correction = geo;
        GeometryError err;
        const auto got = check_against_reference(beam, cfg, &err);
        EXPECT_GT(got.size(), 0u);
        worst = {std::max(worst.xy, err.xy), std::max(worst.h, err.h)};
      }
  std::printf("max |dx|,|dy| %.3g m, max |dh| %.3g m against exact libm\n", worst.xy, worst.h);
}

TEST(PreprocessReference, CellAnchorsAreBitExact) {
  // With no outlier rejection, the first output photon of each 20 m
  // along-track cell is that cell's anchor: projected and corrected by the
  // exact path, so it keeps the reference's bits.
  Fixture fx;
  PreprocessConfig cfg;
  cfg.outlier_threshold_m = std::numeric_limits<double>::infinity();
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  const auto got = atl03::preprocess_beam(fx.granule, raw, fx.corrections, cfg);
  const auto want = preprocess_beam_reference(fx.granule, raw, fx.corrections, cfg);
  ASSERT_EQ(got.size(), want.size());
  std::size_t anchors = 0;
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (k > 0 && std::floor(got.s[k] / 20.0) == std::floor(got.s[k - 1] / 20.0)) continue;
    ++anchors;
    EXPECT_TRUE(bitwise_equal(std::vector<double>{got.x[k], got.y[k], got.h[k]},
                              std::vector<double>{want.x[k], want.y[k], want.h[k]}))
        << "anchor at s=" << got.s[k];
  }
  EXPECT_GT(anchors, 250u);  // ~6 km of track
}

TEST(PreprocessReference, AnchorsFollowGeolocationNotOnlyAlongTrack) {
  // Every photon claims along-track 0, so all share one 20 m cell; photons
  // far from the anchor on the ground must start anchors of their own, or
  // the expansion would run kilometres from its anchor.
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  for (auto& s : raw.along_track) s = 0.0;
  const auto got = check_against_reference(raw);
  EXPECT_GT(got.size(), 0u);
}

TEST(PreprocessReference, SkewedAlongTrackSpreadSortsLikeStdSort) {
  // All but one photon squeezed into 6 mm, one 50 km away: one bucket holds
  // nearly every key, which then goes through std::sort.
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  for (auto& s : raw.along_track) s *= 1e-6;
  raw.along_track[raw.size() / 2] = 5.0e4;
  check_against_reference(raw);
}

TEST(PreprocessReference, GapsWiderThanABinFillFromNeighbours) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  // Two holes of 8 and 20 bins: their empty bins take a neighbour's median.
  const auto gappy = select_photons(raw, [&](std::size_t i) {
    const double s = raw.along_track[i];
    return !(s >= 1'000.0 && s < 1'200.0) && !(s >= 3'000.0 && s < 3'500.0);
  });
  ASSERT_LT(gappy.size(), raw.size());
  const auto got = check_against_reference(gappy);
  for (std::size_t i = 1; i < got.size(); ++i)
    if (got.s[i] >= 3'500.0 && got.s[i - 1] < 3'000.0) return;  // the gap survives
  ADD_FAILURE() << "expected the 500 m along-track gap in the output";
}

TEST(PreprocessReference, FarAlongTrackPhotonAllocatesPerPhotonNotPerSpan) {
  // One extra photon 1e8 m down-track. Outlier bins sized by the
  // along-track span would take 4e6 bins (32 MB) for it; bins keyed by the
  // sorted runs cost the same as for the beam without it.
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  std::size_t from = 0;
  while (raw.signal_conf[from] < static_cast<std::int8_t>(SignalConf::High)) ++from;
  auto far = raw;
  far.delta_time.push_back(raw.delta_time[from]);
  far.lat.push_back(raw.lat[from]);
  far.lon.push_back(raw.lon[from]);
  far.h.push_back(raw.h[from]);
  far.along_track.push_back(1e8);
  far.signal_conf.push_back(raw.signal_conf[from]);
  if (!raw.truth_class.empty()) far.truth_class.push_back(raw.truth_class[from]);

  atl03::PreprocessedBeam clean, got;
  const std::size_t clean_bytes =
      allocated_bytes([&] { clean = atl03::preprocess_beam(fx.granule, raw, fx.corrections); });
  const std::size_t far_bytes =
      allocated_bytes([&] { got = atl03::preprocess_beam(fx.granule, far, fx.corrections); });
  std::printf("%zu photons: %zu bytes allocated, %zu with the far photon\n", raw.size(),
              clean_bytes, far_bytes);
  EXPECT_LT(far_bytes, clean_bytes * 3 / 2);

  // The unskewed output, then the far photon (alone in its bin, so its own
  // median keeps it).
  ASSERT_EQ(got.size(), clean.size() + 1);
  EXPECT_EQ(got.s.back(), 1e8);
  EXPECT_EQ(got.t.back(), raw.delta_time[from]);
  const auto head = [&](const auto& v) {
    return std::vector<typename std::decay_t<decltype(v)>::value_type>(v.begin(), v.end() - 1);
  };
  EXPECT_TRUE(bitwise_equal(head(got.s), clean.s)) << "s";
  EXPECT_TRUE(bitwise_equal(head(got.h), clean.h)) << "h";
  EXPECT_TRUE(bitwise_equal(head(got.t), clean.t)) << "t";
  EXPECT_TRUE(bitwise_equal(head(got.x), clean.x)) << "x";
  EXPECT_TRUE(bitwise_equal(head(got.y), clean.y)) << "y";
  EXPECT_TRUE(bitwise_equal(head(got.bckgrd_rate), clean.bckgrd_rate)) << "bckgrd_rate";
  EXPECT_TRUE(bitwise_equal(head(got.truth_class), clean.truth_class)) << "truth_class";
}

TEST(PreprocessReference, PlantedOutliersRemovedIdentically) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  for (std::size_t k = 0; k < 40; ++k) raw.h[37 + k * 97] += (k % 2 ? 60.0 : -45.0);
  const auto clean = check_against_reference(fx.granule.beam(BeamId::Gt2r));
  const auto got = check_against_reference(raw);
  EXPECT_LT(got.size(), clean.size());
}

TEST(PreprocessReference, BeamWithoutTruth) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt3r);
  raw.truth_class.clear();
  const auto got = check_against_reference(raw);
  EXPECT_GT(got.size(), 0u);
  EXPECT_TRUE(got.truth_class.empty());
}

TEST(PreprocessReference, ConfidenceFilterRemovesEveryPhoton) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  for (auto& c : raw.signal_conf) c = static_cast<std::int8_t>(SignalConf::Low);
  const auto got = check_against_reference(raw);  // default keeps High only
  EXPECT_EQ(got.size(), 0u);
  EXPECT_TRUE(got.truth_class.empty());
}

TEST(PreprocessReference, SinglePhoton) {
  Fixture fx;
  const auto& raw = fx.granule.beam(BeamId::Gt2r);
  std::size_t first_high = 0;
  while (raw.signal_conf[first_high] < static_cast<std::int8_t>(SignalConf::High)) ++first_high;
  const auto one = select_photons(raw, [&](std::size_t i) { return i == first_high; });
  const auto got = check_against_reference(one);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got.s[0], raw.along_track[first_high]);
}

TEST(PreprocessReference, NonFinitePhotonsAreDropped) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto first_high = [&](std::size_t from) {
    while (raw.signal_conf[from] < static_cast<std::int8_t>(SignalConf::High)) ++from;
    return from;
  };
  // Each field of a high-confidence photon, NaN or +-Inf, among them the
  // first photon (an anchor) and photons spread along the beam.
  std::vector<std::size_t> planted;
  const auto plant = [&](std::size_t i, double& field, double value) {
    field = value;
    planted.push_back(i);
  };
  std::size_t i = first_high(0);
  plant(i, raw.along_track[i], nan);
  i = first_high(i + 1);
  plant(i, raw.lat[i], nan);
  for (std::size_t k = 1; k <= 10; ++k) {
    i = first_high(k * raw.size() / 12);
    switch (k % 5) {
      case 0: plant(i, raw.along_track[i], k % 2 ? inf : -inf); break;
      case 1: plant(i, raw.lon[i], k % 2 ? nan : inf); break;
      case 2: plant(i, raw.lat[i], -inf); break;
      case 3: plant(i, raw.h[i], k % 2 ? nan : inf); break;
      default: plant(i, raw.delta_time[i], k % 2 ? nan : -inf); break;
    }
  }
  const auto kept = select_photons(raw, [&](std::size_t j) {
    return std::find(planted.begin(), planted.end(), j) == planted.end();
  });
  ASSERT_EQ(kept.size(), raw.size() - planted.size());
  const auto got = atl03::preprocess_beam(fx.granule, raw, fx.corrections);
  const auto want = check_against_reference(kept);
  EXPECT_EQ(got.size(), want.size());
  EXPECT_TRUE(bitwise_equal(got.s, want.s)) << "s";
  EXPECT_TRUE(bitwise_equal(got.h, want.h)) << "h";
  EXPECT_TRUE(bitwise_equal(got.t, want.t)) << "t";
  EXPECT_TRUE(bitwise_equal(got.x, want.x)) << "x";
  EXPECT_TRUE(bitwise_equal(got.y, want.y)) << "y";
  EXPECT_TRUE(bitwise_equal(got.bckgrd_rate, want.bckgrd_rate)) << "bckgrd_rate";
  EXPECT_TRUE(bitwise_equal(got.truth_class, want.truth_class)) << "truth_class";
}

TEST(PreprocessReference, DuplicateAlongTrackKeepRawOrder) {
  Fixture fx;
  auto raw = fx.granule.beam(BeamId::Gt2r);
  // Snap distances to a 2 m grid so most photons share theirs with others,
  // and make delta_time increase with the raw index so the output reveals
  // the order equal distances came out in.
  const double t0 = raw.delta_time.front();
  for (std::size_t i = 0; i < raw.size(); ++i) {
    raw.along_track[i] = 2.0 * std::floor(raw.along_track[i] / 2.0);
    raw.delta_time[i] = t0 + 1e-5 * static_cast<double>(i);
  }
  const auto got = check_against_reference(raw);
  std::size_t ties = 0;
  for (std::size_t i = 1; i < got.size(); ++i) {
    ASSERT_GE(got.s[i], got.s[i - 1]);
    if (got.s[i] == got.s[i - 1]) {
      ++ties;
      EXPECT_LT(got.t[i - 1], got.t[i]) << "equal along-track distances out of raw order at " << i;
    }
  }
  EXPECT_GT(ties, got.size() / 2);
}

}  // namespace
