// Projection, correction-model and track-geometry tests, including the
// round-trip property sweep over the Ross Sea (and wider Antarctic) grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "geo/corrections.hpp"
#include "geo/polar_stereo.hpp"
#include "geo/track.hpp"
#include "geo/wgs84.hpp"

namespace {

using namespace is2::geo;

TEST(PolarStereo, ScaleIsUnityAtStandardParallel) {
  const PolarStereo p = PolarStereo::epsg3976();
  EXPECT_NEAR(p.scale_factor(-70.0), 1.0, 1e-12);
  // Scale grows away from the standard parallel toward the equator side and
  // shrinks slightly toward the pole.
  EXPECT_GT(p.scale_factor(-60.0), 1.0);
  EXPECT_LT(p.scale_factor(-85.0), 1.0);
}

TEST(PolarStereo, PoleMapsToOrigin) {
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({0.0, -90.0});
  EXPECT_NEAR(xy.x, 0.0, 1e-6);
  EXPECT_NEAR(xy.y, 0.0, 1e-6);
}

TEST(PolarStereo, KnownDistanceFromPole) {
  // At lat -70 the distance from the pole is ~2,215 km for this projection
  // family (sanity envelope, not an authoritative test vector).
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({0.0, -70.0});
  const double rho = std::hypot(xy.x, xy.y);
  EXPECT_GT(rho, 2.10e6);
  EXPECT_LT(rho, 2.30e6);
}

TEST(PolarStereo, LongitudeRotatesPosition) {
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy a = p.forward({0.0, -75.0});
  const Xy b = p.forward({90.0, -75.0});
  EXPECT_NEAR(std::hypot(a.x, a.y), std::hypot(b.x, b.y), 1e-6);
  const double dot = a.x * b.x + a.y * b.y;
  EXPECT_NEAR(dot, 0.0, 1.0);  // 90 degrees apart
}

TEST(PolarStereo, RejectsWrongHemisphere) {
  const PolarStereo south = PolarStereo::epsg3976();
  EXPECT_THROW(south.forward({0.0, 45.0}), std::invalid_argument);
  const PolarStereo north = PolarStereo::epsg3413();
  EXPECT_THROW(north.forward({0.0, -45.0}), std::invalid_argument);
}

struct RoundTripCase {
  double lon;
  double lat;
};

class ProjectionRoundTrip : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(ProjectionRoundTrip, ForwardInverseIdentity) {
  const auto [lon, lat] = GetParam();
  const PolarStereo p = PolarStereo::epsg3976();
  const Xy xy = p.forward({lon, lat});
  const LonLat back = p.inverse(xy);
  EXPECT_NEAR(back.lat, lat, 1e-9) << "lon=" << lon << " lat=" << lat;
  // Longitude is undefined at the exact pole.
  if (lat > -89.999) {
    double dlon = back.lon - lon;
    while (dlon > 180.0) dlon -= 360.0;
    while (dlon < -180.0) dlon += 360.0;
    EXPECT_NEAR(dlon, 0.0, 1e-9) << "lon=" << lon << " lat=" << lat;
  }
}

std::vector<RoundTripCase> round_trip_grid() {
  std::vector<RoundTripCase> cases;
  // Ross Sea box (the paper's region) plus the wider hemisphere.
  for (double lon : {-180.0, -170.0, -155.0, -140.0, -60.0, 0.0, 45.0, 135.0, 179.5})
    for (double lat : {-89.9, -78.0, -74.0, -70.0, -55.0, -30.0, -5.0})
      cases.push_back({lon, lat});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, ProjectionRoundTrip, ::testing::ValuesIn(round_trip_grid()));

TEST(PolarStereo, NorthVariantRoundTrips) {
  const PolarStereo p = PolarStereo::epsg3413();
  const Xy xy = p.forward({-45.0, 75.0});
  const LonLat back = p.inverse(xy);
  EXPECT_NEAR(back.lat, 75.0, 1e-9);
  EXPECT_NEAR(back.lon, -45.0, 1e-9);
}

// ---------------------------------------------------------------------------
// PolarStereo::local: the per-cell expansion preprocess_beam projects with.
// ---------------------------------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// `anchor` moved `east_m` / `north_m` on a sphere of the Earth's mean
/// radius (the test only needs offsets of the right size, not geodesics).
LonLat offset_by(LonLat anchor, double east_m, double north_m) {
  constexpr double r = 6'371'000.0;
  return {anchor.lon + rad2deg(east_m / (r * std::cos(deg2rad(anchor.lat)))),
          anchor.lat + rad2deg(north_m / r)};
}

/// Max |local(anchor).at(p) - forward(p)| over offsets up to +-30 m,
/// requiring near() to hold for every one of them.
double max_local_error(const PolarStereo& proj, LonLat anchor) {
  const auto local = proj.local(anchor);
  double worst = 0.0;
  for (double east = -30.0; east <= 30.0; east += 7.5)
    for (double north = -30.0; north <= 30.0; north += 7.5) {
      const LonLat p = offset_by(anchor, east, north);
      EXPECT_TRUE(local.near(p)) << east << " " << north;
      const Xy got = local.at(p);
      const Xy want = proj.forward(p);
      worst = std::max({worst, std::abs(got.x - want.x), std::abs(got.y - want.y)});
    }
  return worst;
}

TEST(PolarStereoLocal, AnchorIsBitIdenticalToForward) {
  for (const auto& [proj, sign] :
       {std::pair{PolarStereo::epsg3976(), -1.0}, std::pair{PolarStereo::epsg3413(), 1.0}})
    for (double lat : {60.0, 75.0, 85.0, 88.0})
      for (double lon : {-179.9, -165.0, -45.0, 0.0, 33.3, 179.9}) {
        const LonLat a{lon, sign * lat};
        const Xy got = proj.local(a).at(a);
        const Xy want = proj.forward(a);
        EXPECT_TRUE(same_bits(got.x, want.x) && same_bits(got.y, want.y))
            << "lon " << lon << " lat " << sign * lat;
      }
}

TEST(PolarStereoLocal, WithinMicrometreOfForwardBothHemispheres) {
  for (const auto& [proj, sign] :
       {std::pair{PolarStereo::epsg3976(), -1.0}, std::pair{PolarStereo::epsg3413(), 1.0}})
    for (double lat : {60.0, 75.0, 85.0})
      for (double lon : {-165.0, -45.0, 0.0, 120.0}) {
        const double err = max_local_error(proj, {lon, sign * lat});
        EXPECT_LE(err, 1e-6) << "lon " << lon << " lat " << sign * lat;
      }
}

TEST(PolarStereoLocal, OffsetsAcrossTheAntimeridian) {
  const PolarStereo proj = PolarStereo::epsg3976();
  // 20 m east of 179.99995 E lies past 180 and reads as a negative longitude.
  const LonLat anchor{179.99995, -75.0};
  LonLat p = offset_by(anchor, 20.0, 5.0);
  ASSERT_GT(p.lon, 180.0);
  p.lon -= 360.0;
  const auto local = proj.local(anchor);
  ASSERT_TRUE(local.near(p));
  const Xy got = local.at(p);
  const Xy want = proj.forward(p);
  EXPECT_NEAR(got.x, want.x, 1e-6);
  EXPECT_NEAR(got.y, want.y, 1e-6);
}

TEST(PolarStereoLocal, NearBoundsTheExpansionUpToThePole) {
  const PolarStereo proj = PolarStereo::epsg3976();
  for (double lat : {-75.0, -88.0, -89.0, -89.9, -89.999}) {
    const LonLat anchor{-165.0, lat};
    const auto local = proj.local(anchor);
    std::size_t covered = 0;
    double worst = 0.0;
    for (double east = -60.0; east <= 60.0; east += 5.0)
      for (double north = -60.0; north <= 60.0; north += 5.0) {
        const LonLat p = offset_by(anchor, east, north);
        if (p.lat < -90.0 || !local.near(p)) continue;
        ++covered;
        const Xy got = local.at(p);
        const Xy want = proj.forward(p);
        worst = std::max({worst, std::abs(got.x - want.x), std::abs(got.y - want.y)});
      }
    EXPECT_LE(worst, 1e-6) << "lat " << lat;
    EXPECT_GE(covered, 1u) << "lat " << lat;  // the anchor itself at least
  }
  // Far points and the opposite hemisphere are never near.
  const auto local = proj.local({-165.0, -75.0});
  EXPECT_FALSE(local.near(offset_by({-165.0, -75.0}, 0.0, 100.0)));
  EXPECT_FALSE(local.near(offset_by({-165.0, -75.0}, 100.0, 0.0)));
  EXPECT_FALSE(local.near({-165.0, 75.0}));
  EXPECT_THROW(proj.local({-165.0, 75.0}), std::invalid_argument);
}

TEST(Corrections, GeoidHasLargeOffsetAndSmallWaves) {
  const GeoidModel geoid(1);
  const double u0 = geoid.undulation(0.0, 0.0);
  EXPECT_LT(u0, -50.0);
  EXPECT_GT(u0, -60.0);
  // Variation over 100 km is sub-meter.
  const double u1 = geoid.undulation(100'000.0, 50'000.0);
  EXPECT_LT(std::abs(u1 - u0), 2.0);
}

TEST(Corrections, TideBoundedAndTimeVarying) {
  const TideModel tide(2);
  double tmax = -1e9, tmin = 1e9;
  for (double t = 0.0; t < 48.0 * 3600.0; t += 600.0) {
    const double h = tide.tide(t, 0.0, 0.0);
    tmax = std::max(tmax, h);
    tmin = std::min(tmin, h);
  }
  EXPECT_LT(tmax, 1.5);
  EXPECT_GT(tmin, -1.5);
  EXPECT_GT(tmax - tmin, 0.1);  // actually oscillates
}

TEST(Corrections, InvertedBarometerCentimeterScale) {
  const InvertedBarometerModel ib(3);
  for (double t : {0.0, 43'200.0, 86'400.0}) {
    const double c = ib.correction(t, 1e5, -2e5);
    EXPECT_LT(std::abs(c), 0.25);
  }
}

TEST(Corrections, TotalIsSumOfParts) {
  const GeoCorrections gc(7);
  const double t = 12'345.0, x = 5e4, y = -1e5;
  const double total = gc.total(t, x, y);
  const double sum = gc.geoid().undulation(x, y) + gc.tide().tide(t, x, y) +
                     gc.inverted_barometer().correction(t, x, y);
  EXPECT_DOUBLE_EQ(total, sum);
}

TEST(CorrectionsLocal, AnchorValueIsBitIdenticalToTotal) {
  const GeoCorrections gc(7);
  for (double t : {0.0, 12'345.678, 3.2e7})
    for (double x : {-1.2e6, 3.3e5})
      for (double y : {-9.0e5, 1.7e6}) {
        const double want = gc.total(t, x, y);
        EXPECT_TRUE(same_bits(gc.local(t, x, y).at(t, x, y), want)) << t << " " << x << " " << y;
      }
}

TEST(CorrectionsLocal, GradientMatchesCentralDifferences) {
  // Central differences with 1 m / 1 s steps are accurate to ~1e-9
  // relative for fields of >= 50 km wavelength and >= 12 h period; the
  // expansion's partials must agree to 1e-6 of the gradient's magnitude.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const GeoCorrections gc(seed);
    const double t = 54'321.0, x = -4.4e5, y = 1.9e6;
    const auto local = gc.local(t, x, y);
    const double d_dt = (gc.total(t + 1.0, x, y) - gc.total(t - 1.0, x, y)) / 2.0;
    const double d_dx = (gc.total(t, x + 1.0, y) - gc.total(t, x - 1.0, y)) / 2.0;
    const double d_dy = (gc.total(t, x, y + 1.0) - gc.total(t, x, y - 1.0)) / 2.0;
    const double scale = std::hypot(d_dt, d_dx, d_dy);
    ASSERT_GT(scale, 0.0);
    // at() is linear, so unit offsets read the partials back.
    const double v = local.at(t, x, y);
    EXPECT_NEAR(local.at(t + 1.0, x, y) - v, d_dt, 1e-6 * scale) << "seed " << seed;
    EXPECT_NEAR(local.at(t, x + 1.0, y) - v, d_dx, 1e-6 * scale) << "seed " << seed;
    EXPECT_NEAR(local.at(t, x, y + 1.0) - v, d_dy, 1e-6 * scale) << "seed " << seed;
  }
}

TEST(CorrectionsLocal, WithinTenMicrometresOverACell) {
  // The documented bound: offsets up to 25 m and 1 s stay within 1e-5 m.
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const GeoCorrections gc(seed);
    const double t = 7'777.0, x = 2.0e5, y = -1.5e6;
    const auto local = gc.local(t, x, y);
    for (double dt : {-1.0, 0.0, 1.0})
      for (double dx = -25.0; dx <= 25.0; dx += 12.5)
        for (double dy = -25.0; dy <= 25.0; dy += 12.5)
          EXPECT_NEAR(local.at(t + dt, x + dx, y + dy), gc.total(t + dt, x + dx, y + dy), 1e-5)
              << "seed " << seed;
  }
}

TEST(GroundTrack, AlongAndCrossTrackDecomposition) {
  const GroundTrack track({100.0, 200.0}, 0.5);
  const Xy p = track.at(1234.0);
  EXPECT_NEAR(track.along_track(p), 1234.0, 1e-9);
  EXPECT_NEAR(track.cross_track(p), 0.0, 1e-9);
}

TEST(GroundTrack, OffsetMovesLeftOfTravel) {
  const GroundTrack track({0.0, 0.0}, 0.0);  // heading +x
  const GroundTrack left = track.offset(100.0);
  EXPECT_NEAR(left.origin().x, 0.0, 1e-12);
  EXPECT_NEAR(left.origin().y, 100.0, 1e-12);
  // A point on the original track is at cross-track -100 from the offset one.
  EXPECT_NEAR(left.cross_track(track.at(500.0)), -100.0, 1e-9);
}

TEST(GroundTrack, CumulativeDistance) {
  std::vector<Xy> pts{{0, 0}, {3, 4}, {3, 4}, {6, 8}};
  const auto d = cumulative_distance(pts);
  ASSERT_EQ(d.size(), 4u);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 5.0);
  EXPECT_DOUBLE_EQ(d[2], 5.0);
  EXPECT_DOUBLE_EQ(d[3], 10.0);
}

}  // namespace
