// Geophysical height corrections applied to ATL03 photon heights before sea
// surface work (ATL03 ATBD [25]: ocean tide, solid-earth tide, inverted
// barometer, geoid/mean-sea-surface). The real products interpolate global
// model grids; here each term is a smooth parametric field with realistic
// amplitude and wavelength so the correction code path (and the residual sea
// surface left *after* correction) behaves like the real data.
#pragma once

#include <cstdint>

namespace is2::geo {

/// A correction term's value and first partials at one point (t in seconds,
/// x/y in projected meters).
struct FieldExpansion {
  double value = 0.0;
  double d_dt = 0.0;
  double d_dx = 0.0;
  double d_dy = 0.0;
};

/// Long-wavelength geoid/mean-sea-surface undulation in projected (x,y)
/// meters -> undulation meters relative to the WGS84 ellipsoid.
class GeoidModel {
 public:
  explicit GeoidModel(std::uint64_t seed = 1);
  double undulation(double x, double y) const;
  /// undulation() (bit-identical) and its gradient.
  FieldExpansion expand(double x, double y) const;

 private:
  // Superposition of a handful of plane waves (amplitude, kx, ky, phase).
  static constexpr int kWaves = 6;
  double amp_[kWaves];
  double kx_[kWaves];
  double ky_[kWaves];
  double phase_[kWaves];
  double offset_;
};

/// Ocean tide height from the four dominant constituents (M2, S2, K1, O1)
/// with spatially varying amplitude and phase.
class TideModel {
 public:
  explicit TideModel(std::uint64_t seed = 2);
  /// `t_s`: seconds since campaign epoch; (x, y) projected meters.
  double tide(double t_s, double x, double y) const;
  /// tide() (bit-identical) and its partials.
  FieldExpansion expand(double t_s, double x, double y) const;

 private:
  static constexpr int kConstituents = 4;
  double amp_[kConstituents];
  double omega_[kConstituents];   // rad/s
  double phase_x_[kConstituents]; // rad/m — phase advance across the region
  double phase_y_[kConstituents];
  double phase0_[kConstituents];
};

/// Inverted barometer: -9.948 mm per hPa of sea-level-pressure anomaly,
/// with a slowly moving synoptic pressure field.
class InvertedBarometerModel {
 public:
  explicit InvertedBarometerModel(std::uint64_t seed = 3);
  double correction(double t_s, double x, double y) const;
  /// correction() (bit-identical) and its partials.
  FieldExpansion expand(double t_s, double x, double y) const;

 private:
  double amp_hpa_;
  double kx_;
  double ky_;
  double omega_;
  double phase_;
};

/// Bundle used by the preprocessing stage: total height correction to
/// subtract from ellipsoidal photon heights.
class GeoCorrections {
 public:
  /// First-order expansion of total() around an anchor (t0, x0, y0): the
  /// ATL03 ATBD supplies the corrections once per ~20 m geolocation segment,
  /// and within one the fields (wavelengths >= 50 km, periods >= 12 h) are
  /// linear to well below a millimetre. at(t0, x0, y0) is bit-identical to
  /// total(t0, x0, y0); the error elsewhere is the dropped second-order
  /// term, sum |amp| (k . d)^2 / 2, under 1e-5 m for offsets up to 25 m and
  /// 1 s.
  class Local {
   public:
    double at(double t_s, double x, double y) const {
      return f_.value + (f_.d_dt * (t_s - t0_) + f_.d_dx * (x - x0_) + f_.d_dy * (y - y0_));
    }

   private:
    friend class GeoCorrections;
    FieldExpansion f_;
    double t0_ = 0.0;
    double x0_ = 0.0;
    double y0_ = 0.0;
  };

  explicit GeoCorrections(std::uint64_t seed = 7);

  double total(double t_s, double x, double y) const;
  Local local(double t_s, double x, double y) const;

  const GeoidModel& geoid() const { return geoid_; }
  const TideModel& tide() const { return tide_; }
  const InvertedBarometerModel& inverted_barometer() const { return ib_; }

 private:
  GeoidModel geoid_;
  TideModel tide_;
  InvertedBarometerModel ib_;
};

}  // namespace is2::geo
