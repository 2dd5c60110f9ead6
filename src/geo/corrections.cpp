#include "geo/corrections.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace is2::geo {

namespace {
constexpr double two_pi = 6.283185307179586476925286766559;
}

GeoidModel::GeoidModel(std::uint64_t seed) {
  util::Rng rng(util::hash64(seed ^ 0x6E01Dull));
  // Residual geoid relative to mean sea surface: decimeter-level amplitude at
  // 50–400 km wavelength, plus the large constant offset of the Ross Sea
  // geoid below the ellipsoid.
  offset_ = -55.0;
  for (int i = 0; i < kWaves; ++i) {
    amp_[i] = rng.uniform(0.05, 0.25);
    const double wavelength = rng.uniform(5.0e4, 4.0e5);
    const double theta = rng.uniform(0.0, two_pi);
    kx_[i] = two_pi / wavelength * std::cos(theta);
    ky_[i] = two_pi / wavelength * std::sin(theta);
    phase_[i] = rng.uniform(0.0, two_pi);
  }
}

double GeoidModel::undulation(double x, double y) const {
  double u = offset_;
  for (int i = 0; i < kWaves; ++i) u += amp_[i] * std::sin(kx_[i] * x + ky_[i] * y + phase_[i]);
  return u;
}

FieldExpansion GeoidModel::expand(double x, double y) const {
  FieldExpansion f;
  f.value = offset_;
  for (int i = 0; i < kWaves; ++i) {
    const double arg = kx_[i] * x + ky_[i] * y + phase_[i];
    const double s = std::sin(arg);
    const double c = std::cos(arg);
    f.value += amp_[i] * s;
    f.d_dx += amp_[i] * kx_[i] * c;
    f.d_dy += amp_[i] * ky_[i] * c;
  }
  return f;
}

TideModel::TideModel(std::uint64_t seed) {
  util::Rng rng(util::hash64(seed ^ 0x71DEull));
  // Constituent periods in hours: M2 12.42, S2 12.00, K1 23.93, O1 25.82.
  const double periods_h[kConstituents] = {12.4206, 12.0, 23.9345, 25.8193};
  const double base_amp[kConstituents] = {0.30, 0.12, 0.18, 0.10};
  for (int i = 0; i < kConstituents; ++i) {
    amp_[i] = base_amp[i] * rng.uniform(0.8, 1.2);
    omega_[i] = two_pi / (periods_h[i] * 3600.0);
    // Tidal phase sweeps across the region over ~1000 km scales.
    phase_x_[i] = rng.uniform(-1.0, 1.0) * two_pi / 1.0e6;
    phase_y_[i] = rng.uniform(-1.0, 1.0) * two_pi / 1.0e6;
    phase0_[i] = rng.uniform(0.0, two_pi);
  }
}

double TideModel::tide(double t_s, double x, double y) const {
  double h = 0.0;
  for (int i = 0; i < kConstituents; ++i)
    h += amp_[i] * std::cos(omega_[i] * t_s + phase_x_[i] * x + phase_y_[i] * y + phase0_[i]);
  return h;
}

FieldExpansion TideModel::expand(double t_s, double x, double y) const {
  FieldExpansion f;
  for (int i = 0; i < kConstituents; ++i) {
    const double arg = omega_[i] * t_s + phase_x_[i] * x + phase_y_[i] * y + phase0_[i];
    const double s = std::sin(arg);
    const double c = std::cos(arg);
    f.value += amp_[i] * c;
    f.d_dt -= amp_[i] * omega_[i] * s;
    f.d_dx -= amp_[i] * phase_x_[i] * s;
    f.d_dy -= amp_[i] * phase_y_[i] * s;
  }
  return f;
}

InvertedBarometerModel::InvertedBarometerModel(std::uint64_t seed) {
  util::Rng rng(util::hash64(seed ^ 0x1BABull));
  amp_hpa_ = rng.uniform(8.0, 18.0);          // synoptic pressure anomaly amplitude
  const double wavelength = rng.uniform(8.0e5, 2.0e6);  // cyclone scale
  const double theta = rng.uniform(0.0, two_pi);
  kx_ = two_pi / wavelength * std::cos(theta);
  ky_ = two_pi / wavelength * std::sin(theta);
  omega_ = two_pi / (rng.uniform(3.0, 7.0) * 86400.0);  // multi-day evolution
  phase_ = rng.uniform(0.0, two_pi);
}

double InvertedBarometerModel::correction(double t_s, double x, double y) const {
  const double anomaly_hpa = amp_hpa_ * std::sin(kx_ * x + ky_ * y + omega_ * t_s + phase_);
  return -9.948e-3 * anomaly_hpa;  // m per hPa (ATL03 ATBD convention)
}

FieldExpansion InvertedBarometerModel::expand(double t_s, double x, double y) const {
  const double arg = kx_ * x + ky_ * y + omega_ * t_s + phase_;
  const double s = std::sin(arg);
  const double c = std::cos(arg);
  const double anomaly_hpa = amp_hpa_ * s;
  const double slope = -9.948e-3 * amp_hpa_ * c;  // d correction / d arg
  return {-9.948e-3 * anomaly_hpa, slope * omega_, slope * kx_, slope * ky_};
}

GeoCorrections::GeoCorrections(std::uint64_t seed)
    : geoid_(seed * 3 + 1), tide_(seed * 3 + 2), ib_(seed * 3 + 3) {}

double GeoCorrections::total(double t_s, double x, double y) const {
  return geoid_.undulation(x, y) + tide_.tide(t_s, x, y) + ib_.correction(t_s, x, y);
}

GeoCorrections::Local GeoCorrections::local(double t_s, double x, double y) const {
  const FieldExpansion g = geoid_.expand(x, y);
  const FieldExpansion td = tide_.expand(t_s, x, y);
  const FieldExpansion ib = ib_.expand(t_s, x, y);
  Local l;
  // Summed in total()'s order, so the value at the anchor keeps its bits.
  l.f_ = {g.value + td.value + ib.value, td.d_dt + ib.d_dt, g.d_dx + td.d_dx + ib.d_dx,
          g.d_dy + td.d_dy + ib.d_dy};
  l.t0_ = t_s;
  l.x0_ = x;
  l.y0_ = y;
  return l;
}

}  // namespace is2::geo
