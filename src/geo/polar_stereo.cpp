#include "geo/polar_stereo.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geo/wgs84.hpp"

namespace is2::geo {

PolarStereo::PolarStereo(Hemisphere hemisphere, double lat_ts_deg, double lon0_deg)
    : hemisphere_(hemisphere), lon0_rad_(deg2rad(lon0_deg)), e_(std::sqrt(Wgs84::e2)) {
  // Work in the north aspect internally; the south aspect negates inputs and
  // outputs (Snyder p.161). The standard parallel is converted accordingly.
  const double lat_c = hemisphere_ == Hemisphere::South ? -lat_ts_deg : lat_ts_deg;
  if (lat_c <= 0.0 || lat_c > 90.0)
    throw std::invalid_argument("PolarStereo: standard parallel must be in the chosen hemisphere");
  const double phi_c = deg2rad(lat_c);
  t_c_ = t_of_lat(phi_c);
  const double s = std::sin(phi_c);
  m_c_ = std::cos(phi_c) / std::sqrt(1.0 - Wgs84::e2 * s * s);
}

PolarStereo PolarStereo::epsg3976() { return PolarStereo(Hemisphere::South, -70.0, 0.0); }

PolarStereo PolarStereo::epsg3413() { return PolarStereo(Hemisphere::North, 70.0, -45.0); }

double PolarStereo::t_of_lat(double lat_rad) const {
  // Snyder eq. 15-9.
  const double s = std::sin(lat_rad);
  return std::tan(pi / 4.0 - lat_rad / 2.0) /
         std::pow((1.0 - e_ * s) / (1.0 + e_ * s), e_ / 2.0);
}

void PolarStereo::polar(const LonLat& ll, double& phi, double& rho, double& dlam) const {
  const bool south = hemisphere_ == Hemisphere::South;
  phi = deg2rad(south ? -ll.lat : ll.lat);
  const double lam = deg2rad(south ? -ll.lon : ll.lon);
  const double lam0 = south ? -lon0_rad_ : lon0_rad_;
  if (phi < 0.0)
    throw std::invalid_argument("PolarStereo::forward: point in the opposite hemisphere");

  const double t = t_of_lat(phi);
  rho = Wgs84::a * m_c_ * t / t_c_;  // Snyder 21-34
  dlam = lam - lam0;
}

Xy PolarStereo::forward(const LonLat& ll) const {
  double phi, rho, dlam;
  polar(ll, phi, rho, dlam);
  double x = rho * std::sin(dlam);   // Snyder 21-30
  double y = -rho * std::cos(dlam);  // Snyder 21-31
  if (hemisphere_ == Hemisphere::South) {
    x = -x;
    y = -y;
  }
  return {x, y};
}

PolarStereo::Local PolarStereo::local(const LonLat& anchor) const {
  Local l;
  double phi, dlam;
  polar(anchor, phi, l.rho0_, dlam);
  l.sin0_ = std::sin(dlam);
  l.cos0_ = std::cos(dlam);
  l.sign_ = hemisphere_ == Hemisphere::South ? -1.0 : 1.0;
  l.anchor_ = anchor;

  // rho = rho0 * t(phi) / t(phi0), and d ln t / d phi = g with
  //   g  = -(1-e^2) / (cos phi (1 - e^2 sin^2 phi)),
  //   g' = -(1-e^2) sin phi (1 - e^2 sin^2 phi + 2 e^2 cos^2 phi)
  //          / (cos phi (1 - e^2 sin^2 phi))^2,
  // so rho'' = rho (g^2 + g').
  const double e2 = Wgs84::e2;
  const double s = std::sin(phi);
  const double c = std::cos(phi);
  const double w = 1.0 - e2 * s * s;
  const double d = c * w;
  const double g = -(1.0 - e2) / d;
  const double dg = -(1.0 - e2) * s * (w + 2.0 * e2 * c * c) / (d * d);
  l.drho1_ = l.rho0_ * g;
  l.drho2_ = 0.5 * l.rho0_ * (g * g + dg);
  // The third-order remainder grows like (g dphi)^2 dphi; poleward of 88 deg
  // the radius shrinks with cos phi so the bound holds up to the pole.
  l.cos_phi0_ = c;
  l.radius_ = Local::kRadius * std::min(1.0, c / kPolarCos);
  return l;
}

LonLat PolarStereo::inverse(const Xy& xy) const {
  const bool south = hemisphere_ == Hemisphere::South;
  const double x = south ? -xy.x : xy.x;
  const double y = south ? -xy.y : xy.y;
  const double lam0 = south ? -lon0_rad_ : lon0_rad_;

  const double rho = std::hypot(x, y);
  const double t = rho * t_c_ / (Wgs84::a * m_c_);  // Snyder 21-39
  // Conformal latitude, then the series expansion Snyder eq. 3-5.
  const double chi = pi / 2.0 - 2.0 * std::atan(t);
  const double e2 = Wgs84::e2;
  const double e4 = e2 * e2;
  const double e6 = e4 * e2;
  const double e8 = e6 * e2;
  const double phi =
      chi + (e2 / 2.0 + 5.0 * e4 / 24.0 + e6 / 12.0 + 13.0 * e8 / 360.0) * std::sin(2.0 * chi) +
      (7.0 * e4 / 48.0 + 29.0 * e6 / 240.0 + 811.0 * e8 / 11520.0) * std::sin(4.0 * chi) +
      (7.0 * e6 / 120.0 + 81.0 * e8 / 1120.0) * std::sin(6.0 * chi) +
      (4279.0 * e8 / 161280.0) * std::sin(8.0 * chi);
  const double lam = rho == 0.0 ? lam0 : lam0 + std::atan2(x, -y);  // Snyder 20-16

  double lat = rad2deg(phi);
  double lon = rad2deg(lam);
  if (south) {
    lat = -lat;
    lon = -lon;
  }
  // Normalize longitude to [-180, 180).
  while (lon >= 180.0) lon -= 360.0;
  while (lon < -180.0) lon += 360.0;
  return {lon, lat};
}

double PolarStereo::scale_factor(double lat_deg) const {
  const bool south = hemisphere_ == Hemisphere::South;
  const double phi = deg2rad(south ? -lat_deg : lat_deg);
  const double s = std::sin(phi);
  const double m = std::cos(phi) / std::sqrt(1.0 - Wgs84::e2 * s * s);
  if (m == 0.0) {
    // Scale at the pole: k0 = (m_c / t_c) * sqrt((1+e)^(1+e) (1-e)^(1-e)) / 2
    const double k0 = m_c_ / t_c_ *
                      std::sqrt(std::pow(1.0 + e_, 1.0 + e_) * std::pow(1.0 - e_, 1.0 - e_)) / 2.0;
    return k0;
  }
  const double t = t_of_lat(phi);
  return m_c_ * t / (t_c_ * m);
}

}  // namespace is2::geo
