// Ellipsoidal polar stereographic projection (Snyder 1987, eqs. 15-9, 14-15,
// 21-33..21-41). The paper projects both IS2 ATL03 photons and Sentinel-2
// pixels into EPSG:3976 (WGS84 / NSIDC Sea Ice Polar Stereographic South,
// standard parallel 70°S, central meridian 0°) so the two datasets share a
// grid for overlay and auto-labeling; epsg3976() builds that instance.
#pragma once

#include <cmath>

#include "geo/wgs84.hpp"

namespace is2::geo {

/// Projected coordinates in meters.
struct Xy {
  double x = 0.0;
  double y = 0.0;
};

/// Geodetic coordinates in degrees.
struct LonLat {
  double lon = 0.0;
  double lat = 0.0;
};

class PolarStereo {
 public:
  enum class Hemisphere { North, South };

  /// Local expansion of forward() around an anchor point, for projecting
  /// many nearby points (one ATL03 geolocation cell) without libm: rho to
  /// second order in the latitude offset, the polar angle by sin/cos addition
  /// with a cubic in the longitude offset. at(anchor) is bit-identical to
  /// forward(anchor); within near() of the anchor, at() agrees with
  /// forward() to 1e-6 m.
  class Local {
   public:
    Xy at(const LonLat& p) const {
      double dphi, dlam;
      offsets(p, dphi, dlam);
      const double rho = rho0_ + dphi * (drho1_ + dphi * drho2_);
      const double dl2 = dlam * dlam;
      const double cos_d = 1.0 - 0.5 * dl2;
      const double sin_d = dlam - dlam * dl2 * (1.0 / 6.0);
      // At the anchor every offset term is zero and these reduce to
      // forward()'s expressions, bit for bit.
      double x = rho * (sin0_ * cos_d + cos0_ * sin_d);
      double y = -rho * (cos0_ * cos_d - sin0_ * sin_d);
      if (sign_ < 0.0) {
        x = -x;
        y = -y;
      }
      return {x, y};
    }

    /// Whether `p` lies within the radius where at() keeps its bound:
    /// kRadius in latitude and in longitude times cos(lat) (~32 m on the
    /// ground per axis, so a 20 m cell and its footprint scatter fit),
    /// shrinking with cos(lat) poleward of 88 deg.
    bool near(const LonLat& p) const {
      double dphi, dlam;
      offsets(p, dphi, dlam);
      return std::abs(dphi) <= radius_ && std::abs(dlam) * cos_phi0_ <= radius_;
    }

    static constexpr double kRadius = 5.0e-6;  ///< rad

   private:
    friend class PolarStereo;
    /// North-aspect radian offsets of `p` from the anchor.
    void offsets(const LonLat& p, double& dphi, double& dlam) const {
      double dlon = p.lon - anchor_.lon;
      if (dlon > 180.0) dlon -= 360.0;
      else if (dlon < -180.0) dlon += 360.0;
      dphi = sign_ * (p.lat - anchor_.lat) * (pi / 180.0);
      dlam = sign_ * dlon * (pi / 180.0);
    }

    double sign_ = 1.0;        // +1 north aspect, -1 south (negates in/out)
    LonLat anchor_;            // degrees, as given
    double rho0_ = 0.0;        // Snyder 21-34 at the anchor
    double drho1_ = 0.0;       // d rho / d phi
    double drho2_ = 0.0;       // (d^2 rho / d phi^2) / 2
    double sin0_ = 0.0;        // sin, cos of the anchor's lon - lon0
    double cos0_ = 1.0;
    double cos_phi0_ = 1.0;
    double radius_ = 0.0;      // kRadius, shrunk near the pole
  };

  /// `lat_ts_deg`: latitude of true scale (standard parallel), signed.
  /// `lon0_deg`: central meridian.
  PolarStereo(Hemisphere hemisphere, double lat_ts_deg, double lon0_deg);

  /// EPSG:3976 — the projection used by the paper for IS2/S2 co-registration.
  static PolarStereo epsg3976();
  /// EPSG:3413 — northern-hemisphere counterpart (lat_ts 70N, lon0 -45).
  static PolarStereo epsg3413();

  Xy forward(const LonLat& ll) const;
  /// Expansion of forward() around `anchor` (throws like forward()).
  Local local(const LonLat& anchor) const;
  LonLat inverse(const Xy& xy) const;

  /// Map scale factor at a given latitude (1 at the standard parallel).
  double scale_factor(double lat_deg) const;

  Hemisphere hemisphere() const { return hemisphere_; }

 private:
  double t_of_lat(double lat_rad) const;  // Snyder 15-9 (north-aspect latitude)
  /// North-aspect latitude, rho and lon - lon0 of `ll`, as forward() uses them.
  void polar(const LonLat& ll, double& phi, double& rho, double& dlam) const;

  static constexpr double kPolarCos = 0.0349;  // cos(88 deg)

  Hemisphere hemisphere_;
  double lon0_rad_;
  double t_c_;   // t at the standard parallel
  double m_c_;   // m at the standard parallel
  double e_;     // first eccentricity
};

}  // namespace is2::geo
