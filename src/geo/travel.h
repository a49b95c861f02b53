// Travel-cost models. The paper expresses all costs as travel time and notes
// time and distance are interchangeable given a speed (§2); the simulator
// works in seconds throughout.
#pragma once

#include <memory>

#include "geo/point.h"

namespace mrvd {

/// Abstract travel-cost oracle: seconds to drive from `from` to `to`.
/// Implementations must be symmetric-free (directed cost is allowed) and
/// return non-negative finite values for in-city points.
///
/// Contract: for every pair of city-scale points, in the city box or off-box
/// GPS fixes alike,
///   TravelSeconds(a, b) >= EquirectangularMeters(a, b) / MaxSpeedMps(),
/// i.e. no trip is faster than the crow-fly distance at the maximum speed.
/// Candidate generation (dispatch/candidates.h) relies on it to skip
/// regions beyond a rider's reach; a model that breaks it would silently
/// lose valid pairs.
class TravelCostModel {
 public:
  virtual ~TravelCostModel() = default;

  /// Travel time in seconds from `from` to `to`.
  virtual double TravelSeconds(const LatLon& from, const LatLon& to) const = 0;

  /// Travel distance in meters (default: seconds * reference speed).
  virtual double TravelMeters(const LatLon& from, const LatLon& to) const;

  /// Reference cruising speed in m/s used for time<->distance conversion.
  virtual double SpeedMps() const = 0;

  /// Upper bound in m/s on the crow-fly speed of any trip (see the contract
  /// above). Defaults to SpeedMps(), which is exact for models that are
  /// never faster than the reference speed; a model with faster stretches
  /// must override it.
  virtual double MaxSpeedMps() const { return SpeedMps(); }
};

/// Straight-line cost: equirectangular distance inflated by a fixed detour
/// factor, at constant speed. `detour_factor` ~1.3 approximates Manhattan
/// street routing over crow-fly distance; `speed_mps` ~7 m/s (~25 km/h)
/// matches mid-town taxi speeds.
class StraightLineCostModel : public TravelCostModel {
 public:
  explicit StraightLineCostModel(double speed_mps = 7.0,
                                 double detour_factor = 1.3)
      : speed_mps_(speed_mps), detour_factor_(detour_factor) {}

  double TravelSeconds(const LatLon& from, const LatLon& to) const override {
    return EquirectangularMeters(from, to) * detour_factor_ / speed_mps_;
  }

  double TravelMeters(const LatLon& from, const LatLon& to) const override {
    return EquirectangularMeters(from, to) * detour_factor_;
  }

  double SpeedMps() const override { return speed_mps_; }

 private:
  double speed_mps_;
  double detour_factor_;
};

/// L1 (Manhattan) cost in the lat/lon axes; models a perfect grid street
/// network at constant speed.
class ManhattanCostModel : public TravelCostModel {
 public:
  explicit ManhattanCostModel(double speed_mps = 7.0)
      : speed_mps_(speed_mps) {}

  double TravelSeconds(const LatLon& from, const LatLon& to) const override {
    LatLon corner{from.lat, to.lon};
    double meters = EquirectangularMeters(from, corner) +
                    EquirectangularMeters(corner, to);
    return meters / speed_mps_;
  }

  double SpeedMps() const override { return speed_mps_; }

 private:
  double speed_mps_;
};

}  // namespace mrvd
