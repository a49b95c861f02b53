// Synthetic NYC-like workload generator.
//
// Substitute for the (non-redistributable) NYC TLC yellow-taxi trips the
// paper evaluates on (§6.1). The generator produces per-region inhomogeneous
// Poisson order arrivals over the paper's 16x16 grid and bounding box with:
//   * a diurnal rate profile with AM and PM peaks,
//   * two static spatial fields ("residential" and "business" hotspots)
//     whose mixing rotates through the day, so morning flow runs
//     residential -> business and evening flow reverses — reproducing the
//     demand/supply imbalance that motivates the paper (Example 1),
//   * gravity-kernel destination choice (most trips are short; §6.6 notes
//     most NYC taxi trips are under 20 minutes),
//   * day-of-week modulation for multi-day training histories.
//
// Because arrivals are Poisson by construction, the Appendix-B chi-square
// validation holds on this data, and the queueing model's inputs are
// exercised in all three regimes (λ>μ, λ<μ, λ≈μ).
#pragma once

#include <cstdint>
#include <vector>

#include "geo/grid.h"
#include "util/rng.h"
#include "workload/demand_history.h"
#include "workload/types.h"

namespace mrvd {

/// Configuration; defaults reproduce the paper's setup (Table 2 defaults,
/// 282,255 orders/day, 16x16 NYC grid).
struct GeneratorConfig {
  int grid_rows = 16;
  int grid_cols = 16;
  BoundingBox box = kNycBoundingBox;

  double orders_per_day = 282255.0;

  /// Pickup deadline: τ_i = t_i + U[extra_lo, extra_hi] + base_wait (§6.2).
  double base_pickup_wait = 120.0;
  double extra_wait_lo = 1.0;
  double extra_wait_hi = 10.0;

  /// Hotspot fields. The strong concentration mirrors yellow-taxi demand,
  /// which is dominated by the Manhattan core (Fig. 5): most pickups land
  /// in a handful of dense cells, which is what makes post-dropoff
  /// re-matching fast there and starves the periphery.
  int hotspots_per_field = 4;
  double hotspot_sigma_cells = 2.0;
  double hotspot_peak_ratio = 30.0;  ///< peak weight over background

  /// Destination choice: probability of gravity-local destination vs.
  /// global popularity draw, and the gravity decay length in cells. The
  /// defaults give a ~17-minute mean trip at taxi speeds — calibrated so
  /// that the paper's default fleet (3K drivers) runs near saturation, as
  /// its reported revenue-vs-fleet-capacity ratio implies.
  double local_dest_prob = 0.55;
  double gravity_scale_cells = 3.0;

  /// Weekend demand multiplier and profile flattening.
  double weekend_scale = 0.85;
  double weekend_flatten = 0.35;

  uint64_t seed = 20190417;  ///< master seed (ICDE'19 nod)
};

/// Deterministic generator: the same (config, day_index) always produces the
/// same day; different day indices are independent Poisson draws around the
/// same day-of-week intensity.
class NycLikeGenerator {
 public:
  explicit NycLikeGenerator(const GeneratorConfig& config = {});

  const Grid& grid() const { return grid_; }
  const GeneratorConfig& config() const { return config_; }

  /// Expected number of orders originating in `region` during 30-minute slot
  /// `slot` (0..47) of day `day_index` (day-of-week = day_index % 7).
  double ExpectedSlotCount(int day_index, int slot, RegionId region) const;

  /// Expected per-minute order rate (= ExpectedSlotCount / 30).
  double ExpectedPerMinuteRate(int day_index, int minute_of_day,
                               RegionId region) const;

  /// Generates one full day of orders (sorted by request time) plus
  /// `num_drivers` drivers whose origins are the pickup locations of
  /// randomly selected orders (§6.2).
  Workload GenerateDay(int day_index, int num_drivers) const;

  /// Generates a count-level training history of `num_days` days with
  /// `slots_per_day` slots (counts are Poisson draws around the intensity,
  /// matching what AccumulateDay over GenerateDay would produce).
  DemandHistory GenerateHistory(int num_days, int slots_per_day) const;

  /// The realized per-slot counts of one generated day, as a history with a
  /// single day (used by the oracle "Real" predictor in Table 4).
  DemandHistory RealizedCounts(const Workload& day, int slots_per_day) const;

  /// Destination-region share for origin `from` in slot `slot` — exposed for
  /// tests and the Table-8 driver-side chi-square (rejoined drivers are born
  /// at order destinations).
  std::vector<double> DestinationDistribution(int day_index, int slot,
                                              RegionId from) const;

 private:
  static constexpr int kSlotsPerDay = 48;  ///< 30-minute slots

  /// Slot weight of time-of-day (sums to 1 across a weekday).
  double SlotWeight(int day_index, int slot) const;
  /// Origin field value for a region at a slot (normalized across regions).
  double OriginShare(int slot, RegionId region) const;
  bool IsWeekend(int day_index) const { return day_index % 7 >= 5; }
  /// Morning-ness in [0,1] for mixing residential/business fields.
  static double MorningMix(int slot);

  /// Cumulative destination weights, in region order, of a trip posted in
  /// `slot` from `from`; `local` trips are damped by gravity (ring
  /// distance from `from`), the others ignore `from`.
  void DestinationCdf(int slot, RegionId from, bool local,
                      std::vector<double>* cdf) const;
  /// Draws a region with probability proportional to its weight in `cdf`.
  static RegionId DrawRegion(const std::vector<double>& cdf, Rng& rng);
  LatLon RandomPointIn(RegionId region, Rng& rng) const;

  GeneratorConfig config_;
  Grid grid_;
  std::vector<double> residential_;  ///< normalized field over regions
  std::vector<double> business_;     ///< normalized field over regions
  std::vector<double> weekday_slot_weights_;  ///< 48, sums to 1
  std::vector<double> weekend_slot_weights_;  ///< 48, sums to 1
};

}  // namespace mrvd
