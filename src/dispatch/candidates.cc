#include "dispatch/candidates.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <span>

#include "telemetry/session.h"

namespace mrvd {

namespace {

constexpr double kRadiansPerDegree = std::numbers::pi / 180.0;

/// Relative slack on the pickup reach. The region bound and the exact
/// per-driver test round differently; the slack keeps every rounding case
/// on the scan side, so pruning can never drop a driver the exact test
/// would accept.
constexpr double kReachSlack = 1.0 + 1e-9;

/// Deterministic work done by one generation call (see candidates.h).
struct CandidateWork {
  int64_t regions_visited = 0;
  int64_t drivers_scanned = 0;
  int64_t pairs = 0;
};

/// Adds `work` to the context's telemetry counters, if a session is
/// attached. Coordinator thread only (see telemetry/metrics.h). The three
/// registry lookups run once per generation call, as local_search.cc
/// resolves its histograms once per call; the per-rider loop only bumps the
/// local CandidateWork tally.
void PublishWork(const BatchContext& ctx, const CandidateWork& work) {
  telemetry::TelemetrySession* tele = ctx.telemetry();
  if (tele == nullptr) return;
  telemetry::MetricsRegistry& reg = tele->metrics();
  reg.counter("candidates.regions_visited")->Add(work.regions_visited);
  reg.counter("candidates.drivers_scanned")->Add(work.drivers_scanned);
  reg.counter("candidates.pairs")->Add(work.pairs);
}

/// Emits rider `ri`'s valid pairs in the canonical order: rings outward,
/// regions in Grid::ForEachInRing order, drivers in region order.
///
/// A region is scanned only if its driver box lies within the rider's
/// crow-fly reach, budget * MaxSpeedMps(); the TravelCostModel contract
/// (TravelSeconds >= EquirectangularMeters / MaxSpeedMps) makes every
/// driver outside that reach invalid. Each scanned driver still gets the
/// exact Def.-3 test, so pruning changes which drivers are tested, never
/// the result. An infinite MaxSpeedMps() disables the pruning: the reach is
/// then infinite, or NaN for a zero budget, and either way the ring cap
/// falls back to the whole grid and the region test never skips.
template <typename Sink>
void ForRiderValidPairs(const BatchContext& ctx, int ri, CandidateWork* work,
                        Sink&& sink) {
  const WaitingRider& r = ctx.riders()[static_cast<size_t>(ri)];
  const double budget_seconds = r.pickup_deadline - ctx.now();
  if (budget_seconds < 0.0 || ctx.drivers().empty()) return;
  const Grid& grid = ctx.grid();
  const LatLon p = r.pickup;

  // The equirectangular metric scales longitude by cos of the two points'
  // mean latitude. For every driver of the batch that mean lies between
  // the pickup's means with the fleet's lowest and highest latitudes, and
  // cos is smallest at an end of that interval: one factor bounds all.
  const double cos_lat = std::max(
      0.0,
      std::min(
          std::cos(0.5 * (p.lat + ctx.driver_lat_min()) * kRadiansPerDegree),
          std::cos(0.5 * (p.lat + ctx.driver_lat_max()) * kRadiansPerDegree)));
  const double reach_deg = budget_seconds * ctx.cost_model().MaxSpeedMps() *
                           kReachSlack /
                           (kEarthRadiusMeters * kRadiansPerDegree);
  const double reach_deg2 = reach_deg * reach_deg;

  int max_ring = 0;
  if (ctx.candidate_mode() == CandidateMode::kRingExpand) {
    // A region g rings away is at least g - 1 whole cells away along a row
    // or a column (clamped off-box points only lie farther out).
    const int max_possible_ring = std::max(grid.rows(), grid.cols()) - 1;
    const double min_cell_deg = std::min(
        grid.cell_width_degrees() * cos_lat, grid.cell_height_degrees());
    const double rings = std::floor(reach_deg / min_cell_deg) + 1.0;
    max_ring = rings < max_possible_ring ? static_cast<int>(rings)
                                         : max_possible_ring;
  }

  for (int g = 0; g <= max_ring; ++g) {
    grid.ForEachInRing(r.pickup_region, g, [&](RegionId reg) {
      ++work->regions_visited;
      const std::span<const int> bucket = ctx.DriversIn(reg);
      if (bucket.empty()) return;
      const BoundingBox& box = ctx.DriverBox(reg);
      const double dlon =
          std::max({box.lon_min - p.lon, p.lon - box.lon_max, 0.0}) * cos_lat;
      const double dlat =
          std::max({box.lat_min - p.lat, p.lat - box.lat_max, 0.0});
      if (dlon * dlon + dlat * dlat > reach_deg2) return;
      work->drivers_scanned += static_cast<int64_t>(bucket.size());
      for (int di : bucket) {
        const AvailableDriver& d = ctx.drivers()[static_cast<size_t>(di)];
        const double tt = ctx.PickupSeconds(d, r);
        if (ctx.now() + tt <= r.pickup_deadline) {
          ++work->pairs;
          sink(ri, di, tt);
        }
      }
    });
  }
}

/// Calls sink(rider, driver, pickup_seconds) for every valid pair of the
/// batch in the canonical order, then publishes the call's work counters.
template <typename Sink>
void ForEachValidPair(const BatchContext& ctx, Sink&& sink) {
  CandidateWork work;
  for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
    ForRiderValidPairs(ctx, ri, &work, sink);
  }
  PublishWork(ctx, work);
}

}  // namespace

std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx) {
  std::vector<CandidatePair> out;
  ForEachValidPair(ctx, [&out](int ri, int di, double tt) {
    out.push_back({ri, di, tt});
  });
  return out;
}

std::vector<std::vector<CandidatePair>> GenerateValidPairsPerRider(
    const BatchContext& ctx) {
  std::vector<std::vector<CandidatePair>> out(ctx.riders().size());
  ForEachValidPair(ctx, [&out](int ri, int di, double tt) {
    out[static_cast<size_t>(ri)].push_back({ri, di, tt});
  });
  return out;
}

}  // namespace mrvd
