#include "dispatch/candidates.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "geo/region_partitioner.h"
#include "telemetry/session.h"
#include "util/thread_pool.h"

namespace mrvd {

namespace {

constexpr double kRadiansPerDegree = std::numbers::pi / 180.0;

/// Relative slack on the pickup reach. The region bound and the exact
/// per-driver test round differently; the slack keeps every rounding case
/// on the scan side, so pruning can never drop a driver the exact test
/// would accept.
constexpr double kReachSlack = 1.0 + 1e-9;

/// Where the batch's drivers actually are, built in one pass over the
/// drivers per generation call: the bounding box of each region's driver
/// positions (a GPS fix outside the city box is clamped into a border cell
/// but keeps its real coordinates here) and the fleet's latitude range.
/// Boxes of empty regions are never read.
struct DriverBounds {
  std::vector<BoundingBox> region_box;
  double lat_min = std::numeric_limits<double>::infinity();
  double lat_max = -std::numeric_limits<double>::infinity();
};

DriverBounds BuildDriverBounds(const BatchContext& ctx) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  DriverBounds b;
  b.region_box.assign(static_cast<size_t>(ctx.grid().num_regions()),
                      BoundingBox{kInf, -kInf, kInf, -kInf});
  for (const AvailableDriver& d : ctx.drivers()) {
    BoundingBox& box = b.region_box[static_cast<size_t>(d.region)];
    box.lon_min = std::min(box.lon_min, d.location.lon);
    box.lon_max = std::max(box.lon_max, d.location.lon);
    box.lat_min = std::min(box.lat_min, d.location.lat);
    box.lat_max = std::max(box.lat_max, d.location.lat);
    b.lat_min = std::min(b.lat_min, d.location.lat);
    b.lat_max = std::max(b.lat_max, d.location.lat);
  }
  return b;
}

/// Deterministic work done by one generation call (see candidates.h).
struct CandidateWork {
  int64_t regions_visited = 0;
  int64_t drivers_scanned = 0;
  int64_t pairs = 0;

  void Add(const CandidateWork& o) {
    regions_visited += o.regions_visited;
    drivers_scanned += o.drivers_scanned;
    pairs += o.pairs;
  }
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
/// regions in Grid::ForEachInRing order, drivers in region order. Every
/// generation path (serial or sharded) goes through this function with the
/// same per-rider order, so the concatenated pair list is identical no
/// matter how the riders were distributed over workers.
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
void ForRiderValidPairs(const BatchContext& ctx, const DriverBounds& bounds,
                        int ri, CandidateWork* work, Sink&& sink) {
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
      std::min(std::cos(0.5 * (p.lat + bounds.lat_min) * kRadiansPerDegree),
               std::cos(0.5 * (p.lat + bounds.lat_max) * kRadiansPerDegree)));
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
      const std::vector<int>& bucket =
          ctx.drivers_by_region()[static_cast<size_t>(reg)];
      if (bucket.empty()) return;
      const BoundingBox& box = bounds.region_box[static_cast<size_t>(reg)];
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

/// Fills `out` (pre-sized to riders().size()) with each rider's pairs.
/// When the context carries a parallel execution, riders are generated
/// per-shard across the pool; each worker writes only its shard's rider
/// slots and work tally, so no synchronisation is needed and the per-rider
/// contents are exactly the serial ones.
void GeneratePerRider(const BatchContext& ctx,
                      std::vector<std::vector<CandidatePair>>* out) {
  const DriverBounds bounds = BuildDriverBounds(ctx);
  const BatchExecution* exec = ctx.execution();
  CandidateWork work;
  if (exec != nullptr && exec->Parallel() && ctx.riders().size() > 1) {
    const RegionPartitioner& parts = *exec->partitioner;
    // Shared one-pass shard index (built once per batch and reused by the
    // pipeline's ShardedBatchContexts; must be ensured before fanning out).
    const BatchContext::ShardIndex& index = *ctx.EnsureShardIndex();
    std::vector<CandidateWork> shard_work(
        static_cast<size_t>(parts.num_shards()));
    exec->pool->ParallelFor(parts.num_shards(), [&](int s) {
      CandidateWork& w = shard_work[static_cast<size_t>(s)];
      for (int ri : index.riders[static_cast<size_t>(s)]) {
        auto& dst = (*out)[static_cast<size_t>(ri)];
        ForRiderValidPairs(ctx, bounds, ri, &w,
                           [&dst](int rr, int di, double tt) {
                             dst.push_back({rr, di, tt});
                           });
      }
    });
    for (const CandidateWork& w : shard_work) work.Add(w);
  } else {
    for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
      auto& dst = (*out)[static_cast<size_t>(ri)];
      ForRiderValidPairs(ctx, bounds, ri, &work,
                         [&dst](int rr, int di, double tt) {
                           dst.push_back({rr, di, tt});
                         });
    }
  }
  PublishWork(ctx, work);
}

}  // namespace

std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx) {
  const BatchExecution* exec = ctx.execution();
  if (exec == nullptr || !exec->Parallel() || ctx.riders().size() <= 1) {
    // Serial: sink straight into the flat list, no per-rider buffers.
    std::vector<CandidatePair> out;
    const DriverBounds bounds = BuildDriverBounds(ctx);
    CandidateWork work;
    for (int ri = 0; ri < static_cast<int>(ctx.riders().size()); ++ri) {
      ForRiderValidPairs(ctx, bounds, ri, &work,
                         [&out](int rr, int di, double tt) {
                           out.push_back({rr, di, tt});
                         });
    }
    PublishWork(ctx, work);
    return out;
  }
  std::vector<std::vector<CandidatePair>> per_rider(ctx.riders().size());
  GeneratePerRider(ctx, &per_rider);
  size_t total = 0;
  for (const auto& g : per_rider) total += g.size();
  std::vector<CandidatePair> out;
  out.reserve(total);
  for (const auto& g : per_rider) {
    out.insert(out.end(), g.begin(), g.end());
  }
  return out;
}

std::vector<std::vector<CandidatePair>> GenerateValidPairsPerRider(
    const BatchContext& ctx) {
  std::vector<std::vector<CandidatePair>> out(ctx.riders().size());
  GeneratePerRider(ctx, &out);
  return out;
}

}  // namespace mrvd
