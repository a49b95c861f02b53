// Valid rider-and-driver pair generation (Def. 3). Candidate drivers are
// found by expanding grid rings around the rider's pickup region.
//
// Pruning rests on the TravelCostModel contract (geo/travel.h):
// TravelSeconds(a, b) >= EquirectangularMeters(a, b) / MaxSpeedMps(), so
// no driver farther than the crow-fly reach budget * MaxSpeedMps() can be
// valid.
// The BatchContext records, once per batch, the bounding box of each
// region's actual driver positions and the fleet's latitude range
// (BatchContext::DriverBox, driver_lat_min/max). Per rider, one
// cos(latitude) lower bound from that range turns the reach into (a) a
// ring cap, floor(reach / min(cell_w * cos, cell_h)) + 1, and (b) a
// per-region test that skips any region whose driver box lies beyond the
// reach. Every driver of a scanned region gets the exact test now + travel
// <= pickup_deadline, so the output is every valid pair, in the canonical
// order: riders ascending, rings outward, regions in Grid::ForEachInRing
// order, drivers in region order.
//
// With a telemetry session attached, each call adds its work to the
// kDeterministic counters candidates.regions_visited (ring regions
// enumerated), candidates.drivers_scanned (exact travel-cost tests) and
// candidates.pairs.
#pragma once

#include <vector>

#include "sim/batch.h"

namespace mrvd {

/// One valid pair with its pickup cost.
struct CandidatePair {
  int rider_index = -1;
  int driver_index = -1;
  double pickup_seconds = 0.0;
};

/// All valid pairs of the batch. Per rider, O(regions within the
/// deadline-feasible ring radius) plus the drivers of those whose driver
/// box the reach touches.
std::vector<CandidatePair> GenerateValidPairs(const BatchContext& ctx);

/// Candidate pairs grouped per rider (same contents as GenerateValidPairs).
std::vector<std::vector<CandidatePair>> GenerateValidPairsPerRider(
    const BatchContext& ctx);

}  // namespace mrvd
