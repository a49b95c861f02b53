// Batch-processing interface between the simulator and the dispatching
// algorithms (Algorithm 1, line 7). The engine snapshots the platform state
// every Δ seconds and hands the dispatcher a BatchContext; the dispatcher
// returns rider-driver assignments.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "queueing/rates.h"
#include "workload/types.h"

namespace mrvd {

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

/// A rider waiting in the current batch.
struct WaitingRider {
  OrderId order_id = -1;
  LatLon pickup;
  LatLon dropoff;
  double request_time = 0.0;
  double pickup_deadline = 0.0;
  double revenue = 0.0;        ///< α * cost(s_i, e_i), precomputed
  double trip_seconds = 0.0;   ///< cost(s_i, e_i)
  RegionId pickup_region = kInvalidRegion;
  RegionId dropoff_region = kInvalidRegion;
};

/// An available driver in the current batch.
struct AvailableDriver {
  DriverId driver_id = -1;
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
};

/// One selected rider-and-driver dispatching pair; indices refer to the
/// BatchContext's riders()/drivers() arrays.
struct Assignment {
  int rider_index = -1;
  int driver_index = -1;
};

/// How candidate rider-driver pairs are generated.
enum class CandidateMode {
  /// Pairs only within the rider's pickup region (Algorithm 2 lines 3-4:
  /// valid pairs are retrieved from R_k and D_k of the same region a_k).
  /// This keeps the region queue model exact: a rejoining driver competes
  /// only with his region's riders, as §4 assumes.
  kRegionLocal,
  /// Ring-expanding cross-region search bounded by the pickup deadline —
  /// a generalization that admits any Def.-3-valid pair.
  kRingExpand,
};

/// Read-mostly snapshot of one batch. The idle-time estimates are cached
/// per (region, extra-driver count) because IRG/LS/SHORT re-query them as
/// their tentative selections shift future driver supply (§5.1, line 11).
class BatchContext {
 public:
  BatchContext(double now, double window_seconds, double reneging_beta,
               const Grid& grid, const TravelCostModel& cost_model,
               CandidateMode candidate_mode = CandidateMode::kRingExpand);

  CandidateMode candidate_mode() const { return candidate_mode_; }

  double now() const { return now_; }
  double window_seconds() const { return window_seconds_; }
  const Grid& grid() const { return grid_; }
  const TravelCostModel& cost_model() const { return cost_model_; }

  const std::vector<WaitingRider>& riders() const { return riders_; }
  const std::vector<AvailableDriver>& drivers() const { return drivers_; }
  /// Indices of available drivers bucketed by current region.
  const std::vector<std::vector<int>>& drivers_by_region() const {
    return drivers_by_region_;
  }

  /// Region demand/supply snapshots (inputs of Eqs. 18/19).
  const std::vector<RegionSnapshot>& snapshots() const { return snapshots_; }

  /// λ(k), μ(k) for the scheduling window (Eqs. 18/19), with
  /// `extra_drivers` added to the rejoining-driver count of the region —
  /// used by the dispatchers to price tentative selections.
  RegionRates RatesFor(RegionId region, int extra_drivers = 0) const;

  /// Expected idle time ET(λ(k), μ(k)) in seconds for a driver rejoining
  /// `region`, given `extra_drivers` additional rejoiners (cached; the memo
  /// table is not thread-safe).
  double ExpectedIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Same value as ExpectedIdleSeconds but bypassing the memo table: a pure
  /// function of the immutable snapshots.
  double ComputeIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Optional telemetry session (null = telemetry off), set by the engine
  /// so dispatchers can emit trace spans and phase histograms without any
  /// extra plumbing. Borrowed; must outlive the batch.
  void SetTelemetry(telemetry::TelemetrySession* telemetry) {
    telemetry_ = telemetry;
  }
  telemetry::TelemetrySession* telemetry() const { return telemetry_; }

  /// Travel seconds from a driver's location to a rider's pickup.
  double PickupSeconds(const AvailableDriver& d, const WaitingRider& r) const {
    return cost_model_.TravelSeconds(d.location, r.pickup);
  }

  /// True if driver `d` can reach rider `r`'s pickup before the deadline
  /// (Def. 3, valid rider-and-driver dispatching pair).
  bool IsValidPair(const AvailableDriver& d, const WaitingRider& r) const {
    return now_ + PickupSeconds(d, r) <= r.pickup_deadline;
  }

  /// Mutable setup API (used by the engine when building the batch).
  void AddRider(const WaitingRider& r);
  void AddDriver(const AvailableDriver& d);
  void SetSnapshots(std::vector<RegionSnapshot> snapshots);

  /// Bulk setup API (the staged engine's BatchBuilder materialises the
  /// vectors and moves them in; the per-region driver buckets are rebuilt
  /// in one pass, in the same ascending context-index order AddDriver
  /// produces).
  void SetRiders(std::vector<WaitingRider> riders);
  void SetDrivers(std::vector<AvailableDriver> drivers);

  /// Cap on congested drivers K for region ET queries: available drivers in
  /// the region now plus predicted rejoiners (at least 1).
  int64_t MaxDriversFor(RegionId region, int extra_drivers) const;

 private:
  /// Memo key for (region, extra_drivers); extra_drivers < 2^20.
  static int64_t IdleCacheKey(RegionId region, int extra_drivers) {
    return (static_cast<int64_t>(region) << 20) | extra_drivers;
  }

  /// The snapshot of the queue a driver rejoining `region` joins: the 3x3
  /// service neighbourhood summed in Grid::ForEachInRing order under
  /// kRingExpand, the region's own snapshot under kRegionLocal.
  RegionSnapshot ServiceSnapshot(RegionId region) const;

  double now_;
  double window_seconds_;
  double reneging_beta_;
  const Grid& grid_;
  const TravelCostModel& cost_model_;
  CandidateMode candidate_mode_;

  std::vector<WaitingRider> riders_;
  std::vector<AvailableDriver> drivers_;
  std::vector<std::vector<int>> drivers_by_region_;
  std::vector<RegionSnapshot> snapshots_;
  telemetry::TelemetrySession* telemetry_ = nullptr;  ///< borrowed; may be null

  /// (region << 20 | extra) -> ET cache.
  mutable std::unordered_map<int64_t, double> idle_cache_;
};

/// Per-Dispatch work counters for iterative dispatchers (currently LS):
/// convergence behaviour observable without a profiler. Sweep-less
/// dispatchers leave everything zero.
struct DispatchCounters {
  int64_t sweeps = 0;          ///< refinement sweeps actually run
  int64_t swaps_applied = 0;   ///< improving swaps committed
  int64_t proposals = 0;       ///< best-swap evaluations proposed
  /// Snapshot proposals invalidated by an earlier commit and recomputed
  /// (always 0 on the reference sweep) — proposals_recomputed / proposals
  /// is the conflict rate of the snapshot sweep.
  int64_t proposals_recomputed = 0;
};

/// A batch dispatching algorithm (§5, §6.3).
class Dispatcher {
 public:
  virtual ~Dispatcher() = default;

  /// Display name ("IRG", "LS", "POLAR", ...).
  virtual std::string name() const = 0;

  /// Selects the batch's rider-and-driver pairs. Each rider and each driver
  /// may appear in at most one assignment, and every returned pair must be
  /// valid per BatchContext::IsValidPair (UPPER is exempt: the engine runs
  /// it with zero pickup travel).
  virtual void Dispatch(const BatchContext& ctx,
                        std::vector<Assignment>* out) = 0;

  /// Work counters for the most recent Dispatch, or null if the dispatcher
  /// does not track any. Valid until the next Dispatch on this object.
  virtual const DispatchCounters* counters() const { return nullptr; }
};

}  // namespace mrvd
