// Batch-processing interface between the simulator and the dispatching
// algorithms (Algorithm 1, line 7). The engine snapshots the platform state
// every Δ seconds and hands the dispatcher a BatchContext; the dispatcher
// returns rider-driver assignments.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "queueing/rates.h"
#include "sim/driver_index.h"
#include "workload/types.h"

namespace mrvd {

namespace telemetry {
class Counter;
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

/// Read-mostly snapshot of one batch. The idle-time estimates are memoised
/// per (region, extra-driver count) because IRG/LS/SHORT re-query them as
/// their tentative selections shift future driver supply (§5.1, line 11).
///
/// The engine's BatchBuilder owns one context per run and rebuilds it in
/// place every batch: Reset(now) empties riders, drivers, snapshots and the
/// memo but keeps their capacity, so a batch allocates nothing once the run
/// has seen its largest batch.
///
/// The drivers, their flat region buckets (ascending context indices), the
/// region driver boxes and the latitude range the Def.-3 candidate search
/// prunes with are a view of a DriverIndex: the fleet's, which the builder
/// patches and binds every batch, or the context's own for hand-built
/// contexts. Binding caches the index's raw arrays, so reading a bucket or
/// a box costs what it cost when the context held its own copy.
class BatchContext {
 public:
  BatchContext(double now, double window_seconds, double reneging_beta,
               const Grid& grid, const TravelCostModel& cost_model,
               CandidateMode candidate_mode = CandidateMode::kRingExpand);

  /// Starts a new batch at `now`: clears riders, snapshots and the
  /// idle-time memo, keeping their capacity, and views the context's own,
  /// emptied, driver index. The telemetry session stays attached.
  void Reset(double now);

  CandidateMode candidate_mode() const { return candidate_mode_; }

  double now() const { return now_; }
  double window_seconds() const { return window_seconds_; }
  const Grid& grid() const { return grid_; }
  const TravelCostModel& cost_model() const { return cost_model_; }

  const std::vector<WaitingRider>& riders() const { return riders_; }
  /// The batch's available drivers; entries of the engine's batches are in
  /// ascending fleet index.
  std::span<const AvailableDriver> drivers() const { return drivers_; }

  /// Indices of the available drivers currently in `region`, ascending.
  std::span<const int> DriversIn(RegionId region) const {
    const auto k = static_cast<size_t>(region);
    return {region_drivers_ + region_start_[k],
            region_drivers_ + region_start_[k + 1]};
  }

  /// Bounding box of the positions of `region`'s drivers (a GPS fix outside
  /// the city box is clamped into a border cell but keeps its real
  /// coordinates here). Meaningless for a region with no driver.
  const BoundingBox& DriverBox(RegionId region) const {
    return driver_box_[static_cast<size_t>(region)];
  }

  /// Lowest and highest driver latitude of the batch (+inf / -inf when no
  /// driver is available).
  double driver_lat_min() const { return driver_lat_min_; }
  double driver_lat_max() const { return driver_lat_max_; }

  /// Region demand/supply snapshots (inputs of Eqs. 18/19).
  const std::vector<RegionSnapshot>& snapshots() const { return snapshots_; }

  /// λ(k), μ(k) for the scheduling window (Eqs. 18/19), with
  /// `extra_drivers` added to the rejoining-driver count of the region —
  /// used by the dispatchers to price tentative selections.
  RegionRates RatesFor(RegionId region, int extra_drivers = 0) const;

  /// Expected idle time ET(λ(k), μ(k)) in seconds for a driver rejoining
  /// `region`, given `extra_drivers` additional rejoiners (memoised for
  /// extra_drivers >= 0; the memo table is not thread-safe). With a
  /// telemetry session attached each solve (memo miss or negative
  /// extra_drivers) adds one to the kDeterministic counter batch.et_solves.
  double ExpectedIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Same value as ExpectedIdleSeconds but bypassing the memo table: a pure
  /// function of the immutable snapshots.
  double ComputeIdleSeconds(RegionId region, int extra_drivers = 0) const;

  /// Optional telemetry session (null = telemetry off), so dispatchers can
  /// emit trace spans and work counters without any extra plumbing.
  /// Borrowed; must outlive every batch built in this context.
  void SetTelemetry(telemetry::TelemetrySession* telemetry);
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

  /// Hand-built setup API (tests, benches), on the context's own driver
  /// index. AddDriver appends through DriverIndex::Patch, which costs
  /// O(drivers + regions) per call; bulk setup should use SetDrivers.
  void AddRider(const WaitingRider& r);
  void AddDriver(const AvailableDriver& d);
  void SetSnapshots(std::vector<RegionSnapshot> snapshots);

  /// Replaces the drivers: one Patch of the emptied own index.
  void SetDrivers(const std::vector<AvailableDriver>& drivers);

  /// Cap on congested drivers K for region ET queries: available drivers in
  /// the region now plus predicted rejoiners (at least 1).
  int64_t MaxDriversFor(RegionId region, int extra_drivers) const;

 private:
  /// The BatchBuilder fills riders_ and snapshots_ in place and binds the
  /// fleet's driver index.
  friend class BatchBuilder;

  /// Views `index` until the next bind: caches its roster, bucket, box and
  /// latitude-range values. The index must not be patched while viewed.
  void BindDrivers(const DriverIndex& index);

  /// Marks every memo entry not computed.
  void ClearMemo();

  /// Memo slot of (region, extra_drivers >= 0), growing the table's
  /// per-region stride to cover `extra_drivers`.
  double& MemoSlot(RegionId region, int extra_drivers) const;

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
  /// Hand-built contexts' drivers; on the heap so that the cached view
  /// below survives moving the context.
  std::unique_ptr<DriverIndex> own_drivers_;
  /// The bound DriverIndex's arrays (see DriverIndex for their layout).
  std::span<const AvailableDriver> drivers_;
  const int* region_start_ = nullptr;
  const int* region_drivers_ = nullptr;
  const BoundingBox* driver_box_ = nullptr;
  double driver_lat_min_ = 0.0;
  double driver_lat_max_ = 0.0;
  std::vector<RegionSnapshot> snapshots_;
  telemetry::TelemetrySession* telemetry_ = nullptr;  ///< borrowed; may be null
  telemetry::Counter* et_solves_ = nullptr;  ///< null without a session

  /// ET memo: region k's entry for `extra` is idle_memo_[k * memo_stride_ +
  /// extra], NaN until computed. memo_used_[k] bounds the entries of region
  /// k written since the last Reset, so Reset re-NaNs only those.
  mutable std::vector<double> idle_memo_;
  mutable std::vector<int> memo_used_;
  mutable int memo_stride_ = 0;
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
