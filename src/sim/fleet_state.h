// Driver-lifecycle stage of the staged engine: owns every driver's state,
// the busy-completion heap, and the supply the BatchBuilder reads instead
// of rescanning the fleet each batch:
//
//   * driver_index() — the dispatchable drivers by ascending fleet index,
//     bucketed by region (|D_k| is a bucket's size). Every call that
//     changes a driver's dispatchability or batch fields queues the driver,
//     and SyncDriverIndex() patches the index from that queue once per
//     batch;
//   * rejoining_in_window() — the rejoined-driver schedule |D̂_k| over
//     (now, now + t_c] (§3.1.2: supply is known from the schedules of
//     active drivers), maintained by a window-entry heap plus a per-driver
//     "counted" flag so each completion event is counted while — and only
//     while — it lies inside the sliding window.
//
// Both equal what the monolithic engine recounted per batch, so every
// snapshot they feed is bit-identical.
#pragma once

#include <queue>
#include <vector>

#include "geo/grid.h"
#include "sim/batch.h"
#include "sim/driver_index.h"
#include "workload/types.h"

namespace mrvd {

/// Mutable state of one driver across the day.
struct DriverState {
  DriverId id = -1;  ///< workload DriverSpec::id (scenario scripts' space)
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
  bool busy = false;
  double busy_until = 0.0;
  LatLon busy_dest;
  RegionId busy_dest_region = kInvalidRegion;
  /// Idle-time estimate captured when the driver (re)joined a queue.
  double pending_estimate = -1.0;  ///< < 0: none
  /// True while this driver's completion is counted in rejoining_in_window_.
  bool counted_in_window = false;
  /// Off duty (scenario shift change): out of the driver index and the
  /// rejoin window. Mutually exclusive with `busy`.
  bool signed_off = false;
  /// Busy driver that will sign off when the current trip completes.
  bool sign_off_pending = false;
  /// Queued for the next FleetState::SyncDriverIndex.
  bool index_pending = false;

  /// True if the driver can receive assignments in the next batch.
  bool Dispatchable() const { return !busy && !signed_off; }
};

class FleetState {
 public:
  FleetState(const std::vector<DriverSpec>& drivers, const Grid& grid);
  FleetState(const Workload& workload, const Grid& grid)
      : FleetState(workload.drivers, grid) {}

  int size() const { return static_cast<int>(drivers_.size()); }
  const DriverState& driver(int j) const {
    return drivers_[static_cast<size_t>(j)];
  }
  const std::vector<DriverState>& drivers() const { return drivers_; }

  /// Algorithm 1 step: busy drivers whose trip completes by `now` rejoin
  /// the platform at their dropoff (location, region, available_since all
  /// advance) and are queued for a fresh idle-time estimate.
  void ReleaseFinished(double now);

  /// Slides the rejoined-driver window to (now, now + window_seconds]:
  /// completion events entering the window start counting toward their
  /// dropoff region's predicted supply. Call once per batch, after
  /// ReleaseFinished and before the snapshot build.
  void AdvanceRejoinWindow(double now, double window_seconds);

  /// Marks driver `j` busy until `busy_until`, bound for `dest`; the
  /// completion event is scheduled into the rejoin window.
  void MarkBusy(int j, double busy_until, const LatLon& dest,
                RegionId dest_region);

  /// Scenario shift change: the driver leaves the supply. An idle driver
  /// leaves the driver index at the next sync; a busy driver finishes the
  /// current trip first (sign-off pending) and its completion event leaves
  /// the rejoin-window schedule at once — the region's predicted supply
  /// must not count a driver that will not rejoin. Returns false (no-op)
  /// if the driver is already off duty or pending sign-off.
  bool SignOff(int j);

  /// Scenario shift change: the driver re-enters the supply at its current
  /// location, incrementally (queued for the index sync plus the
  /// fresh-driver queue — never a rescan). Cancels a pending sign-off (the
  /// driver simply stays on duty and rejoins normally). Returns false if
  /// the driver is already on duty.
  bool SignOn(int j, double now);

  /// Captures ET estimates for drivers that (re)joined since the last call
  /// (skipped when `ctx` is null, but the fresh list is always consumed).
  void CaptureIdleEstimates(const BatchContext* ctx);

  /// Clears a driver's captured estimate once it has been consumed.
  void ClearIdleEstimate(int j) {
    drivers_[static_cast<size_t>(j)].pending_estimate = -1.0;
  }

  /// Patches driver_index() with every driver queued since the last sync
  /// and returns the entries removed plus inserted. A BatchContext viewing
  /// the index stays unchanged until then; BatchBuilder::Build syncs.
  int64_t SyncDriverIndex();

  /// The dispatchable drivers as of the last sync: entry driver_id is the
  /// FleetState index, in ascending order.
  const DriverIndex& driver_index() const { return index_; }

  /// |D̂_k|: busy drivers rejoining region k within the current window.
  const std::vector<int32_t>& rejoining_in_window() const {
    return rejoining_in_window_;
  }

  bool HasBusyDrivers() const { return !busy_heap_.empty(); }
  bool HasFreshDrivers() const { return !fresh_drivers_.empty(); }

 private:
  using TimedDriver = std::pair<double, int>;  ///< (time, driver index)
  using MinHeap = std::priority_queue<TimedDriver, std::vector<TimedDriver>,
                                      std::greater<>>;

  /// Queues driver `j` for the next index sync (once per sync).
  void MarkChanged(int j);

  std::vector<DriverState> drivers_;
  MinHeap busy_heap_;    ///< (busy_until, j): pending trip completions
  MinHeap window_heap_;  ///< (busy_until, j): not yet inside the window
  std::vector<int> fresh_drivers_;  ///< (re)joined since the last capture
  std::vector<int32_t> rejoining_in_window_;
  DriverIndex index_;
  std::vector<int> changed_;  ///< queued since the last sync, unordered
  // SyncDriverIndex's edit lists, reused.
  std::vector<int> removed_;
  std::vector<DriverInsert> inserted_;
};

}  // namespace mrvd
