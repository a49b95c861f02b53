#include "sim/fleet_state.h"

#include <algorithm>

namespace mrvd {

FleetState::FleetState(const std::vector<DriverSpec>& drivers,
                       const Grid& grid)
    : index_(grid.num_regions()) {
  drivers_.resize(drivers.size());
  rejoining_in_window_.assign(static_cast<size_t>(grid.num_regions()), 0);
  fresh_drivers_.reserve(drivers_.size());
  for (size_t j = 0; j < drivers_.size(); ++j) {
    DriverState& d = drivers_[j];
    d.id = drivers[j].id;
    d.location = drivers[j].origin;
    d.region = grid.RegionOf(d.location);
    d.available_since = drivers[j].join_time;
    d.busy = false;
    fresh_drivers_.push_back(static_cast<int>(j));
    MarkChanged(static_cast<int>(j));
  }
  SyncDriverIndex();
}

void FleetState::MarkChanged(int j) {
  DriverState& d = drivers_[static_cast<size_t>(j)];
  if (d.index_pending) return;
  d.index_pending = true;
  changed_.push_back(j);
}

int64_t FleetState::SyncDriverIndex() {
  if (changed_.empty()) return 0;
  std::sort(changed_.begin(), changed_.end());
  removed_.clear();
  inserted_.clear();
  // Both lists come out ascending: the roster and changed_ are both in
  // fleet-index order, so one forward search finds every position.
  const std::vector<AvailableDriver>& roster = index_.drivers();
  auto pos = roster.begin();
  for (int j : changed_) {
    DriverState& d = drivers_[static_cast<size_t>(j)];
    d.index_pending = false;
    pos = std::lower_bound(pos, roster.end(), j,
                           [](const AvailableDriver& e, int id) {
                             return e.driver_id < id;
                           });
    const auto at = static_cast<int>(pos - roster.begin());
    if (pos != roster.end() && pos->driver_id == j) removed_.push_back(at);
    if (d.Dispatchable()) {
      inserted_.push_back(
          {at, AvailableDriver{static_cast<DriverId>(j), d.location, d.region,
                               d.available_since}});
    }
  }
  changed_.clear();
  index_.Patch(removed_, inserted_);
  return static_cast<int64_t>(removed_.size() + inserted_.size());
}

void FleetState::ReleaseFinished(double now) {
  while (!busy_heap_.empty() && busy_heap_.top().first <= now) {
    int j = busy_heap_.top().second;
    busy_heap_.pop();
    DriverState& d = drivers_[static_cast<size_t>(j)];
    if (d.counted_in_window) {
      // The completion event leaves the window the moment it realizes.
      --rejoining_in_window_[static_cast<size_t>(d.busy_dest_region)];
      d.counted_in_window = false;
    }
    d.busy = false;
    d.location = d.busy_dest;
    d.region = d.busy_dest_region;
    d.available_since = d.busy_until;
    if (d.sign_off_pending) {
      // The driver worked the trip out and now leaves the platform: never
      // re-enters the driver index or the fresh-driver queue.
      d.sign_off_pending = false;
      d.signed_off = true;
      continue;
    }
    MarkChanged(j);
    fresh_drivers_.push_back(j);
  }
}

void FleetState::AdvanceRejoinWindow(double now, double window_seconds) {
  const double window_end = now + window_seconds;
  while (!window_heap_.empty() && window_heap_.top().first <= window_end) {
    auto [completes_at, j] = window_heap_.top();
    window_heap_.pop();
    // Events already realized (completes_at <= now) were handled by
    // ReleaseFinished and never enter the count — exactly the monolithic
    // engine's strict `now < busy_until <= now + t_c` recount condition.
    if (completes_at > now) {
      DriverState& d = drivers_[static_cast<size_t>(j)];
      // Guards for scenario churn: a sign-off/sign-on cycle can leave a
      // stale or duplicate heap entry behind, and a pending sign-off must
      // not count toward predicted supply (the driver will not rejoin).
      if (d.busy && d.busy_until == completes_at && !d.counted_in_window &&
          !d.sign_off_pending) {
        ++rejoining_in_window_[static_cast<size_t>(d.busy_dest_region)];
        d.counted_in_window = true;
      }
    }
  }
}

bool FleetState::SignOff(int j) {
  DriverState& d = drivers_[static_cast<size_t>(j)];
  if (d.signed_off || d.sign_off_pending) return false;
  if (d.busy) {
    d.sign_off_pending = true;
    if (d.counted_in_window) {
      --rejoining_in_window_[static_cast<size_t>(d.busy_dest_region)];
      d.counted_in_window = false;
    }
  } else {
    d.signed_off = true;
    MarkChanged(j);
  }
  return true;
}

bool FleetState::SignOn(int j, double now) {
  DriverState& d = drivers_[static_cast<size_t>(j)];
  if (d.sign_off_pending) {
    // Mid-trip reversal: stay on duty. The completion event re-enters the
    // window schedule; AdvanceRejoinWindow's guards absorb the duplicate
    // heap entry if the original is still queued.
    d.sign_off_pending = false;
    window_heap_.push({d.busy_until, j});
    return true;
  }
  if (!d.signed_off) return false;
  d.signed_off = false;
  d.available_since = now;
  MarkChanged(j);
  fresh_drivers_.push_back(j);
  return true;
}

void FleetState::MarkBusy(int j, double busy_until, const LatLon& dest,
                          RegionId dest_region) {
  DriverState& d = drivers_[static_cast<size_t>(j)];
  MarkChanged(j);
  d.busy = true;
  d.busy_until = busy_until;
  d.busy_dest = dest;
  d.busy_dest_region = dest_region;
  busy_heap_.push({busy_until, j});
  window_heap_.push({busy_until, j});
}

void FleetState::CaptureIdleEstimates(const BatchContext* ctx) {
  if (ctx != nullptr) {
    for (int j : fresh_drivers_) {
      DriverState& d = drivers_[static_cast<size_t>(j)];
      if (!d.Dispatchable()) continue;
      d.pending_estimate = ctx->ExpectedIdleSeconds(d.region);
    }
  }
  fresh_drivers_.clear();
}

}  // namespace mrvd
