#include "sim/assignment_applier.h"

#include "telemetry/session.h"
#include "util/logging.h"

namespace mrvd {

AssignmentApplier::AssignmentApplier(std::string dispatcher_name,
                                     bool zero_pickup_travel,
                                     telemetry::TelemetrySession* telemetry)
    : dispatcher_name_(std::move(dispatcher_name)),
      zero_pickup_travel_(zero_pickup_travel),
      telemetry_(telemetry) {}

void AssignmentApplier::Reject(double now, const Assignment& a,
                               AssignmentRejection why,
                               SimObserver* observer) const {
  const char* reason = why == AssignmentRejection::kOutOfRange ? "out_of_range"
                       : why == AssignmentRejection::kDuplicate ? "duplicate"
                                                                : "late";
  MRVD_LOG(Warn) << dispatcher_name_ << ": rejected " << reason
                 << " assignment (rider " << a.rider_index << ", driver "
                 << a.driver_index << ")";
  // Registered on first use, so the metrics of a run without rejections
  // are unchanged.
  if (telemetry_ != nullptr) {
    telemetry_->metrics()
        .counter(std::string("engine.rejected_") + reason)
        ->Add();
  }
  if (observer != nullptr) observer->OnAssignmentRejected(now, a, why);
}

void AssignmentApplier::Apply(double now, const BatchContext& ctx,
                              const std::vector<Assignment>& assignments,
                              FleetState* fleet, OrderBook* orders,
                              SimObserver* observer) const {
  std::vector<char> rider_taken(ctx.riders().size(), false);
  std::vector<char> driver_taken(ctx.drivers().size(), false);
  for (const Assignment& a : assignments) {
    if (a.rider_index < 0 ||
        a.rider_index >= static_cast<int>(ctx.riders().size()) ||
        a.driver_index < 0 ||
        a.driver_index >= static_cast<int>(ctx.drivers().size())) {
      Reject(now, a, AssignmentRejection::kOutOfRange, observer);
      continue;
    }
    if (rider_taken[static_cast<size_t>(a.rider_index)] ||
        driver_taken[static_cast<size_t>(a.driver_index)]) {
      Reject(now, a, AssignmentRejection::kDuplicate, observer);
      continue;
    }
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(a.rider_index)];
    const AvailableDriver& ad =
        ctx.drivers()[static_cast<size_t>(a.driver_index)];
    double pickup_tt = zero_pickup_travel_ ? 0.0 : ctx.PickupSeconds(ad, r);
    if (!zero_pickup_travel_ && now + pickup_tt > r.pickup_deadline) {
      Reject(now, a, AssignmentRejection::kLate, observer);
      continue;
    }
    rider_taken[static_cast<size_t>(a.rider_index)] = true;
    driver_taken[static_cast<size_t>(a.driver_index)] = true;

    const int j = static_cast<int>(ad.driver_id);
    const DriverState& d = fleet->driver(j);

    AssignmentEvent e;
    e.rider_index = a.rider_index;
    e.driver_index = a.driver_index;
    e.order_id = r.order_id;
    e.driver_id = d.id;
    e.driver_region = d.region;  // region the driver idled in
    e.pickup_seconds = pickup_tt;
    e.wait_seconds = now - r.request_time;
    e.real_idle_seconds = now - d.available_since;
    e.idle_estimate = d.pending_estimate;
    e.revenue = r.revenue;
    e.busy_until = now + pickup_tt + r.trip_seconds;

    fleet->ClearIdleEstimate(j);
    fleet->MarkBusy(j, e.busy_until, r.dropoff, r.dropoff_region);
    orders->MarkServed(a.rider_index);
    if (observer != nullptr) observer->OnAssignmentApplied(now, e);
  }
  orders->CompactServed();
}

}  // namespace mrvd
