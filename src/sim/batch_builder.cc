#include "sim/batch_builder.h"

#include "telemetry/session.h"

namespace mrvd {

namespace {

WaitingRider Materialise(const PendingRider& pr) {
  WaitingRider wr;
  wr.order_id = pr.order.id;
  wr.pickup = pr.order.pickup;
  wr.dropoff = pr.order.dropoff;
  wr.request_time = pr.order.request_time;
  wr.pickup_deadline = pr.order.pickup_deadline;
  wr.revenue = pr.revenue;
  wr.trip_seconds = pr.trip_seconds;
  wr.pickup_region = pr.pickup_region;
  wr.dropoff_region = pr.dropoff_region;
  return wr;
}

}  // namespace

BatchBuilder::BatchBuilder(const Grid& grid, const TravelCostModel& cost_model,
                           const DemandForecast* forecast,
                           double window_seconds, double reneging_beta,
                           CandidateMode candidate_mode,
                           telemetry::TelemetrySession* telemetry)
    : grid_(grid),
      forecast_(forecast),
      window_seconds_(window_seconds),
      predicted_riders_(static_cast<size_t>(grid.num_regions())),
      ctx_(0.0, window_seconds, reneging_beta, grid, cost_model,
           candidate_mode) {
  ctx_.SetTelemetry(telemetry);
  if (telemetry != nullptr) {
    drivers_materialised_ =
        telemetry->metrics().counter("batch.drivers_materialised");
    drivers_patched_ = telemetry->metrics().counter("batch.drivers_patched");
  }
}

const BatchContext& BatchBuilder::Build(
    double now, const OrderBook& orders, FleetState& fleet,
    const std::vector<double>* demand_multipliers) {
  ctx_.Reset(now);
  MaterialiseRiders(orders);
  const int64_t patched = fleet.SyncDriverIndex();
  ctx_.BindDrivers(fleet.driver_index());
  if (drivers_materialised_ != nullptr) {
    drivers_materialised_->Add(static_cast<int64_t>(ctx_.drivers().size()));
    drivers_patched_->Add(patched);
  }
  BuildSnapshots(now, orders, fleet, demand_multipliers);
  return ctx_;
}

void BatchBuilder::MaterialiseRiders(const OrderBook& orders) {
  for (const PendingRider& pr : orders.waiting()) {
    ctx_.riders_.push_back(Materialise(pr));
  }
}

void BatchBuilder::BuildSnapshots(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers) {
  if (forecast_ != nullptr) {
    forecast_->WindowCounts(now, window_seconds_, predicted_riders_);
  }
  const int num_regions = grid_.num_regions();
  const std::vector<int64_t>& demand = orders.demand_by_region();
  const std::vector<int32_t>& rejoining = fleet.rejoining_in_window();
  for (int k = 0; k < num_regions; ++k) {
    RegionSnapshot& s = ctx_.snapshots_[static_cast<size_t>(k)];
    s.waiting_riders = demand[static_cast<size_t>(k)];
    s.available_drivers = static_cast<int64_t>(ctx_.DriversIn(k).size());
    if (forecast_ != nullptr) {
      s.predicted_riders = predicted_riders_[static_cast<size_t>(k)];
      if (demand_multipliers != nullptr) {
        s.predicted_riders *= (*demand_multipliers)[static_cast<size_t>(k)];
      }
    }
    s.predicted_drivers =
        static_cast<double>(rejoining[static_cast<size_t>(k)]);
  }
}

}  // namespace mrvd
