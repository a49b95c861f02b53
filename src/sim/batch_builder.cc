#include "sim/batch_builder.h"

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
                           CandidateMode candidate_mode)
    : grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast),
      window_seconds_(window_seconds),
      reneging_beta_(reneging_beta),
      candidate_mode_(candidate_mode) {}

std::unique_ptr<BatchContext> BatchBuilder::Build(
    double now, const OrderBook& orders, const FleetState& fleet,
    const std::vector<double>* demand_multipliers) const {
  auto ctx = std::make_unique<BatchContext>(now, window_seconds_,
                                            reneging_beta_, grid_, cost_model_,
                                            candidate_mode_);
  MaterialiseRiders(ctx.get(), orders);
  MaterialiseDrivers(ctx.get(), fleet);
  BuildSnapshots(ctx.get(), now, orders, fleet, demand_multipliers);
  return ctx;
}

void BatchBuilder::MaterialiseRiders(BatchContext* ctx,
                                     const OrderBook& orders) const {
  const std::deque<PendingRider>& waiting = orders.waiting();
  std::vector<WaitingRider> riders;
  riders.reserve(waiting.size());
  for (const PendingRider& pr : waiting) riders.push_back(Materialise(pr));
  ctx->SetRiders(std::move(riders));
}

void BatchBuilder::MaterialiseDrivers(BatchContext* ctx,
                                      const FleetState& fleet) const {
  const std::vector<DriverState>& all = fleet.drivers();
  std::vector<AvailableDriver> drivers;
  drivers.reserve(static_cast<size_t>(fleet.available_count()));
  for (size_t j = 0; j < all.size(); ++j) {
    const DriverState& d = all[j];
    if (!d.Dispatchable()) continue;
    AvailableDriver ad;
    ad.driver_id = static_cast<DriverId>(j);
    ad.location = d.location;
    ad.region = d.region;
    ad.available_since = d.available_since;
    drivers.push_back(ad);
  }
  ctx->SetDrivers(std::move(drivers));
}

void BatchBuilder::BuildSnapshots(
    BatchContext* ctx, double now, const OrderBook& orders,
    const FleetState& fleet,
    const std::vector<double>* demand_multipliers) const {
  const int num_regions = grid_.num_regions();
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(num_regions));
  const std::vector<int64_t>& demand = orders.demand_by_region();
  const std::vector<int64_t>& supply = fleet.available_by_region();
  const std::vector<int32_t>& rejoining = fleet.rejoining_in_window();
  for (int k = 0; k < num_regions; ++k) {
    RegionSnapshot& s = snaps[static_cast<size_t>(k)];
    s.waiting_riders = demand[static_cast<size_t>(k)];
    s.available_drivers = supply[static_cast<size_t>(k)];
    if (forecast_ != nullptr) {
      s.predicted_riders = forecast_->WindowCount(now, window_seconds_, k);
      if (demand_multipliers != nullptr) {
        s.predicted_riders *= (*demand_multipliers)[static_cast<size_t>(k)];
      }
    }
    s.predicted_drivers =
        static_cast<double>(rejoining[static_cast<size_t>(k)]);
  }
  ctx->SetSnapshots(std::move(snaps));
}

}  // namespace mrvd
