// Batch-construction stage of the staged engine. Rebuilds the BatchContext
// the dispatchers consume from the OrderBook and FleetState:
//
//   * riders are *materialised* — copied into the context's dense array in
//     arrival order;
//   * drivers are not copied: the builder patches the FleetState's driver
//     index (ascending fleet index, bucketed by region) with the drivers
//     that changed since the last batch and binds the context to it;
//   * region demand/supply snapshots are read straight off the stages'
//     incremental state (OrderBook::demand_by_region, the driver index's
//     bucket sizes, FleetState::rejoining_in_window) instead of the former
//     per-batch recount over every rider, driver, and busy schedule.
//
// The builder owns one context and rebuilds it in place each batch, so a
// batch build allocates nothing once capacities have grown to the run's
// largest batch.
#pragma once

#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "sim/batch.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"

namespace mrvd {

namespace telemetry {
class Counter;
class TelemetrySession;
}  // namespace telemetry

class BatchBuilder {
 public:
  /// `forecast` may be null (no prediction); `telemetry` may be null
  /// (telemetry off). All referenced objects must outlive the builder.
  /// With a session attached, every build adds the drivers its context
  /// exposes to the kDeterministic counter batch.drivers_materialised and
  /// the index entries it removed plus inserted to batch.drivers_patched,
  /// and the context counts its ET solves
  /// (BatchContext::ExpectedIdleSeconds).
  BatchBuilder(const Grid& grid, const TravelCostModel& cost_model,
               const DemandForecast* forecast, double window_seconds,
               double reneging_beta, CandidateMode candidate_mode,
               telemetry::TelemetrySession* telemetry = nullptr);

  /// Builds the batch at time `now`. Context rider index i is waiting()
  /// index i (every waiting rider is materialised, in order); the context's
  /// drivers are `fleet`'s driver index, synced here: entries carry their
  /// FleetState index as driver_id, ascending. Signed-off (scenario shift)
  /// drivers are never in it. `demand_multipliers` (may be null = all 1.0)
  /// scales each region's predicted rider demand — the engine passes the
  /// active surge windows' per-region product.
  ///
  /// The returned context is the builder's own: it stays valid, and
  /// unchanged, until the next Build (or anything else that syncs
  /// `fleet`'s driver index) and as long as `fleet` lives.
  const BatchContext& Build(
      double now, const OrderBook& orders, FleetState& fleet,
      const std::vector<double>* demand_multipliers = nullptr);

 private:
  void MaterialiseRiders(const OrderBook& orders);
  void BuildSnapshots(double now, const OrderBook& orders,
                      const FleetState& fleet,
                      const std::vector<double>* demand_multipliers);

  const Grid& grid_;
  const DemandForecast* forecast_;
  const double window_seconds_;
  /// Each region's forecast window count, reused across batches.
  std::vector<double> predicted_riders_;
  BatchContext ctx_;
  telemetry::Counter* drivers_materialised_ = nullptr;  ///< null: off
  telemetry::Counter* drivers_patched_ = nullptr;       ///< null: off
};

}  // namespace mrvd
