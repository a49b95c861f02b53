// Assignment-application stage of the staged engine: validates the
// dispatcher's selected pairs (index ranges, one-assignment-per-entity,
// Def.-3 validity unless the run waives pickup travel), reports each
// refused pair (OnAssignmentRejected, plus a telemetry counter per reason)
// and applies the accepted ones — the driver goes busy until pickup + trip
// completes, the rider is marked served — emitting one AssignmentEvent per
// accepted pair so observers (metrics, traces) stay out of the simulation
// logic. Served riders are removed from the order book with a single
// compaction pass at the end of the batch.
#pragma once

#include <string>
#include <vector>

#include "sim/batch.h"
#include "sim/fleet_state.h"
#include "sim/observer.h"
#include "sim/order_book.h"

namespace mrvd {

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

class AssignmentApplier {
 public:
  /// `dispatcher_name` labels validation warnings. `zero_pickup_travel`
  /// waives pickup cost and pair validity (UPPER mode). `telemetry` (may be
  /// null) gains a deterministic `engine.rejected_*` counter the first
  /// time a pair is refused for that reason.
  AssignmentApplier(std::string dispatcher_name, bool zero_pickup_travel,
                    telemetry::TelemetrySession* telemetry);

  /// Applies `assignments` against the batch in emission order; `observer`
  /// may be null. The context's rider indices must address `orders`'
  /// waiting pool directly (the BatchBuilder guarantees this).
  void Apply(double now, const BatchContext& ctx,
             const std::vector<Assignment>& assignments, FleetState* fleet,
             OrderBook* orders, SimObserver* observer) const;

 private:
  void Reject(double now, const Assignment& a, AssignmentRejection why,
              SimObserver* observer) const;

  const std::string dispatcher_name_;
  const bool zero_pickup_travel_;
  telemetry::TelemetrySession* const telemetry_;
};

}  // namespace mrvd
