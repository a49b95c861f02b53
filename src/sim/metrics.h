// Aggregated outcome of one simulated day (the quantities reported in the
// paper's evaluation: total revenue, served orders, batch running time,
// idle-time estimation accuracy).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/metrics.h"

namespace mrvd {

/// Per-region idle-time aggregates (Figure 6).
struct RegionIdleStats {
  double predicted_sum = 0.0;
  double real_sum = 0.0;
  int64_t count = 0;

  double MeanPredicted() const {
    return count == 0 ? 0.0 : predicted_sum / static_cast<double>(count);
  }
  double MeanReal() const {
    return count == 0 ? 0.0 : real_sum / static_cast<double>(count);
  }
};

struct SimResult {
  std::string dispatcher;

  // Revenue & service (Figures 7-10, 13).
  double total_revenue = 0.0;
  int64_t served_orders = 0;
  int64_t reneged_orders = 0;
  int64_t total_orders = 0;

  // Scenario events (driver shifts, cancellations, surges). All zero when
  // the run had no (or an empty) ScenarioScript. Explicit cancellations
  // are NOT counted as reneges: served + reneged + cancelled = total for a
  // run-to-exhaustion day.
  int64_t cancelled_orders = 0;
  int64_t driver_sign_ons = 0;
  int64_t driver_sign_offs = 0;
  int64_t surge_changes = 0;  ///< surge-window begin/end transitions

  // Dispatcher-emitted pairs the engine refused, by AssignmentRejection
  // reason; none of them was applied. Zero for a correct dispatcher.
  int64_t rejected_out_of_range = 0;
  int64_t rejected_duplicate = 0;
  int64_t rejected_late = 0;  ///< would miss the Def.-3 pickup deadline

  // Batch processing (Figures 7b-10b).
  int64_t num_batches = 0;
  RunningStats batch_seconds;        ///< dispatcher time per batch
  RunningStats batch_build_seconds;  ///< batch-construction time per batch

  // Per-batch dispatch-latency percentiles from MetricsCollector's
  // log-bucketed histogram (seconds; 0 when no batch ran). Wall-clock
  // execution metadata like batch_seconds: never part of bit-identity
  // comparisons or content-addressed keys.
  double dispatch_latency_p50 = 0.0;
  double dispatch_latency_p95 = 0.0;
  double dispatch_latency_p99 = 0.0;

  // Idle-time estimation study (Table 3, Figure 6).
  ErrorStats idle_error;                    ///< (estimated, real) pairs
  std::vector<RegionIdleStats> region_idle; ///< indexed by region

  // Extra diagnostics.
  RunningStats served_wait_seconds;  ///< request -> assignment wait
  RunningStats driver_idle_seconds;  ///< realized idle gaps

  // Dispatcher work counters summed over the run (Dispatcher::counters);
  // all zero for dispatchers that don't track them. For LS,
  // dispatch_proposals_recomputed / dispatch_proposals is the conflict rate
  // of the parallel sweep decomposition (0 on the serial path).
  int64_t dispatch_sweeps = 0;
  int64_t dispatch_swaps_applied = 0;
  int64_t dispatch_proposals = 0;
  int64_t dispatch_proposals_recomputed = 0;

  // Shard-load telemetry of the parallel pipeline (empty/zero on serial
  // runs — this is diagnostics about HOW the run executed, not about its
  // outcome, which is partition-invariant). Per batch, imbalance = max
  // shard over mean shard of the pipeline's per-shard rider counts
  // (shard_size_imbalance) and parallel-phase wall times
  // (shard_time_imbalance) under the static row-band partition.
  RunningStats shard_size_imbalance;
  RunningStats shard_time_imbalance;

  double ServiceRate() const {
    return total_orders == 0
               ? 0.0
               : static_cast<double>(served_orders) /
                     static_cast<double>(total_orders);
  }
};

}  // namespace mrvd
