// Event-driven car-hailing platform simulator implementing the batch-based
// framework of Algorithm 1: every Δ seconds the waiting riders and available
// drivers are snapshotted, the dispatcher selects rider-driver pairs, and
// assigned drivers drive to the pickup and then the dropoff, rejoining the
// platform at the destination region.
//
// The engine is staged: FleetState (driver lifecycle + incremental supply
// counters), OrderBook (arrivals, reneging, served-rider compaction +
// incremental demand counters), BatchBuilder (shard-parallel context
// materialisation off the incremental counters), and AssignmentApplier,
// with SimObserver hooks carrying every measurable event. Simulator::Run
// wires the stages together; SimResult is produced by the MetricsCollector
// observer.
#pragma once

#include <memory>
#include <vector>

#include "geo/grid.h"
#include "geo/travel.h"
#include "prediction/forecast.h"
#include "scenario/script.h"
#include "sim/batch.h"
#include "sim/metrics.h"
#include "sim/observer.h"
#include "util/status.h"
#include "workload/order_source.h"
#include "workload/types.h"

namespace mrvd {

namespace telemetry {
class TelemetrySession;
}  // namespace telemetry

struct SimConfig {
  double batch_interval = 3.0;     ///< Δ seconds (Table 2 default)
  double window_seconds = 1200.0;  ///< t_c = 20 minutes (Table 2 default)
  double alpha = 1.0;              ///< travel fee rate (§6.3 sets α = 1)
  double reneging_beta = 0.02;     ///< β of π(n) = e^{βn}/μ
  double horizon_seconds = kSecondsPerDay;

  /// Candidate-pair generation. Ring expansion admits every Def.-3-valid
  /// pair and is the default; kRegionLocal reproduces Algorithm 2's strict
  /// per-region retrieval (ablation).
  CandidateMode candidate_mode = CandidateMode::kRingExpand;

  /// UPPER mode: pickup travel is free and pair validity is waived — the
  /// engine then realises the paper's per-batch upper bound (§6.3).
  bool zero_pickup_travel = false;

  /// Record (estimated, real) idle-time samples (Table 3 / Fig. 6 study).
  bool record_idle_samples = true;

  /// Dispatch parallelism: worker threads for the region-sharded batch
  /// pipeline. 1 = serial (default); 0 = hardware concurrency. Any value
  /// produces bit-identical results — sharding only moves the expensive
  /// candidate generation and idle-time solves onto the pool.
  int num_threads = 1;

  /// Region shards for the pipeline; 0 derives 2x the worker count
  /// (clamped to the grid's row count by the partitioner).
  int num_shards = 0;

  /// Borrowed telemetry session (SimulationBuilder::WithTelemetry). Null =
  /// telemetry off: every instrumentation site degrades to a pointer
  /// check. When set, the engine records stage trace spans and feeds the
  /// session's MetricsRegistry; the attached session must outlive the run
  /// and be used by at most one concurrently executing run. Not part of
  /// the simulated configuration: ignored by Validate(), excluded from
  /// campaign cell keys, and it never affects results (bit-identity with
  /// and without a session is enforced by tests/telemetry_test.cc).
  telemetry::TelemetrySession* telemetry = nullptr;

  /// Shard count the engine's pipeline uses with `threads` workers:
  /// num_shards when set, else 2x the workers (the partitioner clamps to
  /// the grid's row count). Benches and tests route their shard choice
  /// through this so they measure the configuration the engine runs.
  int ResolveShards(int threads) const {
    return num_shards > 0 ? num_shards : 2 * threads;
  }

  /// Rejects configs the engine cannot run: non-positive batch_interval /
  /// window_seconds / horizon_seconds, negative num_threads / num_shards,
  /// negative reneging_beta or non-positive alpha. Called by
  /// SimulationBuilder::Build() (returning the Status to the caller) and by
  /// Simulator's constructor (which aborts on an invalid config — reaching
  /// the engine with one is a programming error).
  Status Validate() const;
};

/// Simulates one day of a Workload under a dispatcher.
class Simulator {
 public:
  /// `forecast` may be null (prediction-free baselines: RAND/NEAR/LTG see
  /// zero predicted demand). All referenced objects must outlive Run().
  Simulator(const SimConfig& config, const Workload& workload,
            const Grid& grid, const TravelCostModel& cost_model,
            const DemandForecast* forecast);

  /// Streaming variant: arrivals are pulled from `source` (rewound at the
  /// top of every Run, so repeated runs see the full stream) and the fleet
  /// comes from `drivers` — nothing order-sided is ever materialised, so a
  /// run's peak memory is O(stream buffer + waiting pool). Identical
  /// inputs produce bit-identical results to the Workload overload. After
  /// Run(), callers should check source.status(): a stream that fails
  /// mid-run stops delivering and the remainder counts as unserved.
  Simulator(const SimConfig& config, OrderSource& source,
            const std::vector<DriverSpec>& drivers, const Grid& grid,
            const TravelCostModel& cost_model,
            const DemandForecast* forecast);

  /// Runs the full horizon with `dispatcher` and returns the aggregates.
  /// Can be called repeatedly (state resets each time). `observer` (may be
  /// null) receives every engine event alongside the built-in metrics
  /// collection — per-hour breakdowns, traces, custom studies.
  SimResult Run(Dispatcher& dispatcher, SimObserver* observer = nullptr);

  /// Scenario-scripted run: `script`'s time-ordered event stream (driver
  /// shifts, rider cancellations, surge windows) is merged with the
  /// arrival/completion timeline — due events are applied to the stages
  /// incrementally at the top of each batch. An empty script makes this
  /// bit-identical to the overload above (enforced by
  /// tests/engine_equivalence_test.cc).
  SimResult Run(Dispatcher& dispatcher, const ScenarioScript& script,
                SimObserver* observer = nullptr);

 private:
  SimResult RunImpl(Dispatcher& dispatcher, const ScenarioScript* script,
                    SimObserver* observer);

  const SimConfig config_;
  const Workload* workload_ = nullptr;  ///< null on the streaming path
  OrderSource* source_ = nullptr;       ///< null on the materialised path
  const std::vector<DriverSpec>& drivers_;
  const Grid& grid_;
  const TravelCostModel& cost_model_;
  const DemandForecast* forecast_;
};

}  // namespace mrvd
