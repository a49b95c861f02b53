#include "sim/engine.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/assignment_applier.h"
#include "sim/batch_builder.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/logging.h"

namespace mrvd {

namespace {

/// Mutable scenario state of one run: the event cursor plus the active
/// surge windows' per-region demand-multiplier product. Everything here is
/// dormant (and allocation-free) when the script is null or empty, which
/// keeps the unscripted path bit-identical.
class ScenarioState {
 public:
  ScenarioState(const ScenarioScript* script,
                const std::vector<DriverSpec>& drivers, const Grid& grid)
      : script_(script), grid_(grid) {
    if (script_ == nullptr || script_->empty()) return;
    events_ = EventStream(*script_);
    surge_active_.assign(script_->surges().size(), false);
    driver_index_.reserve(drivers.size());
    for (size_t j = 0; j < drivers.size(); ++j) {
      driver_index_.emplace(drivers[j].id, static_cast<int>(j));
    }
  }

  bool Exhausted() const { return events_.Exhausted(); }

  /// Applies every event due at `now` to the stages, firing observer hooks
  /// for the ones that changed state. Cancellations are batched into one
  /// stable OrderBook pass.
  void ApplyDueEvents(double now, FleetState* fleet, OrderBook* orders,
                      SimObserver* observers) {
    while (const ScenarioEvent* e = events_.PeekDue(now)) {
      switch (e->type) {
        case ScenarioEventType::kDriverSignOn:
        case ScenarioEventType::kDriverSignOff: {
          const bool on = e->type == ScenarioEventType::kDriverSignOn;
          auto it = driver_index_.find(e->driver_id);
          if (it != driver_index_.end() &&
              (on ? fleet->SignOn(it->second, now)
                  : fleet->SignOff(it->second))) {
            observers->OnDriverShiftChange(now, e->driver_id, on);
          }
          break;
        }
        case ScenarioEventType::kRiderCancel:
          due_cancels_.push_back(e->order_id);
          break;
        case ScenarioEventType::kSurgeBegin:
        case ScenarioEventType::kSurgeEnd: {
          const bool begin = e->type == ScenarioEventType::kSurgeBegin;
          auto& active = surge_active_[static_cast<size_t>(e->surge_index)];
          if (active != static_cast<char>(begin)) {
            active = static_cast<char>(begin);
            RecomputeMultipliers();
            observers->OnSurgeChange(
                now, script_->surges()[static_cast<size_t>(e->surge_index)],
                begin);
          }
          break;
        }
      }
      events_.Pop();
    }
    if (!due_cancels_.empty()) {
      orders->CancelRiders(due_cancels_, now, observers);
      due_cancels_.clear();
    }
  }

  /// Per-region predicted-demand multipliers, or null when no surge is
  /// active (the dormant fast path).
  const std::vector<double>* demand_multipliers() const {
    return demand_multipliers_.empty() ? nullptr : &demand_multipliers_;
  }

 private:
  void RecomputeMultipliers() {
    // With no active surge the vector empties, restoring the dormant
    // (null-multiplier) build path for the rest of the run.
    if (std::find(surge_active_.begin(), surge_active_.end(),
                  static_cast<char>(true)) == surge_active_.end()) {
      demand_multipliers_.clear();
      return;
    }
    demand_multipliers_.assign(static_cast<size_t>(grid_.num_regions()),
                               1.0);
    for (size_t s = 0; s < surge_active_.size(); ++s) {
      if (!surge_active_[s]) continue;
      const SurgeWindow& w = script_->surges()[s];
      if (w.regions.empty()) {
        for (double& m : demand_multipliers_) m *= w.multiplier;
      } else {
        for (RegionId k : w.regions) {
          if (k >= 0 && k < grid_.num_regions()) {
            demand_multipliers_[static_cast<size_t>(k)] *= w.multiplier;
          }
        }
      }
    }
  }

  const ScenarioScript* script_;
  const Grid& grid_;
  EventStream events_;
  std::vector<char> surge_active_;  ///< by ScenarioScript surge index
  std::vector<double> demand_multipliers_;  ///< empty unless a surge is active
  std::unordered_map<DriverId, int> driver_index_;  ///< id -> fleet index
  std::vector<OrderId> due_cancels_;  ///< reused per-batch buffer
};

}  // namespace

Status SimConfig::Validate() const {
  // "Positive" means positive AND finite: ParseDouble accepts "inf", and an
  // infinite horizon (or a batch interval of inf with a finite horizon)
  // would hang the batch loop forever — exactly what Validate() exists to
  // reject before the engine runs.
  if (!(batch_interval > 0.0) || !std::isfinite(batch_interval)) {
    return Status::InvalidArgument(
        "batch_interval (Δ) must be positive and finite, got " +
        std::to_string(batch_interval));
  }
  if (!(window_seconds > 0.0) || !std::isfinite(window_seconds)) {
    return Status::InvalidArgument(
        "window_seconds (t_c) must be positive and finite, got " +
        std::to_string(window_seconds));
  }
  if (!(horizon_seconds > 0.0) || !std::isfinite(horizon_seconds)) {
    return Status::InvalidArgument(
        "horizon_seconds must be positive and finite, got " +
        std::to_string(horizon_seconds));
  }
  if (num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0, got " +
                                   std::to_string(num_threads));
  }
  if (!(alpha > 0.0) || !std::isfinite(alpha)) {
    return Status::InvalidArgument("alpha (fee rate) must be positive and "
                                   "finite, got " + std::to_string(alpha));
  }
  if (!(reneging_beta >= 0.0) || !std::isfinite(reneging_beta)) {
    return Status::InvalidArgument("reneging_beta must be >= 0 and finite, "
                                   "got " + std::to_string(reneging_beta));
  }
  return Status::OK();
}

Simulator::Simulator(const SimConfig& config, const Workload& workload,
                     const Grid& grid, const TravelCostModel& cost_model,
                     const DemandForecast* forecast)
    : config_(config),
      workload_(&workload),
      drivers_(workload.drivers),
      grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast) {
  // An invalid config this deep is a programming error (SimulationBuilder
  // reports it as a Status before the engine is ever constructed).
  if (Status st = config_.Validate(); !st.ok()) {
    MRVD_LOG(Error) << "invalid SimConfig: " << st;
    std::abort();
  }
}

Simulator::Simulator(const SimConfig& config, OrderSource& source,
                     const std::vector<DriverSpec>& drivers, const Grid& grid,
                     const TravelCostModel& cost_model,
                     const DemandForecast* forecast)
    : config_(config),
      source_(&source),
      drivers_(drivers),
      grid_(grid),
      cost_model_(cost_model),
      forecast_(forecast) {
  if (Status st = config_.Validate(); !st.ok()) {
    MRVD_LOG(Error) << "invalid SimConfig: " << st;
    std::abort();
  }
}

SimResult Simulator::Run(Dispatcher& dispatcher, SimObserver* extra) {
  return RunImpl(dispatcher, nullptr, extra);
}

SimResult Simulator::Run(Dispatcher& dispatcher, const ScenarioScript& script,
                         SimObserver* extra) {
  return RunImpl(dispatcher, &script, extra);
}

SimResult Simulator::RunImpl(Dispatcher& dispatcher,
                             const ScenarioScript* script,
                             SimObserver* extra) {
  // Materialised runs wrap the workload's vector in a per-run source, so
  // both paths drive the identical OrderBook injection loop; streamed
  // sources are rewound so every Run sees the stream from the top.
  std::optional<MaterializedOrderSource> local_source;
  OrderSource* source = source_;
  if (source == nullptr) {
    local_source.emplace(workload_->orders);
    source = &*local_source;
  } else if (Status st = source->Rewind(); !st.ok()) {
    // A source that cannot reach its first record has no meaningful run;
    // this is an environment failure on par with an invalid config.
    MRVD_LOG(Error) << "order source rewind failed: " << st;
    std::abort();
  }

  MetricsCollector metrics(dispatcher.name(), source->total_orders(),
                           grid_.num_regions(), config_.record_idle_samples);
  ObserverList observers;
  observers.Add(&metrics);
  observers.Add(extra);

  FleetState fleet(drivers_, grid_);
  OrderBook orders(*source, grid_, cost_model_, config_.alpha);
  ScenarioState scenario(script, drivers_, grid_);

  BatchBuilder builder(grid_, cost_model_, forecast_, config_.window_seconds,
                       config_.reneging_beta, config_.candidate_mode,
                       config_.telemetry);
  AssignmentApplier applier(dispatcher.name(), config_.zero_pickup_travel,
                            config_.telemetry);

  // Telemetry (null session = off: every site below degrades to a pointer
  // check). Metrics are resolved once; the registry is written only from
  // this thread (see telemetry/metrics.h for the thread model). Counter
  // values and the two per-batch histogram COUNTS are deterministic, while
  // every recorded duration is execution metadata.
  telemetry::TelemetrySession* const tele = config_.telemetry;
  telemetry::Counter* tele_batches = nullptr;
  telemetry::Counter* tele_assignments = nullptr;
  telemetry::LogHistogram* tele_dispatch_hist = nullptr;
  telemetry::LogHistogram* tele_build_hist = nullptr;
  if (tele != nullptr) {
    telemetry::MetricsRegistry& reg = tele->metrics();
    tele_batches = reg.counter("engine.batches");
    tele_assignments = reg.counter("engine.assignments");
    tele_dispatch_hist = reg.histogram(
        "engine.dispatch_seconds", telemetry::MetricScope::kDeterministic);
    tele_build_hist = reg.histogram("engine.batch_build_seconds",
                                    telemetry::MetricScope::kDeterministic);
  }
  // One clock times every stage: each reading closes a stage and opens the
  // next, so the stages tile the batch span. The build and dispatch
  // readings are the seconds the observers, SimResult and the histograms
  // all receive.
  telemetry::StageClock clock(tele);

  const double delta = config_.batch_interval;
  const double horizon = config_.horizon_seconds;
  std::vector<Assignment> assignments;  // reused: cleared every batch
  double now = 0.0;
  for (; now < horizon; now += delta) {
    clock.Start();

    // 1. Busy drivers finishing by `now` rejoin at their destination.
    fleet.ReleaseFinished(now);
    clock.Lap("release_finished");

    // 2. Riders that posted since the last batch enter the book; scenario
    //    events due by `now` apply (shifts, cancels, surge transitions);
    //    expired riders renege. Cancellation is processed before reneging,
    //    so a rider whose cancel and deadline land in the same batch counts
    //    as cancelled, not reneged.
    orders.InjectArrivals(now);
    clock.Lap("inject_arrivals");
    scenario.ApplyDueEvents(now, &fleet, &orders, &observers);
    clock.Lap("scenario_events");
    orders.RemoveExpired(now, &observers);
    clock.Lap("remove_expired");

    if (orders.waiting().empty() && !fleet.HasFreshDrivers() &&
        !fleet.HasBusyDrivers() && orders.Exhausted() &&
        scenario.Exhausted()) {
      clock.Enclose("batch");
      break;  // nothing left to do
    }

    // 3. Build the batch context off the incremental counters, after the
    //    rejoin window they include has advanced to `now`. The context is
    //    the builder's, rebuilt in place by the next Build.
    fleet.AdvanceRejoinWindow(now, config_.window_seconds);
    const BatchContext& ctx =
        builder.Build(now, orders, fleet, scenario.demand_multipliers());
    const double build_seconds = clock.Lap("batch_build");

    // 4. Publish the context, then capture idle-time estimates for freshly
    //    (re)joined drivers.
    observers.OnBatchBuilt(now, build_seconds, ctx);
    fleet.CaptureIdleEstimates(config_.record_idle_samples ? &ctx : nullptr);
    clock.Lap("capture_idle");

    // 5. Dispatch.
    assignments.clear();
    dispatcher.Dispatch(ctx, &assignments);
    const double dispatch_seconds = clock.Lap("dispatch");

    // 6. Report the dispatch, apply the assignments, compact the served
    //    riders out of the book and close the batch.
    observers.OnDispatchDone(now, dispatch_seconds, assignments);
    if (const DispatchCounters* counters = dispatcher.counters()) {
      observers.OnDispatchCounters(now, *counters);
    }
    applier.Apply(now, ctx, assignments, &fleet, &orders, &observers);
    if (tele_batches != nullptr) {
      tele_batches->Add();
      tele_assignments->Add(static_cast<int64_t>(assignments.size()));
      tele_dispatch_hist->Add(dispatch_seconds);
      tele_build_hist->Add(build_seconds);
    }
    observers.OnBatchEnd(now);
    clock.Lap("assignment_apply");
    clock.Enclose("batch");
  }

  // Anything left waiting (or never injected) at the horizon never got
  // served.
  observers.OnRunEnd(now, orders.UnservedRemainder());
  return metrics.TakeResult();
}

}  // namespace mrvd
