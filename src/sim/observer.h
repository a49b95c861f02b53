// Observation hooks for the staged simulation engine. The engine core
// (fleet lifecycle, order book, batch construction, assignment application)
// emits events through a SimObserver instead of interleaving metrics
// bookkeeping with simulation logic; SimResult itself is produced by the
// MetricsCollector observer below, and callers can attach their own
// observer to Simulator::Run for custom studies (per-hour breakdowns,
// traces, streaming-scenario triggers) without touching the engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "geo/grid.h"
#include "scenario/events.h"
#include "sim/metrics.h"
#include "telemetry/metrics.h"
#include "workload/types.h"

namespace mrvd {

class BatchContext;
struct Assignment;
struct DispatchCounters;

/// One accepted rider-driver assignment, fully resolved by the
/// AssignmentApplier (indices refer to the batch's BatchContext).
struct AssignmentEvent {
  int rider_index = -1;
  int driver_index = -1;
  OrderId order_id = -1;
  /// Workload DriverSpec::id — the same id space OnDriverShiftChange and
  /// ScenarioScript sign-on/sign-off events use (NOT the context index).
  DriverId driver_id = -1;
  RegionId driver_region = kInvalidRegion;  ///< region the driver idled in
  double pickup_seconds = 0.0;   ///< travel to the pickup (0 in UPPER mode)
  double wait_seconds = 0.0;     ///< request -> assignment wait
  double real_idle_seconds = 0.0;
  double idle_estimate = -1.0;   ///< ET captured at (re)join; < 0: none
  double revenue = 0.0;
  double busy_until = 0.0;       ///< when the driver rejoins the platform
};

/// Why the AssignmentApplier refused a pair the dispatcher emitted.
enum class AssignmentRejection {
  kOutOfRange,  ///< rider or driver index outside the batch context
  kDuplicate,   ///< rider or driver already assigned earlier in the batch
  kLate,        ///< pickup would miss the rider's Def.-3 deadline
};

/// Engine lifecycle hooks. All hooks default to no-ops; implement what you
/// need. Per batch the engine fires, in order: OnBatchBuilt (context fully
/// materialised, before dispatch), OnDispatchDone (assignments selected,
/// not yet applied), OnAssignmentApplied / OnAssignmentRejected (once per
/// emitted pair, in emission order), OnBatchEnd. OnRiderReneged fires as
/// riders expire, before the batch is built; OnRunEnd fires once after the
/// horizon.
class SimObserver {
 public:
  virtual ~SimObserver() = default;

  /// The batch context is complete (riders, drivers, snapshots).
  /// `build_seconds` is the wall time of the engine's batch_build stage
  /// (rejoin-window advance + incremental construction), the same reading
  /// its trace span carries. The engine rebuilds one context in place
  /// every batch, so `ctx` is valid only until this batch's OnBatchEnd;
  /// keep copies of what must outlive the batch, never the reference.
  virtual void OnBatchBuilt(double now, double build_seconds,
                            const BatchContext& ctx) {
    (void)now, (void)build_seconds, (void)ctx;
  }

  /// The dispatcher returned; assignments have not been applied yet.
  virtual void OnDispatchDone(double now, double dispatch_seconds,
                              const std::vector<Assignment>& assignments) {
    (void)now, (void)dispatch_seconds, (void)assignments;
  }

  /// The dispatcher's work counters for the batch (sweeps, swaps,
  /// recomputed proposals — sim/batch.h). Fires right after
  /// OnDispatchDone, and only for dispatchers that track counters.
  virtual void OnDispatchCounters(double now, const DispatchCounters& c) {
    (void)now, (void)c;
  }

  /// One accepted assignment was applied to the fleet and order book.
  virtual void OnAssignmentApplied(double now, const AssignmentEvent& e) {
    (void)now, (void)e;
  }

  /// The dispatcher emitted `a`, and the engine refused it: nothing was
  /// applied. A correct dispatcher never triggers this.
  virtual void OnAssignmentRejected(double now, const Assignment& a,
                                    AssignmentRejection why) {
    (void)now, (void)a, (void)why;
  }

  /// A waiting rider's pickup deadline passed before any assignment.
  /// Orders still unserved when the horizon ends do NOT fire this hook —
  /// they are reported in bulk via OnRunEnd's `never_dispatched` (so
  /// per-hook renege tallies plus that remainder equal
  /// SimResult::reneged_orders).
  virtual void OnRiderReneged(double now, const Order& order) {
    (void)now, (void)order;
  }

  /// A scenario shift change took effect: `signed_on` = true means the
  /// driver (re)entered the supply, false that it left (a busy driver
  /// leaves once its current trip completes; the hook fires when the
  /// sign-off is scheduled). Fires only for events that changed state —
  /// redundant script entries (double sign-off etc.) are silent.
  virtual void OnDriverShiftChange(double now, DriverId driver_id,
                                   bool signed_on) {
    (void)now, (void)driver_id, (void)signed_on;
  }

  /// A waiting rider explicitly cancelled (scenario event) — counted
  /// separately from deadline reneging.
  virtual void OnRiderCancelled(double now, const Order& order) {
    (void)now, (void)order;
  }

  /// A surge window began (`active` = true) or ended (false).
  virtual void OnSurgeChange(double now, const SurgeWindow& window,
                             bool active) {
    (void)now, (void)window, (void)active;
  }

  /// All assignments of the batch are applied and served riders compacted.
  virtual void OnBatchEnd(double now) { (void)now; }

  /// The run is over. `never_dispatched` counts orders still waiting at the
  /// horizon plus orders whose request time was never reached.
  virtual void OnRunEnd(double end_time, int64_t never_dispatched) {
    (void)end_time, (void)never_dispatched;
  }
};

/// Fans every hook out to a list of observers, in registration order.
/// Borrows its links; the owning variant is ObserverChain
/// (api/observer_chain.h), which extends this class.
class ObserverList : public SimObserver {
 public:
  void Add(SimObserver* observer) {
    if (observer != nullptr) observers_.push_back(observer);
  }

  void OnBatchBuilt(double now, double build_seconds,
                    const BatchContext& ctx) override {
    for (SimObserver* o : observers_) o->OnBatchBuilt(now, build_seconds, ctx);
  }
  void OnDispatchDone(double now, double dispatch_seconds,
                      const std::vector<Assignment>& assignments) override {
    for (SimObserver* o : observers_) {
      o->OnDispatchDone(now, dispatch_seconds, assignments);
    }
  }
  void OnDispatchCounters(double now, const DispatchCounters& c) override {
    for (SimObserver* o : observers_) o->OnDispatchCounters(now, c);
  }
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override {
    for (SimObserver* o : observers_) o->OnAssignmentApplied(now, e);
  }
  void OnAssignmentRejected(double now, const Assignment& a,
                            AssignmentRejection why) override {
    for (SimObserver* o : observers_) o->OnAssignmentRejected(now, a, why);
  }
  void OnRiderReneged(double now, const Order& order) override {
    for (SimObserver* o : observers_) o->OnRiderReneged(now, order);
  }
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override {
    for (SimObserver* o : observers_) {
      o->OnDriverShiftChange(now, driver_id, signed_on);
    }
  }
  void OnRiderCancelled(double now, const Order& order) override {
    for (SimObserver* o : observers_) o->OnRiderCancelled(now, order);
  }
  void OnSurgeChange(double now, const SurgeWindow& window,
                     bool active) override {
    for (SimObserver* o : observers_) o->OnSurgeChange(now, window, active);
  }
  void OnBatchEnd(double now) override {
    for (SimObserver* o : observers_) o->OnBatchEnd(now);
  }
  void OnRunEnd(double end_time, int64_t never_dispatched) override {
    for (SimObserver* o : observers_) o->OnRunEnd(end_time, never_dispatched);
  }

 private:
  std::vector<SimObserver*> observers_;
};

/// Accumulates the SimResult aggregates from the engine's event stream.
/// The accumulation order matches the event order, so the streaming
/// statistics (Welford accumulators) are bit-identical to the former
/// inline bookkeeping of the monolithic engine loop.
class MetricsCollector final : public SimObserver {
 public:
  MetricsCollector(const std::string& dispatcher_name, int64_t total_orders,
                   int num_regions, bool record_idle_samples);

  void OnBatchBuilt(double now, double build_seconds,
                    const BatchContext& ctx) override;
  void OnDispatchDone(double now, double dispatch_seconds,
                      const std::vector<Assignment>& assignments) override;
  void OnDispatchCounters(double now, const DispatchCounters& c) override;
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override;
  void OnAssignmentRejected(double now, const Assignment& a,
                            AssignmentRejection why) override;
  void OnRiderReneged(double now, const Order& order) override;
  void OnDriverShiftChange(double now, DriverId driver_id,
                           bool signed_on) override;
  void OnRiderCancelled(double now, const Order& order) override;
  void OnSurgeChange(double now, const SurgeWindow& window,
                     bool active) override;
  void OnRunEnd(double end_time, int64_t never_dispatched) override;

  /// Moves the finished result out (the collector is spent afterwards).
  SimResult TakeResult() { return std::move(result_); }

 private:
  SimResult result_;
  bool record_idle_samples_;
  /// Per-batch dispatch wall times; OnRunEnd projects p50/p95/p99 into the
  /// result. Always maintained (one Add per batch — noise next to a
  /// dispatch), so SimResult reports latency percentiles with or without a
  /// TelemetrySession attached.
  telemetry::LogHistogram dispatch_latency_;
};

}  // namespace mrvd
