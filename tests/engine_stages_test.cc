// Unit tests for the staged engine's building blocks: the incremental
// supply of FleetState (its synced driver index and rejoin window) and the
// demand counters of OrderBook must track the brute-force recounts the
// monolithic engine used to perform every batch, and the
// SimObserver hooks must fire consistently with the aggregates the
// MetricsCollector reports.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dispatch/dispatchers.h"
#include "geo/travel.h"
#include "sim/engine.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"
#include "telemetry/session.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ------------------------------------------------------------ FleetState

class FleetStateTest : public ::testing::Test {
 protected:
  FleetStateTest() : grid_(kNycBoundingBox, 4, 4) {
    // Ten drivers spread over the bounding box.
    for (int j = 0; j < 10; ++j) {
      double frac = static_cast<double>(j) / 10.0;
      LatLon at{kNycBoundingBox.lat_min +
                    frac * (kNycBoundingBox.lat_max - kNycBoundingBox.lat_min),
                kNycBoundingBox.lon_min +
                    frac * (kNycBoundingBox.lon_max - kNycBoundingBox.lon_min)};
      workload_.drivers.push_back({j, at, 0.0});
    }
  }

  LatLon PointAt(double lat_frac, double lon_frac) const {
    return {kNycBoundingBox.lat_min +
                lat_frac * (kNycBoundingBox.lat_max - kNycBoundingBox.lat_min),
            kNycBoundingBox.lon_min +
                lon_frac * (kNycBoundingBox.lon_max - kNycBoundingBox.lon_min)};
  }

  /// Dispatchable drivers in the synced driver index.
  static int64_t Available(FleetState& fleet) {
    fleet.SyncDriverIndex();
    return static_cast<int64_t>(fleet.driver_index().drivers().size());
  }

  /// Brute-force recount of the supply (the driver index's bucket sizes
  /// after a sync, and the rejoin window), exactly as the monolithic engine
  /// recomputed it per batch — extended with the scenario shift semantics:
  /// signed-off drivers are out of the supply, and a pending sign-off will
  /// not rejoin its dropoff region.
  void ExpectCountersMatchRecount(FleetState& fleet, double now,
                                  double window) {
    std::vector<int64_t> available(static_cast<size_t>(grid_.num_regions()),
                                   0);
    std::vector<int32_t> rejoining(static_cast<size_t>(grid_.num_regions()),
                                   0);
    int64_t available_total = 0;
    for (const DriverState& d : fleet.drivers()) {
      if (d.signed_off) continue;
      if (!d.busy) {
        ++available[static_cast<size_t>(d.region)];
        ++available_total;
      } else if (!d.sign_off_pending && d.busy_until > now &&
                 d.busy_until <= now + window) {
        ++rejoining[static_cast<size_t>(d.busy_dest_region)];
      }
    }
    EXPECT_EQ(Available(fleet), available_total) << "now=" << now;
    for (int k = 0; k < grid_.num_regions(); ++k) {
      EXPECT_EQ(
          static_cast<int64_t>(fleet.driver_index().DriversIn(k).size()),
          available[static_cast<size_t>(k)])
          << "region " << k << " now=" << now;
      EXPECT_EQ(fleet.rejoining_in_window()[static_cast<size_t>(k)],
                rejoining[static_cast<size_t>(k)])
          << "region " << k << " now=" << now;
    }
  }

  Grid grid_;
  Workload workload_;
};

TEST_F(FleetStateTest, IncrementalCountersMatchRecountAcrossLifecycle) {
  const double window = 1200.0;
  FleetState fleet(workload_, grid_);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Three trips: one short, one ending inside the first window, one so long
  // it only enters the window after several batches.
  LatLon dest_a = PointAt(0.1, 0.9), dest_b = PointAt(0.9, 0.1),
         dest_c = PointAt(0.5, 0.5);
  fleet.MarkBusy(2, /*busy_until=*/100.0, dest_a, grid_.RegionOf(dest_a));
  fleet.MarkBusy(5, /*busy_until=*/900.0, dest_b, grid_.RegionOf(dest_b));
  fleet.MarkBusy(7, /*busy_until=*/1500.0, dest_c, grid_.RegionOf(dest_c));

  bool reassigned = false;
  for (double now = 30.0; now <= 2400.0; now += 30.0) {
    fleet.ReleaseFinished(now);
    fleet.AdvanceRejoinWindow(now, window);
    ExpectCountersMatchRecount(fleet, now, window);
    if (!reassigned && now >= 150.0) {
      // Driver 2 is free again: send it out on a second, long trip that is
      // beyond the current window and enters it later.
      ASSERT_FALSE(fleet.driver(2).busy);
      fleet.MarkBusy(2, now + window + 600.0, dest_b, grid_.RegionOf(dest_b));
      reassigned = true;
      ExpectCountersMatchRecount(fleet, now, window);
    }
  }
  // Everything completed: the fleet is fully available again.
  EXPECT_EQ(Available(fleet), 10);
  EXPECT_FALSE(fleet.HasBusyDrivers());
}

TEST_F(FleetStateTest, SignOnSignOffLifecycleKeepsIncrementalCounters) {
  const double window = 600.0;
  FleetState fleet(workload_, grid_);
  fleet.AdvanceRejoinWindow(0.0, window);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Idle sign-off leaves the supply immediately; a second sign-off and a
  // sign-on of an on-duty driver are no-ops.
  EXPECT_TRUE(fleet.SignOff(1));
  EXPECT_FALSE(fleet.SignOff(1));
  EXPECT_FALSE(fleet.SignOn(4, 0.0));
  EXPECT_TRUE(fleet.driver(1).signed_off);
  EXPECT_EQ(Available(fleet), 9);
  ExpectCountersMatchRecount(fleet, 0.0, window);

  // Busy sign-off: driver 3 departs on a trip ending inside the rejoin
  // window, so it is counted as predicted supply — until the sign-off
  // removes it (the driver will not rejoin).
  LatLon dest = PointAt(0.8, 0.2);
  fleet.MarkBusy(3, /*busy_until=*/300.0, dest, grid_.RegionOf(dest));
  fleet.AdvanceRejoinWindow(30.0, window);
  EXPECT_EQ(
      fleet.rejoining_in_window()[static_cast<size_t>(grid_.RegionOf(dest))],
      1);
  EXPECT_TRUE(fleet.SignOff(3));
  EXPECT_TRUE(fleet.driver(3).sign_off_pending);
  ExpectCountersMatchRecount(fleet, 30.0, window);

  // The trip completes: the driver leaves instead of rejoining.
  fleet.ReleaseFinished(330.0);
  fleet.AdvanceRejoinWindow(330.0, window);
  EXPECT_TRUE(fleet.driver(3).signed_off);
  EXPECT_FALSE(fleet.driver(3).busy);
  EXPECT_EQ(Available(fleet), 8);
  ExpectCountersMatchRecount(fleet, 330.0, window);

  // Sign-ons re-enter incrementally at the driver's current location and
  // queue a fresh idle-time estimate; driver 3 rejoins where it dropped
  // off.
  fleet.CaptureIdleEstimates(nullptr);
  EXPECT_TRUE(fleet.SignOn(1, 400.0));
  EXPECT_TRUE(fleet.SignOn(3, 420.0));
  EXPECT_EQ(fleet.driver(3).region, grid_.RegionOf(dest));
  EXPECT_EQ(fleet.driver(3).available_since, 420.0);
  EXPECT_EQ(Available(fleet), 10);
  EXPECT_TRUE(fleet.HasFreshDrivers());
  ExpectCountersMatchRecount(fleet, 420.0, window);

  // Mid-trip reversal: sign-off pending, then sign-on before completion —
  // the driver stays on duty, re-enters the window schedule, and rejoins
  // normally, without double-counting the duplicate heap entry.
  fleet.MarkBusy(6, /*busy_until=*/700.0, dest, grid_.RegionOf(dest));
  EXPECT_TRUE(fleet.SignOff(6));
  EXPECT_TRUE(fleet.SignOn(6, 450.0));
  for (double now = 450.0; now <= 900.0; now += 30.0) {
    fleet.ReleaseFinished(now);
    fleet.AdvanceRejoinWindow(now, window);
    ExpectCountersMatchRecount(fleet, now, window);
  }
  EXPECT_FALSE(fleet.driver(6).busy);
  EXPECT_FALSE(fleet.driver(6).signed_off);
  EXPECT_EQ(Available(fleet), 10);
}

TEST_F(FleetStateTest, ReleaseQueuesFreshDriversForEstimateCapture) {
  FleetState fleet(workload_, grid_);
  EXPECT_TRUE(fleet.HasFreshDrivers());  // everyone joins at t = 0
  fleet.CaptureIdleEstimates(nullptr);
  EXPECT_FALSE(fleet.HasFreshDrivers());

  LatLon dest = PointAt(0.2, 0.8);
  fleet.MarkBusy(3, 50.0, dest, grid_.RegionOf(dest));
  fleet.ReleaseFinished(60.0);
  EXPECT_TRUE(fleet.HasFreshDrivers());
  EXPECT_EQ(fleet.driver(3).region, grid_.RegionOf(dest));
  EXPECT_EQ(fleet.driver(3).available_since, 50.0);
}

// ------------------------------------------------------------- OrderBook

class RenegeCounter : public SimObserver {
 public:
  void OnRiderReneged(double /*now*/, const Order& order) override {
    reneged_ids.push_back(order.id);
  }
  std::vector<OrderId> reneged_ids;
};

class OrderBookTest : public ::testing::Test {
 protected:
  OrderBookTest() : grid_(kNycBoundingBox, 4, 4), cost_(10.0, 1.0) {
    LatLon a{40.70, -74.00}, b{40.75, -73.95}, c{40.85, -73.85};
    for (int i = 0; i < 6; ++i) {
      Order o;
      o.id = i;
      o.request_time = 10.0 * i;
      o.pickup = (i % 2 == 0) ? a : c;
      o.dropoff = b;
      o.pickup_deadline = o.request_time + ((i == 1 || i == 4) ? 15.0 : 600.0);
      workload_.orders.push_back(o);
    }
  }

  void ExpectDemandMatchesRecount(const OrderBook& book) {
    std::vector<int64_t> demand(static_cast<size_t>(grid_.num_regions()), 0);
    for (const PendingRider& pr : book.waiting()) {
      if (!pr.served) ++demand[static_cast<size_t>(pr.pickup_region)];
    }
    for (int k = 0; k < grid_.num_regions(); ++k) {
      EXPECT_EQ(book.demand_by_region()[static_cast<size_t>(k)],
                demand[static_cast<size_t>(k)])
          << "region " << k;
    }
  }

  Grid grid_;
  StraightLineCostModel cost_;
  Workload workload_;
};

TEST_F(OrderBookTest, InjectRenegeServeCompactKeepsCountsAndOrder) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/2.0);
  book.InjectArrivals(25.0);  // orders 0, 1, 2
  ASSERT_EQ(book.waiting().size(), 3u);
  EXPECT_FALSE(book.Exhausted());
  ExpectDemandMatchesRecount(book);
  // Derived quantities are computed once at injection.
  const PendingRider& first = book.waiting().front();
  EXPECT_EQ(first.order.id, 0);
  EXPECT_EQ(first.trip_seconds,
            cost_.TravelSeconds(first.order.pickup, first.order.dropoff));
  EXPECT_EQ(first.revenue, 2.0 * first.trip_seconds);

  // Order 1 (deadline 25) reneges at now = 30; the observer hears it.
  RenegeCounter reneges;
  book.RemoveExpired(30.0, &reneges);
  ASSERT_EQ(reneges.reneged_ids.size(), 1u);
  EXPECT_EQ(reneges.reneged_ids[0], 1);
  ASSERT_EQ(book.waiting().size(), 2u);
  ExpectDemandMatchesRecount(book);

  book.InjectArrivals(60.0);  // orders 3..5 (order 4 not yet expired)
  ASSERT_EQ(book.waiting().size(), 5u);
  ExpectDemandMatchesRecount(book);
  EXPECT_TRUE(book.Exhausted());

  // Serve the first and third waiting riders; the pool keeps arrival order
  // after the single compaction pass.
  book.MarkServed(0);
  book.MarkServed(2);
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 3u);
  std::vector<OrderId> left;
  for (const PendingRider& pr : book.waiting()) left.push_back(pr.order.id);
  EXPECT_EQ(left, (std::vector<OrderId>{2, 4, 5}));
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 3);
}

TEST_F(OrderBookTest, CompactionWhenEveryWaitingRiderServedInOneBatch) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(52.0);  // all six orders
  ASSERT_EQ(book.waiting().size(), 6u);
  ExpectDemandMatchesRecount(book);

  // A dispatcher clears the whole pool in a single batch.
  for (int i = 0; i < 6; ++i) book.MarkServed(i);
  ExpectDemandMatchesRecount(book);  // demand zeroed before compaction
  for (int k = 0; k < grid_.num_regions(); ++k) {
    EXPECT_EQ(book.demand_by_region()[static_cast<size_t>(k)], 0) << k;
  }
  book.CompactServed();
  EXPECT_TRUE(book.waiting().empty());
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 0);
  EXPECT_TRUE(book.Exhausted());
}

TEST_F(OrderBookTest, ServeAndRenegeDistinctRidersInTheSameBatch) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(60.0);  // all six orders
  ASSERT_EQ(book.waiting().size(), 6u);

  // One batch at now = 60: orders 1 (deadline 25) and 4 (deadline 55)
  // renege, then distinct riders 0 and 5 are served.
  RenegeCounter reneges;
  book.RemoveExpired(60.0, &reneges);
  EXPECT_EQ(reneges.reneged_ids, (std::vector<OrderId>{1, 4}));
  ASSERT_EQ(book.waiting().size(), 4u);  // orders 0, 2, 3, 5
  ExpectDemandMatchesRecount(book);

  book.MarkServed(0);  // order 0
  book.MarkServed(3);  // order 5
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 2u);
  std::vector<OrderId> left;
  for (const PendingRider& pr : book.waiting()) left.push_back(pr.order.id);
  EXPECT_EQ(left, (std::vector<OrderId>{2, 3}));
  ExpectDemandMatchesRecount(book);
  EXPECT_EQ(book.UnservedRemainder(), 2);
}

TEST_F(OrderBookTest, CancelledRidersLeaveDemandAndSkipServedAndUnknown) {
  OrderBook book(workload_, grid_, cost_, /*alpha=*/1.0);
  book.InjectArrivals(60.0);
  ASSERT_EQ(book.waiting().size(), 6u);

  // Serve order 0, then cancel {0, 2, 5, 99}: the served rider and the
  // unknown id are skipped; 2 and 5 cancel, in pool order.
  book.MarkServed(0);
  class CancelRecorder : public SimObserver {
   public:
    void OnRiderCancelled(double /*now*/, const Order& order) override {
      ids.push_back(order.id);
    }
    std::vector<OrderId> ids;
  } cancels;
  int64_t n = book.CancelRiders({0, 2, 5, 99}, 60.0, &cancels);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(cancels.ids, (std::vector<OrderId>{2, 5}));
  ExpectDemandMatchesRecount(book);
  book.CompactServed();
  ASSERT_EQ(book.waiting().size(), 3u);  // orders 1, 3, 4
  ExpectDemandMatchesRecount(book);
}

// ------------------------------------------------------- observer hooks

class RecordingObserver : public SimObserver {
 public:
  void OnBatchBuilt(double /*now*/, double build_seconds,
                    const BatchContext& ctx) override {
    ++batches_built;
    build_seconds_nonnegative &= build_seconds >= 0.0;
    // The incremental snapshots must equal an entity recount every batch.
    std::vector<int64_t> waiting(ctx.snapshots().size(), 0);
    std::vector<int64_t> available(ctx.snapshots().size(), 0);
    for (const auto& r : ctx.riders()) {
      ++waiting[static_cast<size_t>(r.pickup_region)];
    }
    for (const auto& d : ctx.drivers()) {
      ++available[static_cast<size_t>(d.region)];
    }
    for (size_t k = 0; k < ctx.snapshots().size(); ++k) {
      snapshots_match &= ctx.snapshots()[k].waiting_riders == waiting[k];
      snapshots_match &= ctx.snapshots()[k].available_drivers == available[k];
    }
  }
  void OnDispatchDone(double /*now*/, double /*dispatch_seconds*/,
                      const std::vector<Assignment>& a) override {
    ++dispatches;
    assignments_emitted += static_cast<int64_t>(a.size());
  }
  void OnAssignmentApplied(double now, const AssignmentEvent& e) override {
    ++assignments_applied;
    events_consistent &= e.busy_until >= now;
    events_consistent &= e.revenue > 0.0;
    events_consistent &= e.wait_seconds >= 0.0;
    events_consistent &= e.order_id >= 0 && e.driver_id >= 0;
  }
  void OnRiderReneged(double /*now*/, const Order& /*order*/) override {
    ++reneges;
  }
  void OnBatchEnd(double /*now*/) override { ++batch_ends; }
  void OnRunEnd(double /*end_time*/, int64_t never_dispatched) override {
    ++run_ends;
    leftover = never_dispatched;
  }

  int batches_built = 0, dispatches = 0, batch_ends = 0, run_ends = 0;
  int64_t assignments_emitted = 0, assignments_applied = 0, reneges = 0;
  int64_t leftover = 0;
  bool snapshots_match = true, events_consistent = true;
  bool build_seconds_nonnegative = true;
};

TEST(SimObserverTest, HooksAgreeWithCollectedMetrics) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 800.0;
  gcfg.seed = 11;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/30);
  StraightLineCostModel cost(7.0, 1.3);

  SimConfig cfg;
  cfg.horizon_seconds = 3 * 3600.0;
  cfg.batch_interval = 30.0;

  Simulator sim(cfg, workload, gen.grid(), cost, nullptr);
  auto dispatcher = MakeNearestDispatcher();
  RecordingObserver obs;
  SimResult r = sim.Run(*dispatcher, &obs);

  ASSERT_GT(r.served_orders, 0);
  EXPECT_EQ(obs.batches_built, r.num_batches);
  EXPECT_EQ(obs.dispatches, r.num_batches);
  EXPECT_EQ(obs.batch_ends, r.num_batches);
  EXPECT_EQ(obs.run_ends, 1);
  EXPECT_EQ(obs.assignments_applied, r.served_orders);
  EXPECT_EQ(obs.reneges + obs.leftover, r.reneged_orders);
  EXPECT_TRUE(obs.snapshots_match);
  EXPECT_TRUE(obs.events_consistent);
  EXPECT_TRUE(obs.build_seconds_nonnegative);
  EXPECT_EQ(r.batch_build_seconds.count(), r.num_batches);
}

// Emits, in the first batch that holds both a valid pair and a disjoint
// Def.-3-late one, the valid pair followed by one out-of-range, one
// duplicate and the late pair; nothing afterwards.
class RogueDispatcher : public Dispatcher {
 public:
  std::string name() const override { return "ROGUE"; }
  void Dispatch(const BatchContext& ctx,
                std::vector<Assignment>* out) override {
    out->clear();
    if (done_) return;
    const int riders = static_cast<int>(ctx.riders().size());
    const int drivers = static_cast<int>(ctx.drivers().size());
    auto valid_pair = [&](int i, int j) {
      return ctx.IsValidPair(ctx.drivers()[static_cast<size_t>(j)],
                             ctx.riders()[static_cast<size_t>(i)]);
    };
    for (int i0 = 0; i0 < riders; ++i0) {
      for (int j0 = 0; j0 < drivers; ++j0) {
        if (!valid_pair(i0, j0)) continue;
        for (int i = 0; i < riders; ++i) {
          for (int j = 0; j < drivers; ++j) {
            if (i == i0 || j == j0 || valid_pair(i, j)) continue;
            valid = {i0, j0};
            out_of_range = {riders, j0};
            duplicate = {i0, j};
            late = {i, j};
            *out = {valid, out_of_range, duplicate, late};
            done_ = true;
            return;
          }
        }
      }
    }
  }

  Assignment valid, out_of_range, duplicate, late;

 private:
  bool done_ = false;
};

class RejectionRecorder : public SimObserver {
 public:
  void OnAssignmentApplied(double /*now*/, const AssignmentEvent& e) override {
    applied.push_back({e.rider_index, e.driver_index});
  }
  void OnAssignmentRejected(double /*now*/, const Assignment& a,
                            AssignmentRejection why) override {
    rejected.push_back({a, why});
  }

  std::vector<Assignment> applied;
  std::vector<std::pair<Assignment, AssignmentRejection>> rejected;
};

bool SamePair(const Assignment& a, const Assignment& b) {
  return a.rider_index == b.rider_index && a.driver_index == b.driver_index;
}

/// Runs a small synthetic day under `dispatcher` with a metrics-only
/// telemetry session attached.
SimResult RunWithTelemetry(Dispatcher& dispatcher, SimObserver* observer,
                           telemetry::TelemetrySession* session) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 800.0;
  gcfg.seed = 11;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/30);
  StraightLineCostModel cost(7.0, 1.3);
  SimConfig cfg;
  cfg.horizon_seconds = 3 * 3600.0;
  cfg.batch_interval = 30.0;
  cfg.telemetry = session;
  SimResult r = Simulator(cfg, workload, gen.grid(), cost, nullptr)
                    .Run(dispatcher, observer);
  session->Finish();
  return r;
}

telemetry::TelemetryConfig MetricsOnly() {
  telemetry::TelemetryConfig config;
  config.tracing = false;
  config.async_drain = false;
  return config;
}

TEST(AssignmentApplierTest, RejectedPairsAreCountedAndNeverApplied) {
  RogueDispatcher rogue;
  RejectionRecorder obs;
  telemetry::TelemetrySession session(MetricsOnly());
  SimResult r = RunWithTelemetry(rogue, &obs, &session);

  ASSERT_GE(rogue.late.rider_index, 0) << "no late pair was found";
  EXPECT_EQ(r.rejected_out_of_range, 1);
  EXPECT_EQ(r.rejected_duplicate, 1);
  EXPECT_EQ(r.rejected_late, 1);
  for (const char* name : {"engine.rejected_out_of_range",
                           "engine.rejected_duplicate",
                           "engine.rejected_late"}) {
    const telemetry::Counter* c = session.metrics().FindCounter(name);
    ASSERT_NE(c, nullptr) << name;
    EXPECT_EQ(c->value(), 1) << name;
  }

  // Only the valid pair was applied; the rejections arrive in emission
  // order with their reasons.
  ASSERT_EQ(obs.applied.size(), 1u);
  EXPECT_TRUE(SamePair(obs.applied[0], rogue.valid));
  EXPECT_EQ(r.served_orders, 1);
  ASSERT_EQ(obs.rejected.size(), 3u);
  EXPECT_TRUE(SamePair(obs.rejected[0].first, rogue.out_of_range));
  EXPECT_EQ(obs.rejected[0].second, AssignmentRejection::kOutOfRange);
  EXPECT_TRUE(SamePair(obs.rejected[1].first, rogue.duplicate));
  EXPECT_EQ(obs.rejected[1].second, AssignmentRejection::kDuplicate);
  EXPECT_TRUE(SamePair(obs.rejected[2].first, rogue.late));
  EXPECT_EQ(obs.rejected[2].second, AssignmentRejection::kLate);
}

TEST(AssignmentApplierTest, CleanRunRegistersNoRejectionCounters) {
  auto dispatcher = MakeNearestDispatcher();
  telemetry::TelemetrySession session(MetricsOnly());
  SimResult r = RunWithTelemetry(*dispatcher, nullptr, &session);

  ASSERT_GT(r.served_orders, 0);
  EXPECT_EQ(r.rejected_out_of_range + r.rejected_duplicate + r.rejected_late,
            0);
  // Counters appear only on a rejection, so a clean run's metrics document
  // (a campaign's per-cell telemetry file) is unchanged by them.
  EXPECT_EQ(session.metrics().FindCounter("engine.rejected_late"), nullptr);
}

}  // namespace
}  // namespace mrvd
