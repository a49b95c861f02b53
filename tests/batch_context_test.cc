// Unit tests for BatchContext's per-batch driver index and its reuse: the
// flat region buckets, driver boxes and latitude range must equal a
// brute-force recomputation however the drivers were added, and a builder
// that rebuilds its one context in place must produce exactly the context a
// fresh builder produces — no stale rider, driver, bucket, snapshot, surge
// multiplier or memoised ET value may survive a rebuild.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "api/api.h"
#include "sim/batch_builder.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"

namespace mrvd {
namespace {

/// Every 4th region of the test grid never receives a driver.
bool KeptEmpty(RegionId k) { return k % 4 == 0; }

/// Random drivers over (and slightly beyond) the city box, so clamped
/// border fixes are among them; regions KeptEmpty() stay empty.
std::vector<AvailableDriver> RandomDrivers(const Grid& grid, int n,
                                           uint32_t seed) {
  std::mt19937 rng(seed);
  const BoundingBox& box = grid.box();
  const double pad = 0.02;
  std::uniform_real_distribution<double> lat(box.lat_min - pad,
                                             box.lat_max + pad);
  std::uniform_real_distribution<double> lon(box.lon_min - pad,
                                             box.lon_max + pad);
  std::vector<AvailableDriver> drivers;
  while (static_cast<int>(drivers.size()) < n) {
    AvailableDriver d;
    d.driver_id = static_cast<DriverId>(drivers.size());
    d.location = LatLon{lat(rng), lon(rng)};
    d.region = grid.RegionOf(d.location);
    if (KeptEmpty(d.region)) continue;
    drivers.push_back(d);
  }
  return drivers;
}

/// Checks the context's driver index against a recount over drivers().
void ExpectIndexMatchesBruteForce(const BatchContext& ctx) {
  const Grid& grid = ctx.grid();
  double lat_min = std::numeric_limits<double>::infinity();
  double lat_max = -std::numeric_limits<double>::infinity();
  for (const AvailableDriver& d : ctx.drivers()) {
    lat_min = std::min(lat_min, d.location.lat);
    lat_max = std::max(lat_max, d.location.lat);
  }
  EXPECT_EQ(ctx.driver_lat_min(), lat_min);
  EXPECT_EQ(ctx.driver_lat_max(), lat_max);

  size_t bucketed = 0;
  for (RegionId k = 0; k < grid.num_regions(); ++k) {
    std::vector<int> bucket;
    for (size_t j = 0; j < ctx.drivers().size(); ++j) {
      if (ctx.drivers()[j].region == k) bucket.push_back(static_cast<int>(j));
    }
    const std::span<const int> got = ctx.DriversIn(k);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), bucket)
        << "region " << k;
    bucketed += got.size();
    if (bucket.empty()) continue;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    BoundingBox box{kInf, -kInf, kInf, -kInf};
    for (int j : bucket) {
      const LatLon& p = ctx.drivers()[static_cast<size_t>(j)].location;
      box.lon_min = std::min(box.lon_min, p.lon);
      box.lon_max = std::max(box.lon_max, p.lon);
      box.lat_min = std::min(box.lat_min, p.lat);
      box.lat_max = std::max(box.lat_max, p.lat);
    }
    const BoundingBox& got_box = ctx.DriverBox(k);
    EXPECT_EQ(got_box.lon_min, box.lon_min) << "region " << k;
    EXPECT_EQ(got_box.lon_max, box.lon_max) << "region " << k;
    EXPECT_EQ(got_box.lat_min, box.lat_min) << "region " << k;
    EXPECT_EQ(got_box.lat_max, box.lat_max) << "region " << k;
  }
  EXPECT_EQ(bucketed, ctx.drivers().size());
}

class BatchContextIndexTest : public ::testing::Test {
 protected:
  BatchContextIndexTest() : grid_(kNycBoundingBox, 5, 7), cost_(10.0, 1.0) {}

  BatchContext MakeContext() const {
    return BatchContext(/*now=*/0.0, 1200.0, 0.02, grid_, cost_);
  }

  Grid grid_;
  StraightLineCostModel cost_;
};

TEST_F(BatchContextIndexTest, SetDriversBucketsAndBoxesMatchBruteForce) {
  for (uint32_t seed : {1u, 2u, 3u}) {
    BatchContext ctx = MakeContext();
    ctx.SetDrivers(RandomDrivers(grid_, 200, seed));
    ExpectIndexMatchesBruteForce(ctx);
    for (RegionId k = 0; k < grid_.num_regions(); ++k) {
      if (KeptEmpty(k)) {
        EXPECT_TRUE(ctx.DriversIn(k).empty()) << k;
      }
    }
  }
}

TEST_F(BatchContextIndexTest, AddDriverKeepsBucketsAndBoxes) {
  const std::vector<AvailableDriver> drivers = RandomDrivers(grid_, 120, 7);
  BatchContext added = MakeContext();
  for (const AvailableDriver& d : drivers) {
    added.AddDriver(d);
    if (added.drivers().size() % 17 == 0) {
      ExpectIndexMatchesBruteForce(added);
    }
  }
  ExpectIndexMatchesBruteForce(added);

  BatchContext bulk = MakeContext();
  bulk.SetDrivers(drivers);
  for (RegionId k = 0; k < grid_.num_regions(); ++k) {
    const std::span<const int> a = added.DriversIn(k);
    const std::span<const int> b = bulk.DriversIn(k);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end())) << k;
  }

  // Adding onto a bulk-built context extends it like one more SetDrivers.
  std::vector<AvailableDriver> more = RandomDrivers(grid_, 30, 8);
  for (const AvailableDriver& d : more) bulk.AddDriver(d);
  ExpectIndexMatchesBruteForce(bulk);
}

TEST_F(BatchContextIndexTest, EmptyContextHasEmptySpansEverywhere) {
  BatchContext ctx = MakeContext();
  for (RegionId k = 0; k < grid_.num_regions(); ++k) {
    EXPECT_TRUE(ctx.DriversIn(k).empty()) << k;
  }
  EXPECT_GT(ctx.driver_lat_min(), ctx.driver_lat_max());

  ctx.SetDrivers(RandomDrivers(grid_, 50, 4));
  ctx.Reset(/*now=*/30.0);
  EXPECT_EQ(ctx.now(), 30.0);
  EXPECT_TRUE(ctx.drivers().empty());
  EXPECT_TRUE(ctx.riders().empty());
  for (RegionId k = 0; k < grid_.num_regions(); ++k) {
    EXPECT_TRUE(ctx.DriversIn(k).empty()) << k;
  }
  EXPECT_GT(ctx.driver_lat_min(), ctx.driver_lat_max());
}

// A negative extra-driver count is outside the memo's range: it is solved
// directly and leaves the memoised values alone.
TEST_F(BatchContextIndexTest, NegativeExtraDriversBypassTheMemo) {
  BatchContext ctx = MakeContext();
  ctx.SetDrivers(RandomDrivers(grid_, 60, 5));
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid_.num_regions()));
  for (size_t k = 0; k < snaps.size(); ++k) {
    snaps[k].waiting_riders = static_cast<int64_t>(k % 5);
    snaps[k].available_drivers = static_cast<int64_t>(k % 3);
    snaps[k].predicted_riders = 4.0 + static_cast<double>(k % 7);
    snaps[k].predicted_drivers = 3.0;
  }
  ctx.SetSnapshots(snaps);
  for (RegionId k = 0; k < grid_.num_regions(); ++k) {
    const double at_zero = ctx.ExpectedIdleSeconds(k, 0);
    EXPECT_EQ(ctx.ExpectedIdleSeconds(k, -2), ctx.ComputeIdleSeconds(k, -2))
        << k;
    EXPECT_EQ(ctx.ExpectedIdleSeconds(k, 0), at_zero) << k;
    EXPECT_EQ(ctx.ExpectedIdleSeconds(k, 1), ctx.ComputeIdleSeconds(k, 1))
        << k;
  }
}

// ------------------------------------------------------- builder reuse

/// Asserts two contexts hold the same batch, field by field and bit for
/// bit, including ET values for several extra-driver counts. (Boxes follow
/// from the drivers; ExpectIndexMatchesBruteForce checks them.)
void ExpectSameBatch(const BatchContext& a, const BatchContext& b) {
  EXPECT_EQ(a.now(), b.now());
  ASSERT_EQ(a.riders().size(), b.riders().size());
  for (size_t i = 0; i < a.riders().size(); ++i) {
    const WaitingRider& x = a.riders()[i];
    const WaitingRider& y = b.riders()[i];
    EXPECT_EQ(x.order_id, y.order_id) << i;
    EXPECT_EQ(x.pickup, y.pickup) << i;
    EXPECT_EQ(x.dropoff, y.dropoff) << i;
    EXPECT_EQ(x.pickup_deadline, y.pickup_deadline) << i;
    EXPECT_EQ(x.revenue, y.revenue) << i;
    EXPECT_EQ(x.pickup_region, y.pickup_region) << i;
    EXPECT_EQ(x.dropoff_region, y.dropoff_region) << i;
  }
  ASSERT_EQ(a.drivers().size(), b.drivers().size());
  for (size_t j = 0; j < a.drivers().size(); ++j) {
    const AvailableDriver& x = a.drivers()[j];
    const AvailableDriver& y = b.drivers()[j];
    EXPECT_EQ(x.driver_id, y.driver_id) << j;
    EXPECT_EQ(x.location, y.location) << j;
    EXPECT_EQ(x.region, y.region) << j;
    EXPECT_EQ(x.available_since, y.available_since) << j;
  }
  EXPECT_EQ(a.driver_lat_min(), b.driver_lat_min());
  EXPECT_EQ(a.driver_lat_max(), b.driver_lat_max());
  for (RegionId k = 0; k < a.grid().num_regions(); ++k) {
    const RegionSnapshot& s = a.snapshots()[static_cast<size_t>(k)];
    const RegionSnapshot& t = b.snapshots()[static_cast<size_t>(k)];
    EXPECT_EQ(s.waiting_riders, t.waiting_riders) << k;
    EXPECT_EQ(s.available_drivers, t.available_drivers) << k;
    EXPECT_EQ(s.predicted_riders, t.predicted_riders) << k;
    EXPECT_EQ(s.predicted_drivers, t.predicted_drivers) << k;
    const std::span<const int> da = a.DriversIn(k);
    const std::span<const int> db = b.DriversIn(k);
    EXPECT_TRUE(std::equal(da.begin(), da.end(), db.begin(), db.end())) << k;
    for (int extra : {0, 1, 3}) {
      EXPECT_EQ(a.ExpectedIdleSeconds(k, extra),
                b.ExpectedIdleSeconds(k, extra))
          << "region " << k << " extra " << extra;
    }
  }
}

/// A small generated day with its oracle forecast, and builders over it.
class BatchBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    GeneratorConfig city;
    city.orders_per_day = 20000;
    StatusOr<Simulation> sim = SimulationBuilder()
                                   .GenerateNycDay(7, /*num_drivers=*/120, city)
                                   .WithOracleForecast()
                                   .Build();
    ASSERT_TRUE(sim.ok()) << sim.status();
    sim_.emplace(std::move(*sim));
  }

  BatchBuilder MakeBuilder() const {
    const SimConfig& config = sim_->config();
    return BatchBuilder(sim_->grid(), sim_->travel_model(), sim_->forecast(),
                        config.window_seconds, config.reneging_beta,
                        config.candidate_mode);
  }

  std::optional<Simulation> sim_;
};

// The builder fills every region's window count in one WindowCounts call;
// each must be WindowCount's to the bit, at slot boundaries and near
// midnight too.
TEST_F(BatchBuilderTest, PredictedRidersEqualWindowCountExactly) {
  const Grid& grid = sim_->grid();
  const DemandForecast& forecast = *sim_->forecast();
  const double window = sim_->config().window_seconds;
  FleetState fleet(sim_->workload(), grid);
  OrderBook orders(sim_->workload(), grid, sim_->travel_model(),
                   sim_->config().alpha);
  BatchBuilder builder = MakeBuilder();
  std::vector<double> surge(static_cast<size_t>(grid.num_regions()), 1.0);
  for (size_t k = 0; k < surge.size(); k += 3) surge[k] = 1.7;
  const double slot = kSecondsPerDay / forecast.slots_per_day();
  for (double now : {0.0, 3.0, slot - 1.0, slot, 5.0 * slot + 123.0,
                     40000.0, kSecondsPerDay - 700.0, kSecondsPerDay - 1.0}) {
    const std::vector<double>* const none = nullptr;
    for (const std::vector<double>* multipliers :
         {none, &std::as_const(surge)}) {
      const BatchContext& ctx = builder.Build(now, orders, fleet, multipliers);
      for (RegionId k = 0; k < grid.num_regions(); ++k) {
        double expected = forecast.WindowCount(now, window, k);
        if (multipliers != nullptr) {
          expected *= (*multipliers)[static_cast<size_t>(k)];
        }
        EXPECT_EQ(ctx.snapshots()[static_cast<size_t>(k)].predicted_riders,
                  expected)
            << "region " << k << " at t=" << now;
      }
    }
  }
}

TEST_F(BatchBuilderTest, RebuiltContextEqualsFreshBuild) {
  const Grid& grid = sim_->grid();
  const SimConfig& config = sim_->config();
  FleetState fleet(sim_->workload(), grid);
  OrderBook orders(sim_->workload(), grid, sim_->travel_model(), config.alpha);
  BatchBuilder reused = MakeBuilder();

  // t1: morning rush under a 3x surge over every region; the dispatchers'
  // ET queries fill the memo well past its initial per-region width.
  const double t1 = 8.0 * 3600.0;
  orders.InjectArrivals(t1);
  fleet.AdvanceRejoinWindow(t1, config.window_seconds);
  const std::vector<double> surge(static_cast<size_t>(grid.num_regions()),
                                  3.0);
  const BatchContext& first = reused.Build(t1, orders, fleet, &surge);
  ASSERT_FALSE(first.riders().empty());
  const size_t drivers_at_t1 = first.drivers().size();
  for (RegionId k = 0; k < grid.num_regions(); ++k) {
    for (int extra = 0; extra <= 20; extra += 4) {
      first.ExpectedIdleSeconds(k, extra);
    }
  }

  // Between the batches half the idle fleet leaves on trips, so the
  // second build has fewer drivers than the first; the surge ends.
  for (int j = 0; j < fleet.size(); j += 2) {
    const DriverState& d = fleet.driver(j);
    if (!d.Dispatchable()) continue;
    fleet.MarkBusy(j, t1 + 5000.0, d.location, d.region);
  }
  const double t2 = t1 + 60.0;
  fleet.ReleaseFinished(t2);
  orders.InjectArrivals(t2);
  orders.RemoveExpired(t2, nullptr);
  fleet.AdvanceRejoinWindow(t2, config.window_seconds);

  const BatchContext& second = reused.Build(t2, orders, fleet, nullptr);
  EXPECT_EQ(&second, &first);  // one context, rebuilt in place
  EXPECT_LT(second.drivers().size(), drivers_at_t1);

  BatchBuilder fresh = MakeBuilder();
  const BatchContext& expected = fresh.Build(t2, orders, fleet, nullptr);
  ExpectSameBatch(second, expected);
  ExpectIndexMatchesBruteForce(second);
}

}  // namespace
}  // namespace mrvd
