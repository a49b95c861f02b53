// Differential tests of the patched driver index: however the fleet churns
// (assignments, rejoins, idle and pending sign-offs, sign-ons mid-trip and
// after, a driver touched twice between two syncs, emptied regions, GPS
// fixes off the city box), FleetState's synced index must equal a
// brute-force rebuild from fleet.drivers(): entries, region buckets, region
// boxes and the latitude range. DriverIndex::Patch itself is checked
// against a plain vector edit, and a BatchContext must equal itself whether
// built one AddDriver at a time or with SetDrivers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "api/api.h"
#include "sim/batch.h"
#include "sim/batch_builder.h"
#include "sim/driver_index.h"
#include "sim/fleet_state.h"
#include "sim/order_book.h"

namespace mrvd {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A point over the city box, widened by `pad` degrees on every side so
/// that some fixes fall off the box and are clamped into border cells.
LatLon RandomPoint(std::mt19937& rng, double pad = 0.02) {
  const BoundingBox& box = kNycBoundingBox;
  std::uniform_real_distribution<double> lat(box.lat_min - pad,
                                             box.lat_max + pad);
  std::uniform_real_distribution<double> lon(box.lon_min - pad,
                                             box.lon_max + pad);
  return LatLon{lat(rng), lon(rng)};
}

std::vector<AvailableDriver> RandomEntries(const Grid& grid, int n,
                                           std::mt19937& rng) {
  std::vector<AvailableDriver> entries;
  for (int j = 0; j < n; ++j) {
    AvailableDriver d;
    d.driver_id = static_cast<DriverId>(rng() % 1000);  // any order
    d.location = RandomPoint(rng);
    d.region = grid.RegionOf(d.location);
    d.available_since = static_cast<double>(rng() % 500);
    entries.push_back(d);
  }
  return entries;
}

void ExpectSameEntry(const AvailableDriver& got, const AvailableDriver& want,
                     size_t at) {
  EXPECT_EQ(got.driver_id, want.driver_id) << "entry " << at;
  EXPECT_EQ(got.location, want.location) << "entry " << at;
  EXPECT_EQ(got.region, want.region) << "entry " << at;
  EXPECT_EQ(got.available_since, want.available_since) << "entry " << at;
}

/// Checks an index — its roster `got`, buckets, boxes and latitude range,
/// read through its public functions — against a rebuild from `want`, the
/// roster it must hold.
template <typename Index>
void ExpectIndexOf(const Index& index, std::span<const AvailableDriver> got,
                   std::span<const AvailableDriver> want, int num_regions,
                   double lat_min, double lat_max) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t j = 0; j < want.size(); ++j) ExpectSameEntry(got[j], want[j], j);

  double want_lat_min = kInf;
  double want_lat_max = -kInf;
  size_t bucketed = 0;
  for (RegionId k = 0; k < num_regions; ++k) {
    std::vector<int> bucket;
    BoundingBox box{kInf, -kInf, kInf, -kInf};
    for (size_t j = 0; j < want.size(); ++j) {
      if (want[j].region != k) continue;
      bucket.push_back(static_cast<int>(j));
      const LatLon& p = want[j].location;
      box.lon_min = std::min(box.lon_min, p.lon);
      box.lon_max = std::max(box.lon_max, p.lon);
      box.lat_min = std::min(box.lat_min, p.lat);
      box.lat_max = std::max(box.lat_max, p.lat);
      want_lat_min = std::min(want_lat_min, p.lat);
      want_lat_max = std::max(want_lat_max, p.lat);
    }
    const std::span<const int> in = index.DriversIn(k);
    EXPECT_EQ(std::vector<int>(in.begin(), in.end()), bucket) << "region " << k;
    bucketed += in.size();
    if (bucket.empty()) continue;
    const BoundingBox& got_box = index.DriverBox(k);
    EXPECT_EQ(got_box.lon_min, box.lon_min) << "region " << k;
    EXPECT_EQ(got_box.lon_max, box.lon_max) << "region " << k;
    EXPECT_EQ(got_box.lat_min, box.lat_min) << "region " << k;
    EXPECT_EQ(got_box.lat_max, box.lat_max) << "region " << k;
  }
  EXPECT_EQ(bucketed, want.size());
  EXPECT_EQ(lat_min, want_lat_min);
  EXPECT_EQ(lat_max, want_lat_max);
}

void ExpectIndexHolds(const DriverIndex& index,
                      const std::vector<AvailableDriver>& want,
                      int num_regions) {
  ExpectIndexOf(index, index.drivers(), want, num_regions, index.lat_min(),
                index.lat_max());
}

void ExpectContextHolds(const BatchContext& ctx,
                        std::span<const AvailableDriver> want) {
  ExpectIndexOf(ctx, ctx.drivers(), want, ctx.grid().num_regions(),
                ctx.driver_lat_min(), ctx.driver_lat_max());
}

/// The roster a rebuild from the whole fleet produces: every dispatchable
/// driver, by ascending fleet index.
std::vector<AvailableDriver> Rebuild(const FleetState& fleet) {
  std::vector<AvailableDriver> roster;
  for (int j = 0; j < fleet.size(); ++j) {
    const DriverState& d = fleet.driver(j);
    if (!d.Dispatchable()) continue;
    roster.push_back(AvailableDriver{static_cast<DriverId>(j), d.location,
                                     d.region, d.available_since});
  }
  return roster;
}

bool InRoster(const DriverIndex& index, int j) {
  for (const AvailableDriver& d : index.drivers()) {
    if (d.driver_id == j) return true;
  }
  return false;
}

class DriverIndexTest : public ::testing::Test {
 protected:
  DriverIndexTest() : grid_(kNycBoundingBox, 5, 7) {}

  std::vector<DriverSpec> RandomFleet(int n, std::mt19937& rng) const {
    std::vector<DriverSpec> specs;
    for (int j = 0; j < n; ++j) {
      specs.push_back({1000 + j, RandomPoint(rng),
                       static_cast<double>(rng() % 60)});
    }
    return specs;
  }

  /// Syncs and checks the index against a rebuild; `expected_patched` is
  /// the sync's count (entries removed plus inserted).
  void SyncAndCheck(FleetState& fleet, int64_t expected_patched) {
    EXPECT_EQ(fleet.SyncDriverIndex(), expected_patched);
    ExpectIndexHolds(fleet.driver_index(), Rebuild(fleet),
                     grid_.num_regions());
  }

  void MarkBusyTo(FleetState& fleet, int j, double until, const LatLon& at) {
    fleet.MarkBusy(j, until, at, grid_.RegionOf(at));
  }

  Grid grid_;
};

TEST_F(DriverIndexTest, FreshFleetIndexEqualsRebuild) {
  std::mt19937 rng(11);
  FleetState fleet(RandomFleet(150, rng), grid_);
  ExpectIndexHolds(fleet.driver_index(), Rebuild(fleet), grid_.num_regions());
  SyncAndCheck(fleet, 0);  // nothing queued: the sync does nothing
}

// Seeded random churn. Per batch the test records which drivers it
// touched, so it also knows the sync's count: a touched driver adds one
// for leaving the old roster and one for being in the new one.
TEST_F(DriverIndexTest, RandomChurnKeepsIndexEqualToRebuild) {
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE(seed);
    std::mt19937 rng(seed);
    FleetState fleet(RandomFleet(120, rng), grid_);
    double now = 0.0;
    for (int batch = 0; batch < 300; ++batch) {
      now += 10.0;
      std::set<int> touched;
      std::vector<char> was_busy(static_cast<size_t>(fleet.size()));
      for (int j = 0; j < fleet.size(); ++j) {
        was_busy[static_cast<size_t>(j)] = fleet.driver(j).busy;
      }
      fleet.ReleaseFinished(now);
      for (int j = 0; j < fleet.size(); ++j) {
        if (was_busy[static_cast<size_t>(j)] &&
            fleet.driver(j).Dispatchable()) {
          touched.insert(j);
        }
      }
      const int ops = static_cast<int>(rng() % 7);
      for (int op = 0; op < ops; ++op) {
        const int j = static_cast<int>(rng() % fleet.size());
        switch (rng() % 4) {
          case 0:
          case 1:
            if (fleet.driver(j).Dispatchable()) {
              // Some trips end by the next batch, some much later; a few
              // end right now and rejoin at once below.
              const double until = now + static_cast<double>(rng() % 400);
              MarkBusyTo(fleet, j, until, RandomPoint(rng));
              touched.insert(j);
            }
            break;
          case 2:
            if (fleet.SignOff(j)) touched.insert(j);
            break;
          default:
            if (fleet.SignOn(j, now)) touched.insert(j);
            break;
        }
      }
      // Trips that ended at `now` rejoin before the sync: those drivers
      // were touched twice.
      fleet.ReleaseFinished(now);
      int64_t expected = 0;
      for (int j : touched) {
        if (InRoster(fleet.driver_index(), j)) ++expected;
        if (fleet.driver(j).Dispatchable()) ++expected;
      }
      SyncAndCheck(fleet, expected);
      if (HasFailure()) return;
    }
  }
}

TEST_F(DriverIndexTest, ShiftChangesAndDoubleTouches) {
  std::mt19937 rng(5);
  FleetState fleet(RandomFleet(12, rng), grid_);
  const LatLon off_box{kNycBoundingBox.lat_max + 0.05,
                       kNycBoundingBox.lon_min - 0.05};

  // Pending sign-off: busy, then off at trip end, never back in the index
  // until a sign-on, which rejoins at the dropoff.
  MarkBusyTo(fleet, 3, 100.0, off_box);
  EXPECT_TRUE(fleet.SignOff(3));
  SyncAndCheck(fleet, 1);
  fleet.ReleaseFinished(100.0);
  EXPECT_TRUE(fleet.driver(3).signed_off);
  SyncAndCheck(fleet, 0);
  EXPECT_TRUE(fleet.SignOn(3, 130.0));
  SyncAndCheck(fleet, 1);
  EXPECT_TRUE(InRoster(fleet.driver_index(), 3));
  EXPECT_EQ(fleet.driver(3).location, off_box);

  // Mid-trip sign-on cancels the pending sign-off: the driver rejoins
  // normally at trip end.
  MarkBusyTo(fleet, 4, 200.0, RandomPoint(rng));
  EXPECT_TRUE(fleet.SignOff(4));
  EXPECT_TRUE(fleet.SignOn(4, 150.0));
  SyncAndCheck(fleet, 1);
  fleet.ReleaseFinished(200.0);
  SyncAndCheck(fleet, 1);
  EXPECT_TRUE(InRoster(fleet.driver_index(), 4));

  // Touched twice between syncs: an idle sign-off and sign-on replace the
  // entry (new available_since); a trip that ends before the sync moves it.
  EXPECT_TRUE(fleet.SignOff(5));
  EXPECT_TRUE(fleet.SignOn(5, 210.0));
  MarkBusyTo(fleet, 6, 210.0, off_box);
  fleet.ReleaseFinished(210.0);
  SyncAndCheck(fleet, 4);
  EXPECT_EQ(fleet.driver(5).available_since, 210.0);

  // Signed off, on and off again between two syncs: the driver just
  // leaves.
  EXPECT_TRUE(fleet.SignOff(7));
  EXPECT_TRUE(fleet.SignOn(7, 220.0));
  EXPECT_TRUE(fleet.SignOff(7));
  SyncAndCheck(fleet, 1);
  EXPECT_FALSE(InRoster(fleet.driver_index(), 7));
}

TEST_F(DriverIndexTest, EmptiedRegionsAndEmptiedFleet) {
  std::mt19937 rng(9);
  FleetState fleet(RandomFleet(200, rng), grid_);
  const RegionId busiest = [&] {
    RegionId best = 0;
    for (RegionId k = 1; k < grid_.num_regions(); ++k) {
      if (fleet.driver_index().DriversIn(k).size() >
          fleet.driver_index().DriversIn(best).size()) {
        best = k;
      }
    }
    return best;
  }();
  ASSERT_GT(fleet.driver_index().DriversIn(busiest).size(), 1u);

  // Empty the busiest region: every driver there leaves on a trip.
  const LatLon far = grid_.CellBox(busiest == 0 ? 1 : 0).Center();
  for (int j = 0; j < fleet.size(); ++j) {
    if (fleet.driver(j).region == busiest) MarkBusyTo(fleet, j, 500.0, far);
  }
  fleet.SyncDriverIndex();
  ExpectIndexHolds(fleet.driver_index(), Rebuild(fleet), grid_.num_regions());
  EXPECT_TRUE(fleet.driver_index().DriversIn(busiest).empty());

  // Everyone off: empty spans everywhere, inverted latitude range.
  for (int j = 0; j < fleet.size(); ++j) fleet.SignOff(j);
  fleet.ReleaseFinished(500.0);
  fleet.SyncDriverIndex();
  ExpectIndexHolds(fleet.driver_index(), Rebuild(fleet), grid_.num_regions());
  EXPECT_TRUE(fleet.driver_index().drivers().empty());
  EXPECT_GT(fleet.driver_index().lat_min(), fleet.driver_index().lat_max());

  // And back on: the refilled index equals a rebuild again.
  for (int j = 0; j < fleet.size(); j += 2) fleet.SignOn(j, 600.0);
  SyncAndCheck(fleet, fleet.size() / 2);
}

// Patch against a plain vector edit, with inserts at the front, at the
// end, several before one position, and removals next to them.
TEST_F(DriverIndexTest, PatchEqualsVectorEdit) {
  std::mt19937 rng(21);
  DriverIndex index(grid_.num_regions());
  std::vector<AvailableDriver> want;
  for (int step = 0; step < 200; ++step) {
    const int size = static_cast<int>(want.size());
    std::vector<int> removed;
    for (int p = 0; p < size; ++p) {
      if (rng() % 10 == 0) removed.push_back(p);
    }
    std::vector<DriverInsert> inserted;
    for (const AvailableDriver& d :
         RandomEntries(grid_, static_cast<int>(rng() % 9), rng)) {
      inserted.push_back({static_cast<int>(rng() % (size + 1)), d});
    }
    if (step % 50 == 49) {  // now and then, remove everything
      removed.clear();
      for (int p = 0; p < size; ++p) removed.push_back(p);
    }
    std::stable_sort(inserted.begin(), inserted.end(),
                     [](const DriverInsert& a, const DriverInsert& b) {
                       return a.at < b.at;
                     });

    std::vector<AvailableDriver> next;
    size_t r = 0;
    size_t i = 0;
    for (int p = 0; p <= size; ++p) {
      for (; i < inserted.size() && inserted[i].at == p; ++i) {
        next.push_back(inserted[i].entry);
      }
      if (p == size) break;
      if (r < removed.size() && removed[r] == p) {
        ++r;
        continue;
      }
      next.push_back(want[static_cast<size_t>(p)]);
    }
    want.swap(next);

    index.Patch(removed, inserted);
    ExpectIndexHolds(index, want, grid_.num_regions());
    if (HasFailure()) return;
  }
}

TEST_F(DriverIndexTest, AddDriverOneByOneEqualsSetDrivers) {
  std::mt19937 rng(31);
  const StraightLineCostModel cost(10.0, 1.0);
  const std::vector<AvailableDriver> drivers = RandomEntries(grid_, 90, rng);
  BatchContext added(0.0, 1200.0, 0.02, grid_, cost);
  BatchContext bulk(0.0, 1200.0, 0.02, grid_, cost);
  std::vector<AvailableDriver> so_far;
  for (const AvailableDriver& d : drivers) {
    added.AddDriver(d);
    so_far.push_back(d);
    ExpectContextHolds(added, so_far);
  }
  bulk.SetDrivers(drivers);
  ExpectContextHolds(bulk, drivers);
  ExpectContextHolds(added, bulk.drivers());
}

// The builder's context views the fleet's index: between two builds the
// fleet may change, but the context must not.
TEST(DriverIndexViewTest, ContextStaysUnchangedUntilTheNextBuild) {
  GeneratorConfig city;
  city.orders_per_day = 2000;
  StatusOr<Simulation> sim =
      SimulationBuilder().GenerateNycDay(7, /*num_drivers=*/80, city).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  const SimConfig& config = sim->config();
  FleetState fleet(sim->workload(), sim->grid());
  OrderBook orders(sim->workload(), sim->grid(), sim->travel_model(),
                   config.alpha);
  BatchBuilder builder(sim->grid(), sim->travel_model(), nullptr,
                       config.window_seconds, config.reneging_beta,
                       config.candidate_mode);

  const BatchContext& ctx = builder.Build(60.0, orders, fleet);
  const std::vector<AvailableDriver> first(ctx.drivers().begin(),
                                           ctx.drivers().end());
  ASSERT_EQ(first.size(), 80u);
  for (int j = 0; j < fleet.size(); j += 3) {
    fleet.MarkBusy(j, 61.0, fleet.driver(j).location, fleet.driver(j).region);
  }
  fleet.SignOff(1);
  fleet.ReleaseFinished(61.0);
  ExpectContextHolds(ctx, first);

  builder.Build(62.0, orders, fleet);
  ExpectContextHolds(ctx, Rebuild(fleet));
  EXPECT_EQ(ctx.drivers().size(), first.size() - 1);
  for (RegionId k = 0; k < sim->grid().num_regions(); ++k) {
    EXPECT_EQ(ctx.snapshots()[static_cast<size_t>(k)].available_drivers,
              static_cast<int64_t>(ctx.DriversIn(k).size()))
        << "region " << k;
  }
}

}  // namespace
}  // namespace mrvd
