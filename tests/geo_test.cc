#include <gtest/gtest.h>

#include <memory>

#include "geo/grid.h"
#include "geo/point.h"
#include "geo/travel.h"
#include "roadnet/graph.h"
#include "roadnet/shortest_path.h"
#include "util/rng.h"

namespace mrvd {
namespace {

// ------------------------------------------------------------- distances

TEST(DistanceTest, HaversineKnownValue) {
  // Times Square to JFK is roughly 21 km great-circle.
  LatLon times_square{40.7580, -73.9855};
  LatLon jfk{40.6413, -73.7781};
  double d = HaversineMeters(times_square, jfk);
  EXPECT_NEAR(d, 21500.0, 800.0);
}

TEST(DistanceTest, ZeroForIdenticalPoints) {
  LatLon p{40.7, -74.0};
  EXPECT_DOUBLE_EQ(HaversineMeters(p, p), 0.0);
  EXPECT_DOUBLE_EQ(EquirectangularMeters(p, p), 0.0);
}

TEST(DistanceTest, EquirectangularCloseToHaversineAtCityScale) {
  LatLon a{40.60, -74.00};
  LatLon b{40.90, -73.80};
  double h = HaversineMeters(a, b);
  double e = EquirectangularMeters(a, b);
  EXPECT_NEAR(e / h, 1.0, 0.002);
}

TEST(DistanceTest, Symmetry) {
  LatLon a{40.61, -73.99}, b{40.85, -73.81};
  EXPECT_DOUBLE_EQ(HaversineMeters(a, b), HaversineMeters(b, a));
  EXPECT_DOUBLE_EQ(EquirectangularMeters(a, b), EquirectangularMeters(b, a));
}

// ---------------------------------------------------------- bounding box

TEST(BoundingBoxTest, ContainsAndClamp) {
  EXPECT_TRUE(kNycBoundingBox.Contains({40.7, -73.9}));
  EXPECT_FALSE(kNycBoundingBox.Contains({41.5, -73.9}));
  LatLon clamped = kNycBoundingBox.Clamp({41.5, -75.0});
  EXPECT_TRUE(kNycBoundingBox.Contains(clamped));
  EXPECT_DOUBLE_EQ(clamped.lat, 40.92);
  EXPECT_DOUBLE_EQ(clamped.lon, -74.03);
}

// ------------------------------------------------------------------ grid

TEST(GridTest, NycGridHas256Regions) {
  Grid g = MakeNycGrid16x16();
  EXPECT_EQ(g.num_regions(), 256);
  EXPECT_EQ(g.rows(), 16);
  EXPECT_EQ(g.cols(), 16);
}

TEST(GridTest, RegionOfCornerPoints) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.RegionOf({40.58, -74.03}), 0);           // SW corner
  EXPECT_EQ(g.RegionOf({40.9199, -73.7701}), 255);     // NE corner
}

TEST(GridTest, OutOfBoxPointsClampToBorderCells) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.RegionOf({39.0, -75.0}), 0);
  EXPECT_EQ(g.RegionOf({42.0, -73.0}), 255);
}

TEST(GridTest, CenterRoundTrips) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r = 0; r < g.num_regions(); ++r) {
    EXPECT_EQ(g.RegionOf(g.CenterOf(r)), r);
  }
}

TEST(GridTest, RowColRoundTrip) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r = 0; r < g.num_regions(); ++r) {
    EXPECT_EQ(g.RegionAt(g.RowOf(r), g.ColOf(r)), r);
  }
}

TEST(GridTest, NeighborsInterior) {
  Grid g(kNycBoundingBox, 16, 16);
  RegionId center = g.RegionAt(8, 8);
  EXPECT_EQ(g.Neighbors(center).size(), 8u);
}

TEST(GridTest, NeighborsCornerHasThree) {
  Grid g(kNycBoundingBox, 16, 16);
  EXPECT_EQ(g.Neighbors(0).size(), 3u);
}

TEST(GridTest, RingZeroIsSelf) {
  Grid g(kNycBoundingBox, 16, 16);
  auto ring0 = g.Ring(37, 0);
  ASSERT_EQ(ring0.size(), 1u);
  EXPECT_EQ(ring0[0], 37);
}

TEST(GridTest, RingsPartitionTheGrid) {
  Grid g(kNycBoundingBox, 8, 8);
  RegionId from = g.RegionAt(3, 4);
  std::vector<char> seen(static_cast<size_t>(g.num_regions()), false);
  int total = 0;
  for (int ring = 0; ring < 8; ++ring) {
    for (RegionId r : g.Ring(from, ring)) {
      EXPECT_FALSE(seen[static_cast<size_t>(r)]) << "duplicate region " << r;
      EXPECT_EQ(g.RingDistance(from, r), ring);
      seen[static_cast<size_t>(r)] = true;
      ++total;
    }
  }
  EXPECT_EQ(total, g.num_regions());
}

TEST(GridTest, CellBoxContainsCenter) {
  Grid g(kNycBoundingBox, 16, 16);
  for (RegionId r : {0, 17, 255, 128}) {
    EXPECT_TRUE(g.CellBox(r).Contains(g.CenterOf(r)));
  }
}

// ---------------------------------------------------------- travel models

TEST(TravelTest, StraightLineScalesWithDetour) {
  StraightLineCostModel fast(10.0, 1.0);
  StraightLineCostModel detoured(10.0, 1.5);
  LatLon a{40.7, -74.0}, b{40.75, -73.95};
  EXPECT_NEAR(detoured.TravelSeconds(a, b) / fast.TravelSeconds(a, b), 1.5,
              1e-9);
}

TEST(TravelTest, TravelMetersConsistentWithSeconds) {
  StraightLineCostModel m(7.0, 1.3);
  LatLon a{40.7, -74.0}, b{40.75, -73.95};
  EXPECT_NEAR(m.TravelMeters(a, b), m.TravelSeconds(a, b) * m.SpeedMps(),
              1e-6);
}

TEST(TravelTest, ManhattanAtLeastStraightLine) {
  ManhattanCostModel manhattan(7.0);
  StraightLineCostModel straight(7.0, 1.0);
  LatLon a{40.70, -74.00}, b{40.80, -73.85};
  EXPECT_GE(manhattan.TravelSeconds(a, b),
            straight.TravelSeconds(a, b) * 0.999);
  // And at most sqrt(2) times it.
  EXPECT_LE(manhattan.TravelSeconds(a, b),
            straight.TravelSeconds(a, b) * 1.4143);
}

// The TravelCostModel contract candidate pruning relies on: no trip beats
// the crow-fly distance at MaxSpeedMps(), for points in the city box and
// for off-box GPS fixes alike (including pairs on a shared row or column,
// where the Manhattan legs degenerate). The jittered road network's streets
// are faster than its SpeedMps(), so it must (and does) raise MaxSpeedMps.
TEST(TravelTest, NeverFasterThanCrowFlyAtMaxSpeed) {
  const StraightLineCostModel exact(10.0, 1.0);
  const StraightLineCostModel detoured(7.0, 1.3);
  const ManhattanCostModel manhattan(7.0);
  const RoadNetworkCostModel road(
      std::make_shared<RoadNetwork>(MakeGridNetwork(
          kNycBoundingBox, 16, 16, /*speed_mps=*/8.0, /*jitter=*/0.25, 7)),
      kNycBoundingBox, 8.0);
  const BoundingBox& box = kNycBoundingBox;
  const double spill = 0.5;  // degrees outside the box
  Rng rng(20190417);
  auto point = [&](double margin) {
    return LatLon{rng.Uniform(box.lat_min - margin, box.lat_max + margin),
                  rng.Uniform(box.lon_min - margin, box.lon_max + margin)};
  };
  int road_faster_than_reference = 0;
  for (int i = 0; i < 20000; ++i) {
    const double margin = i % 2 == 0 ? 0.0 : spill;
    const LatLon a = point(margin);
    LatLon b = point(margin);
    if (i % 7 == 0) b.lat = a.lat;
    if (i % 11 == 0) b.lon = a.lon;
    for (const TravelCostModel* m :
         std::initializer_list<const TravelCostModel*>{&exact, &detoured,
                                                       &manhattan, &road}) {
      EXPECT_GE(m->TravelSeconds(a, b),
                EquirectangularMeters(a, b) / m->MaxSpeedMps())
          << a << " -> " << b;
      EXPECT_GE(m->TravelSeconds(b, a),
                EquirectangularMeters(b, a) / m->MaxSpeedMps())
          << b << " -> " << a;
    }
    if (road.TravelSeconds(a, b) <
        EquirectangularMeters(a, b) / road.SpeedMps()) {
      ++road_faster_than_reference;
    }
  }
  EXPECT_EQ(exact.MaxSpeedMps(), exact.SpeedMps());
  EXPECT_EQ(manhattan.MaxSpeedMps(), manhattan.SpeedMps());
  // The road case is not vacuous: SpeedMps() alone would break the bound.
  EXPECT_GT(road_faster_than_reference, 0);
}

TEST(TravelTest, ZeroDistanceZeroTime) {
  StraightLineCostModel m(7.0, 1.3);
  LatLon p{40.7, -74.0};
  EXPECT_DOUBLE_EQ(m.TravelSeconds(p, p), 0.0);
}

}  // namespace
}  // namespace mrvd
