#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "roadnet/graph.h"
#include "roadnet/shortest_path.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mrvd {
namespace {

RoadNetwork TinyTriangle() {
  // 0 --1s--> 1 --1s--> 2, plus direct 0 --5s--> 2.
  std::vector<LatLon> nodes = {{40.70, -74.00}, {40.70, -73.99},
                               {40.70, -73.98}};
  std::vector<EdgeInput> edges = {
      {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 5.0}};
  auto net = RoadNetwork::Build(std::move(nodes), edges);
  EXPECT_TRUE(net.ok());
  return std::move(net).value();
}

TEST(RoadNetworkTest, BuildValidatesEndpoints) {
  std::vector<LatLon> nodes = {{40.7, -74.0}};
  auto bad = RoadNetwork::Build(nodes, {{0, 5, 1.0}});
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(RoadNetworkTest, BuildRejectsNegativeCost) {
  std::vector<LatLon> nodes = {{40.7, -74.0}, {40.71, -74.0}};
  auto bad = RoadNetwork::Build(nodes, {{0, 1, -1.0}});
  EXPECT_FALSE(bad.ok());
}

TEST(RoadNetworkTest, ZeroCostStreetHasNoFiniteSpeedBound) {
  // 0 --0s--> 1 --1s--> 2: a free street of positive length is faster
  // than any finite speed, so a finite max_speed_mps() would make A*'s
  // heuristic and the TravelCostModel crow-fly bound overstate how long
  // some trips take.
  std::vector<LatLon> nodes = {{40.70, -74.00}, {40.70, -73.99},
                               {40.70, -73.98}};
  auto net = RoadNetwork::Build(nodes, {{0, 1, 0.0}, {1, 2, 1.0},
                                        {0, 2, 1.5}});
  ASSERT_TRUE(net.ok());
  EXPECT_TRUE(std::isinf(net->max_speed_mps()));
  ShortestPathEngine engine(*net);
  PathResult r = engine.AStar(0, 2);
  ASSERT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.cost_seconds, 1.0);
}

TEST(RoadNetworkTest, CsrAdjacency) {
  RoadNetwork net = TinyTriangle();
  EXPECT_EQ(net.num_nodes(), 3);
  EXPECT_EQ(net.num_edges(), 3);
  EXPECT_EQ(net.out_end(0) - net.out_begin(0), 2);
  EXPECT_EQ(net.out_end(1) - net.out_begin(1), 1);
  EXPECT_EQ(net.out_end(2) - net.out_begin(2), 0);
}

TEST(ShortestPathTest, PicksCheaperTwoHopPath) {
  RoadNetwork net = TinyTriangle();
  ShortestPathEngine engine(net);
  PathResult r = engine.PointToPoint(0, 2, /*want_path=*/true);
  ASSERT_TRUE(r.reachable);
  EXPECT_DOUBLE_EQ(r.cost_seconds, 2.0);
  ASSERT_EQ(r.path.size(), 3u);
  EXPECT_EQ(r.path[0], 0);
  EXPECT_EQ(r.path[1], 1);
  EXPECT_EQ(r.path[2], 2);
}

TEST(ShortestPathTest, UnreachableNode) {
  std::vector<LatLon> nodes = {{40.7, -74.0}, {40.71, -74.0}};
  auto net = RoadNetwork::Build(nodes, {});
  ASSERT_TRUE(net.ok());
  ShortestPathEngine engine(*net);
  EXPECT_FALSE(engine.PointToPoint(0, 1).reachable);
}

TEST(ShortestPathTest, SingleSourceDistances) {
  RoadNetwork net = TinyTriangle();
  ShortestPathEngine engine(net);
  auto d = engine.SingleSource(0);
  EXPECT_DOUBLE_EQ(d[0], 0.0);
  EXPECT_DOUBLE_EQ(d[1], 1.0);
  EXPECT_DOUBLE_EQ(d[2], 2.0);
}

TEST(ShortestPathTest, AStarMatchesDijkstraOnGrid) {
  RoadNetwork net = MakeGridNetwork(kNycBoundingBox, 12, 12, 7.0, 0.3, 11);
  ShortestPathEngine engine(net);
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    auto s = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    auto t = static_cast<NodeId>(rng.UniformInt(0, net.num_nodes() - 1));
    PathResult dj = engine.PointToPoint(s, t);
    PathResult as = engine.AStar(s, t);
    ASSERT_EQ(dj.reachable, as.reachable);
    if (dj.reachable) {
      EXPECT_NEAR(dj.cost_seconds, as.cost_seconds,
                  1e-6 * (1.0 + dj.cost_seconds));
    }
  }
}

TEST(ShortestPathTest, AStarExpandsFewerNodes) {
  RoadNetwork net = MakeGridNetwork(kNycBoundingBox, 24, 24, 7.0, 0.1, 21);
  ShortestPathEngine engine(net);
  // Opposite corners.
  NodeId s = 0;
  NodeId t = net.num_nodes() - 1;
  engine.PointToPoint(s, t);
  int64_t dijkstra_settled = engine.last_settled_count();
  engine.AStar(s, t);
  int64_t astar_settled = engine.last_settled_count();
  EXPECT_LT(astar_settled, dijkstra_settled);
}

TEST(ShortestPathTest, PathEdgesAreContiguous) {
  RoadNetwork net = MakeGridNetwork(kNycBoundingBox, 8, 8, 7.0, 0.2, 5);
  ShortestPathEngine engine(net);
  PathResult r = engine.AStar(0, net.num_nodes() - 1, /*want_path=*/true);
  ASSERT_TRUE(r.reachable);
  ASSERT_GE(r.path.size(), 2u);
  EXPECT_EQ(r.path.front(), 0);
  EXPECT_EQ(r.path.back(), net.num_nodes() - 1);
  // Each consecutive pair must be a real edge.
  for (size_t i = 0; i + 1 < r.path.size(); ++i) {
    bool found = false;
    for (int64_t e = net.out_begin(r.path[i]); e < net.out_end(r.path[i]);
         ++e) {
      if (net.target(e) == r.path[i + 1]) found = true;
    }
    EXPECT_TRUE(found) << "missing edge at step " << i;
  }
}

TEST(SnapIndexTest, MatchesLinearScan) {
  RoadNetwork net = MakeGridNetwork(kNycBoundingBox, 10, 10, 7.0, 0.2, 9);
  SnapIndex snap(net, kNycBoundingBox, 16, 16);
  Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    LatLon p{rng.Uniform(40.58, 40.92), rng.Uniform(-74.03, -73.77)};
    NodeId a = snap.Snap(p);
    NodeId b = net.NearestNodeLinear(p);
    // Ties can differ; compare distances instead of ids.
    EXPECT_NEAR(EquirectangularMeters(p, net.position(a)),
                EquirectangularMeters(p, net.position(b)), 1e-6);
  }
}

TEST(RoadNetworkCostModelTest, CostsArePositiveAndRoughlyMetric) {
  auto net = std::make_shared<RoadNetwork>(
      MakeGridNetwork(kNycBoundingBox, 16, 16, 7.0, 0.0, 1));
  RoadNetworkCostModel model(net, kNycBoundingBox, 7.0);
  LatLon a{40.65, -74.00}, b{40.85, -73.82};
  double t = model.TravelSeconds(a, b);
  EXPECT_GT(t, 0.0);
  // The network is an L1 grid at 7 m/s: cost is at least straight-line time
  // and at most ~2.2x of it (L1 detour + access legs).
  double straight = EquirectangularMeters(a, b) / 7.0;
  EXPECT_GE(t, straight * 0.95);
  EXPECT_LE(t, straight * 2.2);
}

// ExperimentRunner workers sharing one Simulation query one model from
// several threads; its reused search engine must give each caller the same
// answer it gives a lone caller (and TSan must see no race).
TEST(RoadNetworkCostModelTest, ConcurrentQueriesMatchSerialAnswers) {
  auto net = std::make_shared<RoadNetwork>(
      MakeGridNetwork(kNycBoundingBox, 16, 16, 7.0, 0.25, 5));
  RoadNetworkCostModel model(net, kNycBoundingBox, 7.0);
  Rng rng(6);
  std::vector<std::pair<LatLon, LatLon>> trips(400);
  for (auto& [a, b] : trips) {
    a = {rng.Uniform(40.58, 40.92), rng.Uniform(-74.03, -73.77)};
    b = {rng.Uniform(40.58, 40.92), rng.Uniform(-74.03, -73.77)};
  }
  std::vector<double> serial(trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    serial[i] = model.TravelSeconds(trips[i].first, trips[i].second);
  }
  std::vector<double> parallel(trips.size(), -1.0);
  ThreadPool pool(4);
  pool.ParallelFor(static_cast<int>(trips.size()), [&](int i) {
    parallel[i] = model.TravelSeconds(trips[i].first, trips[i].second);
  });
  for (size_t i = 0; i < trips.size(); ++i) {
    EXPECT_EQ(parallel[i], serial[i]) << "trip " << i;
  }
}

TEST(GridNetworkTest, NodeAndEdgeCounts) {
  RoadNetwork net = MakeGridNetwork(kNycBoundingBox, 5, 7, 7.0, 0.1, 2);
  EXPECT_EQ(net.num_nodes(), 35);
  // Bidirectional streets: 2 * (rows*(cols-1) + cols*(rows-1)).
  EXPECT_EQ(net.num_edges(), 2 * (5 * 6 + 7 * 4));
}

}  // namespace
}  // namespace mrvd
