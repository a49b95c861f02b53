// Shortest-path queries over the road network: Dijkstra (single-source and
// point-to-point with early exit), A* with the great-circle admissible
// heuristic, and a travel-cost model adapter for the simulator.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "geo/travel.h"
#include "roadnet/graph.h"
#include "util/mutex.h"

namespace mrvd {

/// Result of a point-to-point query.
struct PathResult {
  bool reachable = false;
  double cost_seconds = 0.0;
  /// Node sequence from source to target (inclusive); empty if !reachable or
  /// path reconstruction was not requested.
  std::vector<NodeId> path;
};

/// Reusable shortest-path engine. Not thread-safe (owns scratch buffers);
/// create one per thread.
class ShortestPathEngine {
 public:
  explicit ShortestPathEngine(const RoadNetwork& net);

  /// Single-source Dijkstra; returns cost to every node (infinity if
  /// unreachable).
  std::vector<double> SingleSource(NodeId source);

  /// Point-to-point Dijkstra with early exit at `target`.
  PathResult PointToPoint(NodeId source, NodeId target,
                          bool want_path = false);

  /// Point-to-point A* using straight-line/max-speed heuristic (admissible,
  /// consistent); typically expands far fewer nodes than Dijkstra.
  PathResult AStar(NodeId source, NodeId target, bool want_path = false);

  /// Number of nodes popped in the last point-to-point query (for tests and
  /// the ablation bench comparing Dijkstra vs A*).
  int64_t last_settled_count() const { return last_settled_; }

 private:
  struct QueueEntry {
    double priority;
    NodeId node;
    bool operator>(const QueueEntry& o) const { return priority > o.priority; }
  };

  PathResult Search(NodeId source, NodeId target, bool use_heuristic,
                    bool want_path);

  const RoadNetwork& net_;
  std::vector<double> dist_;
  std::vector<NodeId> parent_;
  std::vector<int32_t> epoch_;
  int32_t current_epoch_ = 0;
  int64_t last_settled_ = 0;
};

/// TravelCostModel backed by the road network: snaps endpoints to nodes and
/// runs A*. Falls back to straight-line cost if either endpoint fails to
/// snap (cannot happen for in-box points). Caching: none — NYC-scale grids
/// answer in microseconds; the simulator's default remains StraightLine for
/// full-day sweeps, with this model exercised in examples/tests. Safe for
/// concurrent callers: queries serialise on one reused search engine.
class RoadNetworkCostModel : public TravelCostModel {
 public:
  RoadNetworkCostModel(std::shared_ptr<const RoadNetwork> net,
                       const BoundingBox& box, double fallback_speed_mps = 7.0);

  double TravelSeconds(const LatLon& from, const LatLon& to) const override;
  double SpeedMps() const override { return fallback_speed_mps_; }

  /// Streets may be faster than the fallback speed (MakeGridNetwork's
  /// jitter), so the crow-fly bound is the faster of the fallback speed (the
  /// access legs) and the network's fastest edge, widened by
  /// kCrowFlySlack: a trip's legs and edges sum their own equirectangular
  /// lengths, and that metric can break the triangle inequality by about
  /// 1e-6 relative at city scale.
  double MaxSpeedMps() const override {
    return std::max(fallback_speed_mps_, net_->max_speed_mps()) *
           kCrowFlySlack;
  }

 private:
  static constexpr double kCrowFlySlack = 1.0 + 1e-4;

  std::shared_ptr<const RoadNetwork> net_;
  SnapIndex snap_;
  // The model is logically const but reuses the engine's scratch buffers
  // between queries. Sharded candidate generation and ExperimentRunner
  // workers sharing one Simulation call it from several threads at once.
  mutable Mutex mu_;
  mutable ShortestPathEngine engine_ MRVD_GUARDED_BY(mu_);
  double fallback_speed_mps_;
};

}  // namespace mrvd
