// Road-network graph G = <V, E> (§2): directed, weighted by travel cost in
// seconds, stored in CSR form for cache-friendly shortest-path queries.
#pragma once

#include <cstdint>
#include <vector>

#include "geo/point.h"
#include "util/status.h"

namespace mrvd {

using NodeId = int32_t;
inline constexpr NodeId kInvalidNode = -1;

/// One directed edge during graph construction.
struct EdgeInput {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  double cost_seconds = 0.0;
};

/// Immutable CSR road network. Nodes carry geographic positions so A* can use
/// a great-circle admissible heuristic and so simulator locations can be
/// snapped to the network.
class RoadNetwork {
 public:
  /// Builds from node positions and a directed edge list. Edge endpoints must
  /// be valid node ids and costs non-negative.
  static StatusOr<RoadNetwork> Build(std::vector<LatLon> nodes,
                                     const std::vector<EdgeInput>& edges);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int64_t num_edges() const { return static_cast<int64_t>(targets_.size()); }

  const LatLon& position(NodeId n) const {
    return nodes_[static_cast<size_t>(n)];
  }

  /// Out-edge span of node n: indices [offsets_[n], offsets_[n+1]) into
  /// targets()/costs().
  int64_t out_begin(NodeId n) const { return offsets_[static_cast<size_t>(n)]; }
  int64_t out_end(NodeId n) const {
    return offsets_[static_cast<size_t>(n) + 1];
  }
  NodeId target(int64_t e) const { return targets_[static_cast<size_t>(e)]; }
  double cost(int64_t e) const { return costs_[static_cast<size_t>(e)]; }

  /// Nearest node to a point by straight-line distance. O(num_nodes) scan;
  /// SnapIndex (below) provides the indexed version used in hot paths.
  NodeId NearestNodeLinear(const LatLon& p) const;

  /// Maximum speed implied by any edge (used by A*'s admissible heuristic:
  /// h(n) = straight_line / max_speed). Computed once at build; infinite
  /// if a zero-cost edge joins two distinct positions.
  double max_speed_mps() const { return max_speed_mps_; }

 private:
  RoadNetwork() = default;

  std::vector<LatLon> nodes_;
  std::vector<int64_t> offsets_;
  std::vector<NodeId> targets_;
  std::vector<double> costs_;
  double max_speed_mps_ = 1.0;
};

/// Grid-based spatial index for snapping arbitrary lat/lon points to their
/// nearest network node in ~O(1).
class SnapIndex {
 public:
  SnapIndex(const RoadNetwork& net, const BoundingBox& box, int rows, int cols);

  /// Nearest node to `p` (searches outward ring by ring; exact).
  NodeId Snap(const LatLon& p) const;

 private:
  const RoadNetwork& net_;
  BoundingBox box_;
  int rows_, cols_;
  std::vector<std::vector<NodeId>> cells_;

  int CellOf(const LatLon& p) const;
};

/// Synthetic Manhattan-style grid network over `box`: rows x cols nodes,
/// bidirectional street edges between 4-neighbours. `speed_mps` sets edge
/// costs from geographic edge lengths. Streets get per-edge random speed
/// perturbation in [1-jitter, 1+jitter] from `seed` to avoid degenerate ties.
RoadNetwork MakeGridNetwork(const BoundingBox& box, int rows, int cols,
                            double speed_mps = 7.0, double jitter = 0.2,
                            uint64_t seed = 42);

}  // namespace mrvd
