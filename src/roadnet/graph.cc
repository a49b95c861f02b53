#include "roadnet/graph.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "util/rng.h"
#include "util/strings.h"

namespace mrvd {

StatusOr<RoadNetwork> RoadNetwork::Build(std::vector<LatLon> nodes,
                                         const std::vector<EdgeInput>& edges) {
  const auto n = static_cast<NodeId>(nodes.size());
  for (const auto& e : edges) {
    if (e.from < 0 || e.from >= n || e.to < 0 || e.to >= n) {
      return Status::InvalidArgument(
          StrFormat("edge endpoint out of range: %d -> %d (n=%d)", e.from,
                    e.to, n));
    }
    if (!(e.cost_seconds >= 0.0) || !std::isfinite(e.cost_seconds)) {
      return Status::InvalidArgument("edge cost must be finite and >= 0");
    }
  }

  RoadNetwork net;
  net.nodes_ = std::move(nodes);
  net.offsets_.assign(static_cast<size_t>(n) + 1, 0);
  for (const auto& e : edges) ++net.offsets_[static_cast<size_t>(e.from) + 1];
  for (size_t i = 1; i < net.offsets_.size(); ++i)
    net.offsets_[i] += net.offsets_[i - 1];

  net.targets_.resize(edges.size());
  net.costs_.resize(edges.size());
  std::vector<int64_t> cursor(net.offsets_.begin(), net.offsets_.end() - 1);
  double max_speed = 1e-9;
  for (const auto& e : edges) {
    int64_t slot = cursor[static_cast<size_t>(e.from)]++;
    net.targets_[static_cast<size_t>(slot)] = e.to;
    net.costs_[static_cast<size_t>(slot)] = e.cost_seconds;
    double meters = EquirectangularMeters(net.nodes_[static_cast<size_t>(e.from)],
                                          net.nodes_[static_cast<size_t>(e.to)]);
    if (e.cost_seconds > 0.0) {
      max_speed = std::max(max_speed, meters / e.cost_seconds);
    } else if (meters > 0.0) {
      max_speed = std::numeric_limits<double>::infinity();
    }
  }
  net.max_speed_mps_ = max_speed;
  return net;
}

NodeId RoadNetwork::NearestNodeLinear(const LatLon& p) const {
  NodeId best = kInvalidNode;
  double best_d = std::numeric_limits<double>::infinity();
  for (NodeId i = 0; i < num_nodes(); ++i) {
    double d = EquirectangularMeters(p, nodes_[static_cast<size_t>(i)]);
    if (d < best_d) {
      best_d = d;
      best = i;
    }
  }
  return best;
}

SnapIndex::SnapIndex(const RoadNetwork& net, const BoundingBox& box, int rows,
                     int cols)
    : net_(net), box_(box), rows_(rows), cols_(cols) {
  cells_.resize(static_cast<size_t>(rows) * cols);
  for (NodeId i = 0; i < net.num_nodes(); ++i) {
    cells_[static_cast<size_t>(CellOf(net.position(i)))].push_back(i);
  }
}

int SnapIndex::CellOf(const LatLon& p) const {
  int col = static_cast<int>((p.lon - box_.lon_min) / box_.WidthDegrees() *
                             cols_);
  int row = static_cast<int>((p.lat - box_.lat_min) / box_.HeightDegrees() *
                             rows_);
  col = std::clamp(col, 0, cols_ - 1);
  row = std::clamp(row, 0, rows_ - 1);
  return row * cols_ + col;
}

NodeId SnapIndex::Snap(const LatLon& p) const {
  int cell = CellOf(p);
  int row = cell / cols_, col = cell % cols_;
  NodeId best = kInvalidNode;
  double best_d = std::numeric_limits<double>::infinity();
  // Expand rings until a ring adds nothing closer than the best found and at
  // least one candidate exists. Cell sizes are uniform, so once we have a
  // candidate we only need one extra ring to be exact.
  int max_ring = std::max(rows_, cols_);
  int found_ring = -1;
  for (int ring = 0; ring <= max_ring; ++ring) {
    if (found_ring >= 0 && ring > found_ring + 1) break;
    bool any_cell = false;
    for (int dr = -ring; dr <= ring; ++dr) {
      for (int dc = -ring; dc <= ring; ++dc) {
        if (std::max(std::abs(dr), std::abs(dc)) != ring) continue;
        int rr = row + dr, cc = col + dc;
        if (rr < 0 || rr >= rows_ || cc < 0 || cc >= cols_) continue;
        any_cell = true;
        for (NodeId nid : cells_[static_cast<size_t>(rr * cols_ + cc)]) {
          double d = EquirectangularMeters(p, net_.position(nid));
          if (d < best_d) {
            best_d = d;
            best = nid;
            if (found_ring < 0) found_ring = ring;
          }
        }
        if (best != kInvalidNode && found_ring < 0) found_ring = ring;
      }
    }
    if (!any_cell && ring > 0 && best != kInvalidNode) break;
  }
  return best;
}

RoadNetwork MakeGridNetwork(const BoundingBox& box, int rows, int cols,
                            double speed_mps, double jitter, uint64_t seed) {
  assert(rows >= 2 && cols >= 2);
  std::vector<LatLon> nodes;
  nodes.reserve(static_cast<size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      nodes.push_back(
          {box.lat_min + box.HeightDegrees() * r / (rows - 1),
           box.lon_min + box.WidthDegrees() * c / (cols - 1)});
    }
  }
  auto id = [cols](int r, int c) { return static_cast<NodeId>(r * cols + c); };

  Rng rng(seed);
  std::vector<EdgeInput> edges;
  auto add_street = [&](NodeId a, NodeId b) {
    double meters = EquirectangularMeters(nodes[static_cast<size_t>(a)],
                                          nodes[static_cast<size_t>(b)]);
    double factor = 1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
    double secs = meters / (speed_mps / factor);
    edges.push_back({a, b, secs});
    edges.push_back({b, a, secs});
  };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) add_street(id(r, c), id(r, c + 1));
      if (r + 1 < rows) add_street(id(r, c), id(r + 1, c));
    }
  }
  auto net = RoadNetwork::Build(std::move(nodes), edges);
  assert(net.ok());
  return std::move(net).value();
}

}  // namespace mrvd
