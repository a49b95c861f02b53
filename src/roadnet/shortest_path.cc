#include "roadnet/shortest_path.h"

#include <algorithm>
#include <limits>
#include <queue>

namespace mrvd {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

ShortestPathEngine::ShortestPathEngine(const RoadNetwork& net) : net_(net) {
  auto n = static_cast<size_t>(net.num_nodes());
  dist_.assign(n, kInf);
  parent_.assign(n, kInvalidNode);
  epoch_.assign(n, 0);
}

std::vector<double> ShortestPathEngine::SingleSource(NodeId source) {
  PathResult ignored = Search(source, kInvalidNode, /*use_heuristic=*/false,
                              /*want_path=*/false);
  (void)ignored;
  std::vector<double> out(static_cast<size_t>(net_.num_nodes()), kInf);
  for (size_t i = 0; i < out.size(); ++i) {
    if (epoch_[i] == current_epoch_) out[i] = dist_[i];
  }
  return out;
}

PathResult ShortestPathEngine::PointToPoint(NodeId source, NodeId target,
                                            bool want_path) {
  return Search(source, target, /*use_heuristic=*/false, want_path);
}

PathResult ShortestPathEngine::AStar(NodeId source, NodeId target,
                                     bool want_path) {
  return Search(source, target, /*use_heuristic=*/true, want_path);
}

PathResult ShortestPathEngine::Search(NodeId source, NodeId target,
                                      bool use_heuristic, bool want_path) {
  ++current_epoch_;
  last_settled_ = 0;

  auto touch = [&](NodeId n) {
    auto i = static_cast<size_t>(n);
    if (epoch_[i] != current_epoch_) {
      epoch_[i] = current_epoch_;
      dist_[i] = kInf;
      parent_[i] = kInvalidNode;
    }
  };

  const bool has_target = target != kInvalidNode;
  const double inv_speed =
      use_heuristic && has_target ? 1.0 / net_.max_speed_mps() : 0.0;
  auto h = [&](NodeId n) -> double {
    if (!use_heuristic || !has_target) return 0.0;
    return EquirectangularMeters(net_.position(n), net_.position(target)) *
           inv_speed;
  };

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      pq;
  touch(source);
  dist_[static_cast<size_t>(source)] = 0.0;
  pq.push({h(source), source});

  while (!pq.empty()) {
    auto [prio, u] = pq.top();
    pq.pop();
    auto ui = static_cast<size_t>(u);
    // Lazy-deletion check: a stale entry's priority exceeds the settled g+h.
    if (prio > dist_[ui] + h(u) + 1e-12) continue;
    ++last_settled_;
    if (has_target && u == target) break;
    for (int64_t e = net_.out_begin(u); e < net_.out_end(u); ++e) {
      NodeId v = net_.target(e);
      touch(v);
      double nd = dist_[ui] + net_.cost(e);
      auto vi = static_cast<size_t>(v);
      if (nd < dist_[vi]) {
        dist_[vi] = nd;
        parent_[vi] = u;
        pq.push({nd + h(v), v});
      }
    }
  }

  PathResult result;
  if (!has_target) return result;
  auto ti = static_cast<size_t>(target);
  if (epoch_[ti] != current_epoch_ || dist_[ti] == kInf) return result;
  result.reachable = true;
  result.cost_seconds = dist_[ti];
  if (want_path) {
    for (NodeId cur = target; cur != kInvalidNode;
         cur = parent_[static_cast<size_t>(cur)]) {
      result.path.push_back(cur);
    }
    std::reverse(result.path.begin(), result.path.end());
  }
  return result;
}

RoadNetworkCostModel::RoadNetworkCostModel(
    std::shared_ptr<const RoadNetwork> net, const BoundingBox& box,
    double fallback_speed_mps)
    : net_(std::move(net)),
      snap_(*net_, box, /*rows=*/32, /*cols=*/32),
      engine_(*net_),
      fallback_speed_mps_(fallback_speed_mps) {}

double RoadNetworkCostModel::TravelSeconds(const LatLon& from,
                                           const LatLon& to) const {
  NodeId s = snap_.Snap(from);
  NodeId t = snap_.Snap(to);
  if (s == kInvalidNode || t == kInvalidNode) {
    return EquirectangularMeters(from, to) / fallback_speed_mps_;
  }
  PathResult r;
  {
    MutexLock lock(mu_);
    r = engine_.AStar(s, t);
  }
  if (!r.reachable) {
    return EquirectangularMeters(from, to) / fallback_speed_mps_;
  }
  // Access legs: walk-on/off the network at fallback speed.
  double access = (EquirectangularMeters(from, net_->position(s)) +
                   EquirectangularMeters(to, net_->position(t))) /
                  fallback_speed_mps_;
  return r.cost_seconds + access;
}

}  // namespace mrvd
