#include "geo/region_partitioner.h"

#include <algorithm>
#include <deque>

namespace mrvd {

RegionPartitioner RegionPartitioner::RowBands(const Grid& grid,
                                              int num_shards) {
  const int rows = grid.rows();
  const int k = std::clamp(num_shards, 1, rows);
  RegionPartitioner out;
  out.shard_of_.assign(static_cast<size_t>(grid.num_regions()), 0);
  out.shard_regions_.resize(static_cast<size_t>(k));
  // Row r joins band floor(r·k / rows): band sizes differ by at most one
  // row, and k <= rows leaves no band empty.
  for (int r = 0; r < rows; ++r) {
    const int band = r * k / rows;
    for (int c = 0; c < grid.cols(); ++c) {
      RegionId reg = grid.RegionAt(r, c);
      out.shard_of_[static_cast<size_t>(reg)] = band;
      out.shard_regions_[static_cast<size_t>(band)].push_back(reg);
    }
  }
  return out;
}

bool RegionPartitioner::ShardsConnected(const Grid& grid) const {
  for (const auto& regions : shard_regions_) {
    if (regions.empty()) return false;
    std::vector<char> in_shard(static_cast<size_t>(grid.num_regions()), 0);
    for (RegionId r : regions) in_shard[static_cast<size_t>(r)] = 1;
    std::vector<char> seen(static_cast<size_t>(grid.num_regions()), 0);
    std::deque<RegionId> frontier{regions.front()};
    seen[static_cast<size_t>(regions.front())] = 1;
    size_t reached = 1;
    while (!frontier.empty()) {
      RegionId cur = frontier.front();
      frontier.pop_front();
      for (RegionId nb : grid.Neighbors(cur)) {
        if (in_shard[static_cast<size_t>(nb)] &&
            !seen[static_cast<size_t>(nb)]) {
          seen[static_cast<size_t>(nb)] = 1;
          ++reached;
          frontier.push_back(nb);
        }
      }
    }
    if (reached != regions.size()) return false;
  }
  return true;
}

}  // namespace mrvd
