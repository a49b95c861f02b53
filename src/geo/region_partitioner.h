// Groups the grid's regions a_1..a_n into K connected shards for the
// region-sharded dispatch pipeline. Shards are contiguous row bands of the
// grid (each band is connected under 8-neighbour adjacency, and the split
// respects the row-major region numbering).
#pragma once

#include <vector>

#include "geo/grid.h"

namespace mrvd {

class RegionPartitioner {
 public:
  /// Row-band split: bands of near-equal row counts, earlier bands taking
  /// the extra rows. `num_shards` is clamped to [1, grid.rows()].
  static RegionPartitioner RowBands(const Grid& grid, int num_shards);

  int num_shards() const { return static_cast<int>(shard_regions_.size()); }

  /// Regions of the grid this partitioner was built for. Lets consumers
  /// (BatchContext::EnsureShardIndex, the engine's BatchBuilder) assert the
  /// partitioner matches their grid before indexing by region id.
  int num_regions() const { return static_cast<int>(shard_of_.size()); }

  /// Shard owning region `r`.
  int shard_of(RegionId r) const {
    return shard_of_[static_cast<size_t>(r)];
  }

  bool SameShard(RegionId a, RegionId b) const {
    return shard_of(a) == shard_of(b);
  }

  /// Regions of each shard, ascending region id within a shard.
  const std::vector<std::vector<RegionId>>& shard_regions() const {
    return shard_regions_;
  }

  /// True if every shard is connected under 8-neighbour adjacency
  /// (row bands are by construction; exposed for tests).
  bool ShardsConnected(const Grid& grid) const;

 private:
  RegionPartitioner() = default;

  std::vector<int> shard_of_;  ///< region id -> shard index
  std::vector<std::vector<RegionId>> shard_regions_;
};

}  // namespace mrvd
