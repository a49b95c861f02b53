// The batch's dispatchable drivers and their region index, kept across
// batches. Between two batches of Algorithm 1 only the drivers just
// assigned, the drivers whose trips ended and the drivers that changed
// shift differ, so the index is patched from that short list instead of
// being rebuilt from the whole fleet every Δ.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "geo/point.h"
#include "workload/types.h"

namespace mrvd {

/// An available driver in the current batch.
struct AvailableDriver {
  DriverId driver_id = -1;
  LatLon location;
  RegionId region = kInvalidRegion;
  double available_since = 0.0;
};

/// One entry for DriverIndex::Patch to insert: `entry` lands before the
/// entry at roster position `at` of the unpatched roster (at == size()
/// appends).
struct DriverInsert {
  int at = 0;
  AvailableDriver entry;
};

/// A driver roster plus what the Def.-3 candidate search prunes with: the
/// roster positions bucketed by region in one flat CSR array (ascending
/// within a region), each region's driver bounding box (a GPS fix outside
/// the city box is clamped into a border cell but keeps its real
/// coordinates here), and the roster's latitude range.
///
/// The roster is edited only by Patch, which keeps every part equal to a
/// rebuild from the patched roster.
class DriverIndex {
 public:
  explicit DriverIndex(int num_regions);

  const std::vector<AvailableDriver>& drivers() const { return drivers_; }

  /// Roster positions of the drivers in `region`, ascending.
  std::span<const int> DriversIn(RegionId region) const {
    const auto k = static_cast<size_t>(region);
    return {bucketed_.data() + start_[k], bucketed_.data() + start_[k + 1]};
  }

  /// Bounding box of `region`'s drivers; meaningless for an empty region.
  const BoundingBox& DriverBox(RegionId region) const {
    return boxes_[static_cast<size_t>(region)];
  }

  /// Lowest and highest driver latitude (+inf / -inf when empty).
  double lat_min() const { return lat_min_; }
  double lat_max() const { return lat_max_; }

  /// Removes every entry.
  void Clear();

  /// Removes the entries at roster positions `removed` (ascending) and
  /// inserts `inserted` (ascending `at`; equal `at`s keep their order),
  /// all positions referring to the roster before the patch. The roster is
  /// rebuilt by copying the unchanged runs between edits, the buckets by
  /// remapping each old position to its new one, and only the regions that
  /// lost or gained an entry get a new box. Does nothing when both lists
  /// are empty.
  void Patch(std::span<const int> removed,
             std::span<const DriverInsert> inserted);

 private:
  /// BatchContext caches raw pointers into the arrays when it binds.
  friend class BatchContext;

  std::vector<AvailableDriver> drivers_;
  /// Region k's entries are bucketed_[start_[k] .. start_[k + 1]);
  /// num_regions + 1 offsets.
  std::vector<int> start_;
  std::vector<int> bucketed_;
  std::vector<BoundingBox> boxes_;  ///< by region; stale when empty
  double lat_min_;
  double lat_max_;

  /// Old roster positions [begin, end) that Patch moves by `shift`.
  struct Run {
    int begin;
    int end;
    int shift;
  };

  // Patch's buffers, reused: the runs of unchanged entries, the next
  // buckets (swapped in), each old roster position's new one (-1 when
  // removed), the inserted entries' (region, new position), and the
  // regions that lost or gained an entry.
  std::vector<Run> runs_;
  std::vector<int> next_start_;
  std::vector<int> next_bucketed_;
  std::vector<int> moved_to_;
  std::vector<std::pair<RegionId, int>> added_;
  std::vector<RegionId> touched_;
};

}  // namespace mrvd
