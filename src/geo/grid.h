// Uniform grid partitioning of the city into regions a_1..a_n (§2).
// The paper divides NYC into 16x16 grids (§6.2); region ids are row-major.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace mrvd {

/// Region identifier; row-major cell index in [0, rows*cols).
using RegionId = int32_t;
inline constexpr RegionId kInvalidRegion = -1;

/// Uniform rows x cols partition of a bounding box into regions.
class Grid {
 public:
  Grid(const BoundingBox& box, int rows, int cols);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int num_regions() const { return rows_ * cols_; }
  const BoundingBox& box() const { return box_; }

  /// Region containing `p`; points outside the box are clamped to the nearest
  /// border cell (the TLC data contains a small number of off-box GPS fixes).
  RegionId RegionOf(const LatLon& p) const;

  /// Row/col of a region id.
  int RowOf(RegionId r) const { return r / cols_; }
  int ColOf(RegionId r) const { return r % cols_; }
  RegionId RegionAt(int row, int col) const { return row * cols_ + col; }

  /// Geographic center of a region.
  LatLon CenterOf(RegionId r) const;

  /// Bounding box of a region cell.
  BoundingBox CellBox(RegionId r) const;

  /// The (up to 8) adjacent regions of `r`.
  std::vector<RegionId> Neighbors(RegionId r) const;

  /// Calls `fn(region)` for every region at Chebyshev distance exactly
  /// `ring` from `r` (ring 0 is {r} itself), without allocating. The order
  /// is the canonical ring order: the top and bottom rows column by column
  /// (top before bottom in each column), then the left and right columns
  /// row by row (left before right).
  template <typename Fn>
  void ForEachInRing(RegionId r, int ring, Fn&& fn) const;

  /// The regions of ForEachInRing(r, ring), in the same order.
  std::vector<RegionId> Ring(RegionId r, int ring) const;

  /// Chebyshev ring distance between two regions.
  int RingDistance(RegionId a, RegionId b) const;

  /// Approximate center-to-center distance in meters between two regions.
  double CenterDistanceMeters(RegionId a, RegionId b) const;

  /// Cell extent in degrees (every cell has the same extent).
  double cell_width_degrees() const { return cell_w_deg_; }
  double cell_height_degrees() const { return cell_h_deg_; }

 private:
  BoundingBox box_;
  int rows_, cols_;
  double cell_w_deg_, cell_h_deg_;
};

template <typename Fn>
void Grid::ForEachInRing(RegionId r, int ring, Fn&& fn) const {
  if (ring == 0) {
    fn(r);
    return;
  }
  const int row = RowOf(r), col = ColOf(r);
  const int r0 = row - ring, r1 = row + ring;
  const int c0 = col - ring, c1 = col + ring;
  for (int c = std::max(c0, 0); c <= std::min(c1, cols_ - 1); ++c) {
    if (r0 >= 0) fn(RegionAt(r0, c));
    if (r1 < rows_) fn(RegionAt(r1, c));
  }
  for (int rr = std::max(r0 + 1, 0); rr <= std::min(r1 - 1, rows_ - 1);
       ++rr) {
    if (c0 >= 0) fn(RegionAt(rr, c0));
    if (c1 < cols_) fn(RegionAt(rr, c1));
  }
}

/// The paper's default spatial configuration: 16x16 grid over NYC.
Grid MakeNycGrid16x16();

}  // namespace mrvd
