#include "geo/grid.h"

#include <algorithm>
#include <cassert>

namespace mrvd {

Grid::Grid(const BoundingBox& box, int rows, int cols)
    : box_(box),
      rows_(rows),
      cols_(cols),
      cell_w_deg_(box.WidthDegrees() / cols),
      cell_h_deg_(box.HeightDegrees() / rows) {
  assert(rows > 0 && cols > 0);
}

RegionId Grid::RegionOf(const LatLon& p) const {
  int col = static_cast<int>((p.lon - box_.lon_min) / cell_w_deg_);
  int row = static_cast<int>((p.lat - box_.lat_min) / cell_h_deg_);
  col = std::clamp(col, 0, cols_ - 1);
  row = std::clamp(row, 0, rows_ - 1);
  return RegionAt(row, col);
}

LatLon Grid::CenterOf(RegionId r) const {
  int row = RowOf(r), col = ColOf(r);
  return {box_.lat_min + (row + 0.5) * cell_h_deg_,
          box_.lon_min + (col + 0.5) * cell_w_deg_};
}

BoundingBox Grid::CellBox(RegionId r) const {
  int row = RowOf(r), col = ColOf(r);
  return {box_.lon_min + col * cell_w_deg_,
          box_.lon_min + (col + 1) * cell_w_deg_,
          box_.lat_min + row * cell_h_deg_,
          box_.lat_min + (row + 1) * cell_h_deg_};
}

std::vector<RegionId> Grid::Neighbors(RegionId r) const {
  return Ring(r, 1);
}

std::vector<RegionId> Grid::Ring(RegionId r, int ring) const {
  assert(r >= 0 && r < num_regions());
  std::vector<RegionId> out;
  ForEachInRing(r, ring, [&out](RegionId reg) { out.push_back(reg); });
  return out;
}

int Grid::RingDistance(RegionId a, RegionId b) const {
  return std::max(std::abs(RowOf(a) - RowOf(b)), std::abs(ColOf(a) - ColOf(b)));
}

double Grid::CenterDistanceMeters(RegionId a, RegionId b) const {
  return EquirectangularMeters(CenterOf(a), CenterOf(b));
}

Grid MakeNycGrid16x16() { return Grid(kNycBoundingBox, 16, 16); }

}  // namespace mrvd
