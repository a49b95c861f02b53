#include "sim/driver_index.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace mrvd {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bounding box of the roster entries at the positions `bucket`
/// (non-empty).
BoundingBox BoxOf(std::span<const int> bucket,
                  const std::vector<AvailableDriver>& drivers) {
  const LatLon& first = drivers[static_cast<size_t>(bucket.front())].location;
  BoundingBox box{first.lon, first.lon, first.lat, first.lat};
  for (int j : bucket.subspan(1)) {
    const LatLon& p = drivers[static_cast<size_t>(j)].location;
    box.lon_min = std::min(box.lon_min, p.lon);
    box.lon_max = std::max(box.lon_max, p.lon);
    box.lat_min = std::min(box.lat_min, p.lat);
    box.lat_max = std::max(box.lat_max, p.lat);
  }
  return box;
}

}  // namespace

DriverIndex::DriverIndex(int num_regions)
    : start_(static_cast<size_t>(num_regions) + 1, 0),
      boxes_(static_cast<size_t>(num_regions)),
      lat_min_(kInf),
      lat_max_(-kInf),
      next_start_(start_.size(), 0) {}

void DriverIndex::Clear() {
  drivers_.clear();
  bucketed_.clear();
  std::fill(start_.begin(), start_.end(), 0);
  lat_min_ = kInf;
  lat_max_ = -kInf;
}

void DriverIndex::Patch(std::span<const int> removed,
                        std::span<const DriverInsert> inserted) {
  if (removed.empty() && inserted.empty()) return;

  // 1. Roster, in place. The edits cut the old roster into runs of
  //    unchanged entries, each moving by the inserts minus the removals
  //    before it. Runs moving left are moved first, front to back, then
  //    runs moving right, back to front, so no run overwrites one not yet
  //    moved; runs that stay put are not touched. moved_to records every
  //    old position's new one (-1: removed).
  const int old_size = static_cast<int>(drivers_.size());
  const int new_size = old_size + static_cast<int>(inserted.size()) -
                       static_cast<int>(removed.size());
  moved_to_.resize(drivers_.size());
  int* const moved_to = moved_to_.data();
  runs_.clear();
  added_.clear();
  touched_.clear();
  int from = 0;   // first old position not yet in a run or removed
  int shift = 0;  // inserts minus removals so far
  size_t r = 0;
  size_t i = 0;
  while (r < removed.size() || i < inserted.size()) {
    const int at =
        std::min(r < removed.size() ? removed[r] : old_size,
                 i < inserted.size() ? inserted[i].at : old_size);
    assert(at >= from && at <= old_size);
    if (from < at) runs_.push_back({from, at, shift});
    for (int p = from; p < at; ++p) moved_to[p] = p + shift;
    from = at;
    for (; i < inserted.size() && inserted[i].at == at; ++i) {
      const RegionId region = inserted[i].entry.region;
      assert(region != kInvalidRegion);
      added_.emplace_back(region, at + shift);
      touched_.push_back(region);
      ++shift;
    }
    if (r < removed.size() && removed[r] == at) {
      moved_to[at] = -1;
      touched_.push_back(drivers_[static_cast<size_t>(at)].region);
      from = at + 1;
      --shift;
      ++r;
    }
  }
  if (from < old_size) runs_.push_back({from, old_size, shift});
  for (int p = from; p < old_size; ++p) moved_to[p] = p + shift;

  if (new_size > old_size) drivers_.resize(static_cast<size_t>(new_size));
  AvailableDriver* const roster = drivers_.data();
  for (const Run& run : runs_) {
    if (run.shift < 0) {
      std::copy(roster + run.begin, roster + run.end,
                roster + run.begin + run.shift);
    }
  }
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    if (run->shift > 0) {
      std::copy_backward(roster + run->begin, roster + run->end,
                         roster + run->end + run->shift);
    }
  }
  for (size_t e = 0; e < inserted.size(); ++e) {
    roster[added_[e].second] = inserted[e].entry;
  }
  drivers_.resize(static_cast<size_t>(new_size));

  // 2. Buckets, boxes and latitude range in one pass over the regions:
  //    each bucket's surviving positions are remapped (remapping keeps
  //    them ascending); a region that lost or gained an entry also merges
  //    in its inserted positions and gets a new box.
  std::sort(added_.begin(), added_.end());  // by region, then position
  std::sort(touched_.begin(), touched_.end());
  touched_.erase(std::unique(touched_.begin(), touched_.end()),
                 touched_.end());
  next_bucketed_.resize(drivers_.size());
  int* const out = next_bucketed_.data();
  const int* const start = start_.data();
  const int* const bucketed = bucketed_.data();
  const std::pair<RegionId, int>* const added = added_.data();
  const size_t added_count = added_.size();
  int n = 0;
  size_t a = 0;
  size_t t = 0;
  double lat_min = kInf;
  double lat_max = -kInf;
  const size_t regions = boxes_.size();
  for (size_t k = 0; k < regions; ++k) {
    const auto region = static_cast<RegionId>(k);
    const int begin = n;
    next_start_[k] = begin;
    const int old_begin = start[k];
    const int old_end = start[k + 1];
    const bool touched = t < touched_.size() && touched_[t] == region;
    if (!touched) {
      // Nothing removed or added here: only the positions move.
      const int* const in = bucketed + old_begin;
      const int len = old_end - old_begin;
      for (int q = 0; q < len; ++q) out[n + q] = moved_to[in[q]];
      n += len;
    } else {
      ++t;
      for (int p = old_begin; p < old_end; ++p) {
        const int moved = moved_to[bucketed[p]];
        if (moved < 0) continue;
        for (; a < added_count && added[a].first == region &&
               added[a].second < moved;
             ++a) {
          out[n++] = added[a].second;
        }
        out[n++] = moved;
      }
      for (; a < added_count && added[a].first == region; ++a) {
        out[n++] = added[a].second;
      }
    }
    if (n == begin) continue;
    BoundingBox& box = boxes_[k];
    if (touched) {
      box = BoxOf(std::span<const int>(out + begin, out + n), drivers_);
    }
    lat_min = std::min(lat_min, box.lat_min);
    lat_max = std::max(lat_max, box.lat_max);
  }
  assert(n == static_cast<int>(drivers_.size()));
  next_start_[regions] = n;
  start_.swap(next_start_);
  bucketed_.swap(next_bucketed_);
  lat_min_ = lat_min;
  lat_max_ = lat_max;
}

}  // namespace mrvd
