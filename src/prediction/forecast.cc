#include "prediction/forecast.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "workload/types.h"

namespace mrvd {

namespace {

// Calls fn(slot, seconds) for each slot that [t_seconds, t_seconds +
// window_seconds) overlaps, ascending, with the window's seconds inside
// that slot. The window is truncated to the day.
template <typename Fn>
void ForEachSlotPiece(int slots_per_day, double t_seconds,
                      double window_seconds, Fn&& fn) {
  const double slot_secs = kSecondsPerDay / slots_per_day;
  double t0 = std::max(0.0, t_seconds);
  double t1 = std::min(kSecondsPerDay, t_seconds + window_seconds);
  int first_slot = static_cast<int>(t0 / slot_secs);
  int last_slot = static_cast<int>((t1 - 1e-9) / slot_secs);
  for (int s = first_slot; s <= last_slot && s < slots_per_day; ++s) {
    double lo = std::max(t0, s * slot_secs);
    double hi = std::min(t1, (s + 1) * slot_secs);
    if (hi <= lo) continue;
    fn(s, hi - lo);
  }
}

}  // namespace

StatusOr<DemandForecast> DemandForecast::Build(
    const DemandPredictor& predictor, const DemandHistory& observed,
    int eval_day) {
  if (eval_day < 0 || eval_day >= observed.num_days()) {
    return Status::OutOfRange("eval_day outside observed tensor");
  }
  DemandForecast fc(observed.slots_per_day(), observed.num_regions());
  fc.predicted_.resize(
      static_cast<size_t>(fc.slots_per_day_) * fc.num_regions_);
  for (int slot = 0; slot < fc.slots_per_day_; ++slot) {
    int step = eval_day * fc.slots_per_day_ + slot;
    for (int r = 0; r < fc.num_regions_; ++r) {
      fc.predicted_[static_cast<size_t>(slot) * fc.num_regions_ + r] =
          std::max(0.0, predictor.PredictStep(observed, step, r));
    }
  }
  return fc;
}

double DemandForecast::WindowCount(double t_seconds, double window_seconds,
                                   int region) const {
  const double slot_secs = kSecondsPerDay / slots_per_day_;
  double total = 0.0;
  ForEachSlotPiece(slots_per_day_, t_seconds, window_seconds,
                   [&](int s, double seconds) {
                     total += SlotCount(s, region) * seconds / slot_secs;
                   });
  return total;
}

void DemandForecast::WindowCounts(double t_seconds, double window_seconds,
                                  std::span<double> out) const {
  assert(static_cast<int>(out.size()) == num_regions_);
  const double slot_secs = kSecondsPerDay / slots_per_day_;
  std::fill(out.begin(), out.end(), 0.0);
  // Slots outside, regions inside: each out[k] still sums its slots in
  // ascending order with WindowCount's expression, so the bits match.
  ForEachSlotPiece(slots_per_day_, t_seconds, window_seconds,
                   [&](int s, double seconds) {
                     const double* row =
                         predicted_.data() +
                         static_cast<size_t>(s) * num_regions_;
                     for (size_t k = 0; k < out.size(); ++k) {
                       out[k] += row[k] * seconds / slot_secs;
                     }
                   });
}

}  // namespace mrvd
