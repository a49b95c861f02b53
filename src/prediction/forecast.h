// Bridges offline predictors to the online dispatcher: per-region expected
// order counts over an arbitrary [t, t + t_c) window of the evaluation day.
//
// The forecast is materialised per slot once (predictions depend only on the
// slot, not the batch timestamp) and windows spanning slot boundaries sum
// fractional slot contributions.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "prediction/predictor.h"

namespace mrvd {

/// Per-slot predicted counts for one evaluation day.
class DemandForecast {
 public:
  /// Builds the forecast for day `eval_day` of `observed` (a tensor whose
  /// trailing day(s) are the evaluation data; predictors only look at
  /// earlier steps, the oracle reads the day itself).
  static StatusOr<DemandForecast> Build(const DemandPredictor& predictor,
                                        const DemandHistory& observed,
                                        int eval_day);

  int slots_per_day() const { return slots_per_day_; }
  int num_regions() const { return num_regions_; }

  /// Predicted count for region in slot (0..slots_per_day-1).
  double SlotCount(int slot, int region) const {
    return predicted_[static_cast<size_t>(slot) * num_regions_ + region];
  }

  /// Expected number of orders in `region` arriving during
  /// [t_seconds, t_seconds + window_seconds) of the evaluation day
  /// (piecewise-constant per slot; windows past midnight are truncated).
  double WindowCount(double t_seconds, double window_seconds,
                     int region) const;

  /// WindowCount for every region at once: out[k] (out.size() ==
  /// num_regions()) gets exactly WindowCount(t_seconds, window_seconds, k).
  void WindowCounts(double t_seconds, double window_seconds,
                    std::span<double> out) const;

 private:
  DemandForecast(int slots_per_day, int num_regions)
      : slots_per_day_(slots_per_day), num_regions_(num_regions) {}

  int slots_per_day_;
  int num_regions_;
  std::vector<double> predicted_;  ///< [slot][region]
};

}  // namespace mrvd
