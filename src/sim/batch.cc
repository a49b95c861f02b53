#include "sim/batch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>

#include "queueing/birth_death.h"
#include "telemetry/session.h"

namespace mrvd {

namespace {

constexpr double kNotComputed = std::numeric_limits<double>::quiet_NaN();

/// Per-region ET memo entries allocated up front; the stride doubles past
/// this when a dispatcher queries a larger extra-driver count.
constexpr int kInitialMemoStride = 8;

}  // namespace

BatchContext::BatchContext(double now, double window_seconds,
                           double reneging_beta, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      reneging_beta_(reneging_beta),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode),
      own_drivers_(std::make_unique<DriverIndex>(grid.num_regions())) {
  const auto regions = static_cast<size_t>(grid.num_regions());
  snapshots_.resize(regions);
  memo_stride_ = kInitialMemoStride;
  idle_memo_.assign(regions * kInitialMemoStride, kNotComputed);
  memo_used_.assign(regions, 0);
  BindDrivers(*own_drivers_);
}

void BatchContext::Reset(double now) {
  now_ = now;
  riders_.clear();
  if (!own_drivers_->drivers().empty()) own_drivers_->Clear();
  BindDrivers(*own_drivers_);
  std::fill(snapshots_.begin(), snapshots_.end(), RegionSnapshot{});
  ClearMemo();
}

void BatchContext::ClearMemo() {
  for (size_t k = 0; k < memo_used_.size(); ++k) {
    if (memo_used_[k] == 0) continue;
    const auto row = idle_memo_.begin() +
                     static_cast<std::ptrdiff_t>(k * memo_stride_);
    std::fill(row, row + memo_used_[k], kNotComputed);
    memo_used_[k] = 0;
  }
}

void BatchContext::SetTelemetry(telemetry::TelemetrySession* telemetry) {
  telemetry_ = telemetry;
  et_solves_ = telemetry == nullptr
                   ? nullptr
                   : telemetry->metrics().counter("batch.et_solves");
}

void BatchContext::BindDrivers(const DriverIndex& index) {
  drivers_ = index.drivers_;
  region_start_ = index.start_.data();
  region_drivers_ = index.bucketed_.data();
  driver_box_ = index.boxes_.data();
  driver_lat_min_ = index.lat_min_;
  driver_lat_max_ = index.lat_max_;
}

void BatchContext::AddRider(const WaitingRider& r) {
  assert(r.pickup_region != kInvalidRegion &&
         r.dropoff_region != kInvalidRegion);
  riders_.push_back(r);
}

void BatchContext::AddDriver(const AvailableDriver& d) {
  const DriverInsert append{static_cast<int>(own_drivers_->drivers().size()),
                            d};
  own_drivers_->Patch({}, std::span<const DriverInsert>(&append, 1));
  BindDrivers(*own_drivers_);
}

void BatchContext::SetSnapshots(std::vector<RegionSnapshot> snapshots) {
  assert(static_cast<int>(snapshots.size()) == grid_.num_regions());
  snapshots_ = std::move(snapshots);
  ClearMemo();
}

void BatchContext::SetDrivers(const std::vector<AvailableDriver>& drivers) {
  std::vector<DriverInsert> inserted;
  inserted.reserve(drivers.size());
  for (const AvailableDriver& d : drivers) inserted.push_back({0, d});
  own_drivers_->Clear();
  own_drivers_->Patch({}, inserted);
  BindDrivers(*own_drivers_);
}

RegionSnapshot BatchContext::ServiceSnapshot(RegionId region) const {
  RegionSnapshot snap = snapshots_[static_cast<size_t>(region)];
  if (candidate_mode_ == CandidateMode::kRingExpand) {
    // Under cross-region matching a driver rejoining region k competes in
    // (and is served from) the 3x3 service neighbourhood, so the queue that
    // determines his idle time aggregates those regions' demand and supply.
    // Under strict per-region matching (Algorithm 2) the region's own
    // snapshot is the exact queue.
    grid_.ForEachInRing(region, 1, [&](RegionId nb) {
      const RegionSnapshot& s = snapshots_[static_cast<size_t>(nb)];
      snap.waiting_riders += s.waiting_riders;
      snap.available_drivers += s.available_drivers;
      snap.predicted_riders += s.predicted_riders;
      snap.predicted_drivers += s.predicted_drivers;
    });
  }
  return snap;
}

RegionRates BatchContext::RatesFor(RegionId region, int extra_drivers) const {
  RegionSnapshot snap = ServiceSnapshot(region);
  snap.predicted_drivers += static_cast<double>(extra_drivers);
  return EstimateRegionRates(snap, window_seconds_);
}

int64_t BatchContext::MaxDriversFor(RegionId region, int extra_drivers) const {
  const RegionSnapshot snap = ServiceSnapshot(region);
  int64_t k = snap.available_drivers +
              static_cast<int64_t>(snap.predicted_drivers) + extra_drivers;
  return std::max<int64_t>(k, 1);
}

double BatchContext::ComputeIdleSeconds(RegionId region,
                                        int extra_drivers) const {
  RegionRates rates = RatesFor(region, extra_drivers);
  // Solve the chain in per-minute units: the reneging practice
  // π(n) = e^{βn}/μ from [25] is calibrated for arrival rates on the order
  // of "customers per minute" (§4.1 states rates in number per minute);
  // feeding per-second rates would make 1/μ a huge reneging rate.
  double et_minutes = EstimateIdleTimeSeconds(
      rates.lambda * 60.0, rates.mu * 60.0,
      MaxDriversFor(region, extra_drivers), reneging_beta_,
      /*max_idle_seconds=*/60.0);  // cap: 60 min
  return et_minutes * 60.0;
}

double& BatchContext::MemoSlot(RegionId region, int extra_drivers) const {
  assert(extra_drivers >= 0);
  if (extra_drivers >= memo_stride_) {
    const int stride = std::max(extra_drivers + 1, 2 * memo_stride_);
    std::vector<double> grown(memo_used_.size() * static_cast<size_t>(stride),
                              kNotComputed);
    for (size_t k = 0; k < memo_used_.size(); ++k) {
      const auto from = idle_memo_.begin() +
                        static_cast<std::ptrdiff_t>(k * memo_stride_);
      std::copy(from, from + memo_used_[k],
                grown.begin() + static_cast<std::ptrdiff_t>(k * stride));
    }
    idle_memo_.swap(grown);
    memo_stride_ = stride;
  }
  const auto k = static_cast<size_t>(region);
  memo_used_[k] = std::max(memo_used_[k], extra_drivers + 1);
  return idle_memo_[k * static_cast<size_t>(memo_stride_) +
                    static_cast<size_t>(extra_drivers)];
}

double BatchContext::ExpectedIdleSeconds(RegionId region,
                                         int extra_drivers) const {
  // The memo covers extra_drivers >= 0, the only values the dispatchers
  // ask for; anything else is solved without it.
  if (extra_drivers < 0) {
    if (et_solves_ != nullptr) et_solves_->Add();
    return ComputeIdleSeconds(region, extra_drivers);
  }
  double& et = MemoSlot(region, extra_drivers);
  if (std::isnan(et)) {
    et = ComputeIdleSeconds(region, extra_drivers);
    if (et_solves_ != nullptr) et_solves_->Add();
  }
  return et;
}

}  // namespace mrvd
