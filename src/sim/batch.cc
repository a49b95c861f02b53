#include "sim/batch.h"

#include <algorithm>
#include <cassert>

#include "geo/region_partitioner.h"
#include "queueing/birth_death.h"
#include "util/thread_pool.h"

namespace mrvd {

bool BatchExecution::Parallel() const {
  return pool != nullptr && pool->num_threads() > 1 && partitioner != nullptr &&
         partitioner->num_shards() > 1;
}

BatchContext::BatchContext(double now, double window_seconds,
                           double reneging_beta, const Grid& grid,
                           const TravelCostModel& cost_model,
                           CandidateMode candidate_mode)
    : now_(now),
      window_seconds_(window_seconds),
      reneging_beta_(reneging_beta),
      grid_(grid),
      cost_model_(cost_model),
      candidate_mode_(candidate_mode) {
  drivers_by_region_.resize(static_cast<size_t>(grid.num_regions()));
  snapshots_.resize(static_cast<size_t>(grid.num_regions()));
}

void BatchContext::AddRider(const WaitingRider& r) {
  assert(r.pickup_region != kInvalidRegion &&
         r.dropoff_region != kInvalidRegion);
  riders_.push_back(r);
  shard_index_.partitioner = nullptr;  // invalidate any cached index
}

void BatchContext::AddDriver(const AvailableDriver& d) {
  assert(d.region != kInvalidRegion);
  drivers_by_region_[static_cast<size_t>(d.region)].push_back(
      static_cast<int>(drivers_.size()));
  drivers_.push_back(d);
  shard_index_.partitioner = nullptr;  // invalidate any cached index
}

void BatchContext::SetSnapshots(std::vector<RegionSnapshot> snapshots) {
  assert(static_cast<int>(snapshots.size()) == grid_.num_regions());
  snapshots_ = std::move(snapshots);
  idle_cache_.clear();
}

void BatchContext::SetRiders(std::vector<WaitingRider> riders) {
  riders_ = std::move(riders);
  shard_index_.partitioner = nullptr;  // invalidate any cached index
}

void BatchContext::SetDrivers(std::vector<AvailableDriver> drivers) {
  drivers_ = std::move(drivers);
  shard_index_.partitioner = nullptr;  // invalidate any cached index
  for (auto& bucket : drivers_by_region_) bucket.clear();
  for (size_t j = 0; j < drivers_.size(); ++j) {
    assert(drivers_[j].region != kInvalidRegion);
    drivers_by_region_[static_cast<size_t>(drivers_[j].region)].push_back(
        static_cast<int>(j));
  }
}

void BatchContext::SetShardIndex(ShardIndex index) {
  assert(index.partitioner != nullptr);
  shard_index_ = std::move(index);
}

const BatchContext::ShardIndex* BatchContext::EnsureShardIndex() const {
  if (execution_ == nullptr || execution_->partitioner == nullptr) {
    return nullptr;
  }
  const RegionPartitioner* parts = execution_->partitioner;
  if (shard_index_.partitioner == parts) return &shard_index_;
  assert(parts->num_regions() == grid_.num_regions());
  const size_t num_shards = static_cast<size_t>(parts->num_shards());
  shard_index_.partitioner = parts;
  shard_index_.riders.assign(num_shards, {});
  shard_index_.drivers.assign(num_shards, {});
  for (int i = 0; i < static_cast<int>(riders_.size()); ++i) {
    int s = parts->shard_of(riders_[static_cast<size_t>(i)].pickup_region);
    shard_index_.riders[static_cast<size_t>(s)].push_back(i);
  }
  for (int j = 0; j < static_cast<int>(drivers_.size()); ++j) {
    int s = parts->shard_of(drivers_[static_cast<size_t>(j)].region);
    shard_index_.drivers[static_cast<size_t>(s)].push_back(j);
  }
  return &shard_index_;
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

double BatchContext::ExpectedIdleSeconds(RegionId region,
                                         int extra_drivers) const {
  int64_t key = IdleCacheKey(region, extra_drivers);
  auto it = idle_cache_.find(key);
  if (it != idle_cache_.end()) return it->second;
  double et = ComputeIdleSeconds(region, extra_drivers);
  idle_cache_.emplace(key, et);
  return et;
}

void BatchContext::WarmIdleCache(RegionId region, int extra_drivers,
                                 double et) const {
  idle_cache_.emplace(IdleCacheKey(region, extra_drivers), et);
}

void BatchContext::MergeIdleCache(
    std::unordered_map<int64_t, double>&& cache) const {
  if (idle_cache_.empty()) {
    idle_cache_ = std::move(cache);
    return;
  }
  idle_cache_.merge(cache);
}

// ------------------------------------------------------- ShardedBatchContext

ShardedBatchContext::ShardedBatchContext(const BatchContext& parent,
                                         const RegionPartitioner& partitioner,
                                         int shard)
    : parent_(parent), partitioner_(partitioner), shard_(shard) {
  const BatchContext::ShardIndex* index = parent.shard_index();
  if (index != nullptr && index->partitioner == &partitioner) {
    rider_indices_ = &index->riders[static_cast<size_t>(shard)];
    driver_indices_ = &index->drivers[static_cast<size_t>(shard)];
    return;
  }
  // Hand-assembled context without a shared index: membership scan.
  for (int i = 0; i < static_cast<int>(parent.riders().size()); ++i) {
    if (partitioner.shard_of(
            parent.riders()[static_cast<size_t>(i)].pickup_region) == shard) {
      local_riders_.push_back(i);
    }
  }
  for (int j = 0; j < static_cast<int>(parent.drivers().size()); ++j) {
    if (partitioner.shard_of(
            parent.drivers()[static_cast<size_t>(j)].region) == shard) {
      local_drivers_.push_back(j);
    }
  }
  rider_indices_ = &local_riders_;
  driver_indices_ = &local_drivers_;
}

bool ShardedBatchContext::OwnsRegion(RegionId region) const {
  return partitioner_.shard_of(region) == shard_;
}

double ShardedBatchContext::ExpectedIdleSeconds(RegionId region,
                                                int extra_drivers) const {
  int64_t key = BatchContext::IdleCacheKey(region, extra_drivers);
  auto it = idle_cache_.find(key);
  if (it != idle_cache_.end()) return it->second;
  double et = parent_.ComputeIdleSeconds(region, extra_drivers);
  idle_cache_.emplace(key, et);
  return et;
}

}  // namespace mrvd
