#include "sim/observer.h"

#include <algorithm>

#include "sim/batch.h"

namespace mrvd {

MetricsCollector::MetricsCollector(const std::string& dispatcher_name,
                                   int64_t total_orders, int num_regions,
                                   bool record_idle_samples)
    : record_idle_samples_(record_idle_samples) {
  result_.dispatcher = dispatcher_name;
  result_.total_orders = total_orders;
  result_.region_idle.assign(static_cast<size_t>(num_regions), {});
}

void MetricsCollector::OnBatchBuilt(double /*now*/, double build_seconds,
                                    const BatchContext& /*ctx*/) {
  result_.batch_build_seconds.Add(build_seconds);
}

void MetricsCollector::OnDispatchDone(
    double /*now*/, double dispatch_seconds,
    const std::vector<Assignment>& /*assignments*/) {
  result_.batch_seconds.Add(dispatch_seconds);
  dispatch_latency_.Add(dispatch_seconds);
  ++result_.num_batches;
}

void MetricsCollector::OnDispatchCounters(double /*now*/,
                                          const DispatchCounters& c) {
  result_.dispatch_sweeps += c.sweeps;
  result_.dispatch_swaps_applied += c.swaps_applied;
  result_.dispatch_proposals += c.proposals;
  result_.dispatch_proposals_recomputed += c.proposals_recomputed;
}

void MetricsCollector::OnAssignmentApplied(double /*now*/,
                                           const AssignmentEvent& e) {
  if (record_idle_samples_ && e.idle_estimate >= 0.0) {
    result_.idle_error.Add(e.idle_estimate, e.real_idle_seconds);
    auto& reg = result_.region_idle[static_cast<size_t>(e.driver_region)];
    reg.predicted_sum += e.idle_estimate;
    reg.real_sum += e.real_idle_seconds;
    ++reg.count;
  }
  result_.driver_idle_seconds.Add(e.real_idle_seconds);
  result_.total_revenue += e.revenue;
  ++result_.served_orders;
  result_.served_wait_seconds.Add(e.wait_seconds);
}

void MetricsCollector::OnAssignmentRejected(double /*now*/,
                                            const Assignment& /*a*/,
                                            AssignmentRejection why) {
  switch (why) {
    case AssignmentRejection::kOutOfRange:
      ++result_.rejected_out_of_range;
      break;
    case AssignmentRejection::kDuplicate:
      ++result_.rejected_duplicate;
      break;
    case AssignmentRejection::kLate:
      ++result_.rejected_late;
      break;
  }
}

void MetricsCollector::OnRiderReneged(double /*now*/, const Order& /*order*/) {
  ++result_.reneged_orders;
}

void MetricsCollector::OnDriverShiftChange(double /*now*/,
                                           DriverId /*driver_id*/,
                                           bool signed_on) {
  if (signed_on) {
    ++result_.driver_sign_ons;
  } else {
    ++result_.driver_sign_offs;
  }
}

void MetricsCollector::OnRiderCancelled(double /*now*/,
                                        const Order& /*order*/) {
  ++result_.cancelled_orders;
}

void MetricsCollector::OnSurgeChange(double /*now*/,
                                     const SurgeWindow& /*window*/,
                                     bool /*active*/) {
  ++result_.surge_changes;
}

void MetricsCollector::OnRunEnd(double /*end_time*/,
                                int64_t never_dispatched) {
  result_.reneged_orders += never_dispatched;
  result_.dispatch_latency_p50 = dispatch_latency_.P50();
  result_.dispatch_latency_p95 = dispatch_latency_.P95();
  result_.dispatch_latency_p99 = dispatch_latency_.P99();
}

}  // namespace mrvd
