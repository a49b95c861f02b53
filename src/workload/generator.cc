#include "workload/generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace mrvd {

namespace {

double Gauss(double x, double mean, double sigma) {
  double d = (x - mean) / sigma;
  return std::exp(-0.5 * d * d);
}

}  // namespace

NycLikeGenerator::NycLikeGenerator(const GeneratorConfig& config)
    : config_(config),
      grid_(config.box, config.grid_rows, config.grid_cols) {
  const int n = grid_.num_regions();
  Rng field_rng(config_.seed);

  // Lay down the two hotspot fields. Hotspot centers are random cells;
  // weight(r) = background + Σ_h peak * gauss(ring distance).
  auto make_field = [&](Rng rng) {
    std::vector<std::pair<double, double>> centers;  // (row, col)
    for (int h = 0; h < config_.hotspots_per_field; ++h) {
      centers.push_back({rng.Uniform(0, grid_.rows()),
                         rng.Uniform(0, grid_.cols())});
    }
    std::vector<double> field(static_cast<size_t>(n), 1.0);
    for (RegionId r = 0; r < n; ++r) {
      double row = grid_.RowOf(r) + 0.5, col = grid_.ColOf(r) + 0.5;
      for (auto& [hr, hc] : centers) {
        double d = std::hypot(row - hr, col - hc);
        field[static_cast<size_t>(r)] +=
            config_.hotspot_peak_ratio *
            Gauss(d, 0.0, config_.hotspot_sigma_cells);
      }
    }
    double sum = 0.0;
    for (double v : field) sum += v;
    for (double& v : field) v /= sum;
    return field;
  };
  residential_ = make_field(field_rng.Fork(1));
  business_ = make_field(field_rng.Fork(2));

  // Diurnal profile over 48 half-hour slots: overnight low, AM peak ~8:30,
  // midday shoulder, PM peak ~18:30.
  weekday_slot_weights_.resize(kSlotsPerDay);
  double sum = 0.0;
  for (int s = 0; s < kSlotsPerDay; ++s) {
    double hour = (s + 0.5) * 0.5;
    double w = 0.25 + 1.0 * Gauss(hour, 8.5, 1.6) + 0.45 * Gauss(hour, 13.0, 2.8) +
               1.1 * Gauss(hour, 18.5, 2.2) + 0.3 * Gauss(hour, 22.5, 1.5);
    weekday_slot_weights_[static_cast<size_t>(s)] = w;
    sum += w;
  }
  for (double& w : weekday_slot_weights_) w /= sum;

  weekend_slot_weights_.resize(kSlotsPerDay);
  sum = 0.0;
  for (int s = 0; s < kSlotsPerDay; ++s) {
    double w = (1.0 - config_.weekend_flatten) *
                   weekday_slot_weights_[static_cast<size_t>(s)] +
               config_.weekend_flatten / kSlotsPerDay;
    weekend_slot_weights_[static_cast<size_t>(s)] = w;
    sum += w;
  }
  for (double& w : weekend_slot_weights_) w /= sum;
}

double NycLikeGenerator::MorningMix(int slot) {
  // Residential-leaning near the AM commute, business-leaning near the PM
  // commute. The amplitude is deliberately partial (±0.25 around 0.5): both
  // fields always contribute, so destination hotspots also generate pickup
  // demand — as in the real city, where the core is busy all day. Fully
  // polarized fields would strand rejoining drivers in rider-free zones.
  double hour = (slot + 0.5) * 0.5;
  return 0.5 + 0.25 * std::cos((hour - 8.5) / 24.0 * 2.0 * M_PI);
}

double NycLikeGenerator::SlotWeight(int day_index, int slot) const {
  const auto& w = IsWeekend(day_index) ? weekend_slot_weights_
                                       : weekday_slot_weights_;
  return w[static_cast<size_t>(slot)];
}

double NycLikeGenerator::OriginShare(int slot, RegionId region) const {
  double m = MorningMix(slot);
  return m * residential_[static_cast<size_t>(region)] +
         (1.0 - m) * business_[static_cast<size_t>(region)];
}

double NycLikeGenerator::ExpectedSlotCount(int day_index, int slot,
                                           RegionId region) const {
  double day_scale = IsWeekend(day_index) ? config_.weekend_scale : 1.0;
  return config_.orders_per_day * day_scale * SlotWeight(day_index, slot) *
         OriginShare(slot, region);
}

double NycLikeGenerator::ExpectedPerMinuteRate(int day_index,
                                               int minute_of_day,
                                               RegionId region) const {
  int slot = std::clamp(minute_of_day / 30, 0, kSlotsPerDay - 1);
  return ExpectedSlotCount(day_index, slot, region) / 30.0;
}

LatLon NycLikeGenerator::RandomPointIn(RegionId region, Rng& rng) const {
  BoundingBox cell = grid_.CellBox(region);
  return {rng.Uniform(cell.lat_min, cell.lat_max),
          rng.Uniform(cell.lon_min, cell.lon_max)};
}

void NycLikeGenerator::DestinationCdf(int slot, RegionId from, bool local,
                                      std::vector<double>* cdf) const {
  // Destination field is the *opposite* mix of the origin field: morning
  // trips end at business hotspots, evening trips end at residential ones.
  const double m = MorningMix(slot);
  const int n = grid_.num_regions();
  cdf->resize(static_cast<size_t>(n));
  double acc = 0.0;
  for (RegionId r = 0; r < n; ++r) {
    double w = (1.0 - m) * residential_[static_cast<size_t>(r)] +
               m * business_[static_cast<size_t>(r)];
    if (local) {
      double d = grid_.RingDistance(from, r);
      w *= std::exp(-d / config_.gravity_scale_cells);
    }
    acc += w;
    (*cdf)[static_cast<size_t>(r)] = acc;
  }
}

RegionId NycLikeGenerator::DrawRegion(const std::vector<double>& cdf,
                                      Rng& rng) {
  // Inverse CDF: the first region whose cumulative weight reaches u.
  const double u = rng.NextDouble() * cdf.back();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return it == cdf.end() ? static_cast<RegionId>(cdf.size() - 1)
                         : static_cast<RegionId>(it - cdf.begin());
}

std::vector<double> NycLikeGenerator::DestinationDistribution(
    int day_index, int slot, RegionId from) const {
  (void)day_index;
  double m = MorningMix(slot);
  const int n = grid_.num_regions();
  std::vector<double> out(static_cast<size_t>(n), 0.0);
  // Marginal over the local/global mixture.
  double total_local = 0.0, total_global = 0.0;
  std::vector<double> local_w(static_cast<size_t>(n));
  for (RegionId r = 0; r < n; ++r) {
    double base = (1.0 - m) * residential_[static_cast<size_t>(r)] +
                  m * business_[static_cast<size_t>(r)];
    double d = grid_.RingDistance(from, r);
    local_w[static_cast<size_t>(r)] =
        base * std::exp(-d / config_.gravity_scale_cells);
    total_local += local_w[static_cast<size_t>(r)];
    out[static_cast<size_t>(r)] = base;
    total_global += base;
  }
  for (RegionId r = 0; r < n; ++r) {
    auto i = static_cast<size_t>(r);
    out[i] = config_.local_dest_prob * local_w[i] / total_local +
             (1.0 - config_.local_dest_prob) * out[i] / total_global;
  }
  return out;
}

Workload NycLikeGenerator::GenerateDay(int day_index, int num_drivers) const {
  Rng rng = Rng(config_.seed).Fork(0x1000 + static_cast<uint64_t>(day_index));
  Workload w;
  w.horizon_seconds = kSecondsPerDay;
  const double slot_secs = kSecondsPerDay / kSlotsPerDay;

  // Destination weights depend on the slot, and for local trips on the
  // origin too, so each cumulative table is built once per slot or per
  // (slot, origin) instead of once per order.
  std::vector<double> global_cdf;
  std::vector<double> local_cdf;
  for (int slot = 0; slot < kSlotsPerDay; ++slot) {
    DestinationCdf(slot, kInvalidRegion, /*local=*/false, &global_cdf);
    for (RegionId r = 0; r < grid_.num_regions(); ++r) {
      double mean = ExpectedSlotCount(day_index, slot, r);
      int64_t count = rng.Poisson(mean);
      bool local_cdf_built = false;
      for (int64_t c = 0; c < count; ++c) {
        Order o;
        o.request_time = slot * slot_secs + rng.Uniform(0.0, slot_secs);
        o.pickup = RandomPointIn(r, rng);
        const bool local = rng.Bernoulli(config_.local_dest_prob);
        if (local && !local_cdf_built) {
          DestinationCdf(slot, r, /*local=*/true, &local_cdf);
          local_cdf_built = true;
        }
        RegionId dest = DrawRegion(local ? local_cdf : global_cdf, rng);
        o.dropoff = RandomPointIn(dest, rng);
        o.pickup_deadline =
            o.request_time +
            rng.Uniform(config_.extra_wait_lo, config_.extra_wait_hi) +
            config_.base_pickup_wait;
        w.orders.push_back(o);
      }
    }
  }
  std::sort(w.orders.begin(), w.orders.end(),
            [](const Order& a, const Order& b) {
              return a.request_time < b.request_time;
            });
  for (size_t i = 0; i < w.orders.size(); ++i) {
    w.orders[i].id = static_cast<OrderId>(i);
  }

  // Driver origins = pickup locations of randomly selected orders (§6.2).
  w.drivers.reserve(static_cast<size_t>(num_drivers));
  for (int d = 0; d < num_drivers; ++d) {
    DriverSpec spec;
    spec.id = d;
    if (!w.orders.empty()) {
      auto pick = static_cast<size_t>(rng.UniformInt(
          0, static_cast<int64_t>(w.orders.size()) - 1));
      spec.origin = w.orders[pick].pickup;
    } else {
      spec.origin = grid_.box().Center();
    }
    spec.join_time = 0.0;
    w.drivers.push_back(spec);
  }
  return w;
}

DemandHistory NycLikeGenerator::GenerateHistory(int num_days,
                                                int slots_per_day) const {
  DemandHistory hist(num_days, slots_per_day, grid_.num_regions());
  Rng rng = Rng(config_.seed).Fork(0x2000);
  // Counts are Poisson around the intensity, aggregated/split to the
  // requested slot resolution (the intensity is piecewise-constant over
  // 30-minute slots).
  const double slot_secs = kSecondsPerDay / slots_per_day;
  for (int day = 0; day < num_days; ++day) {
    for (int slot = 0; slot < slots_per_day; ++slot) {
      double t0 = slot * slot_secs;
      double t1 = t0 + slot_secs;
      for (RegionId r = 0; r < grid_.num_regions(); ++r) {
        // Integrate the 30-min intensity over [t0, t1).
        double mean = 0.0;
        int s0 = static_cast<int>(t0 / 1800.0);
        int s1 = static_cast<int>((t1 - 1e-9) / 1800.0);
        for (int s = s0; s <= s1 && s < kSlotsPerDay; ++s) {
          double lo = std::max(t0, s * 1800.0);
          double hi = std::min(t1, (s + 1) * 1800.0);
          mean += ExpectedSlotCount(day, s, r) * (hi - lo) / 1800.0;
        }
        hist.set(day, slot, r, static_cast<double>(rng.Poisson(mean)));
      }
    }
  }
  return hist;
}

DemandHistory NycLikeGenerator::RealizedCounts(const Workload& day,
                                               int slots_per_day) const {
  DemandHistory hist(1, slots_per_day, grid_.num_regions());
  Status st = hist.AccumulateDay(0, day, grid_);
  assert(st.ok());
  (void)st;
  return hist;
}

}  // namespace mrvd
