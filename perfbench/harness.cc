#include "harness.h"

#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "dispatch/candidates.h"
#include "prediction/predictor.h"
#include "workload/demand_history.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

/// ComputeIdleSeconds calls timed per batch (rejoin regions of the first
/// riders, no extra drivers).
constexpr size_t kEtSamples = 4;

/// SpeedProbe's buffer: 1 MiB, half of one core's L2 cache.
constexpr size_t kProbeWords = (1u << 20) / sizeof(uint32_t);
/// SpeedProbe's kernel time on the machine the figures in README.md were
/// taken on (gcc 12.2, Release) when its host was quiet.
constexpr double kReferenceSeconds = 1.06e-4;

int64_t ThreadCpuNs() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<int64_t>(t.tv_sec) * 1'000'000'000 + t.tv_nsec;
}

}  // namespace

SpeedProbe::SpeedProbe() : buffer_(kProbeWords) {
  for (size_t i = 0; i < buffer_.size(); ++i) {
    buffer_[i] = static_cast<uint32_t>(i * 2654435761u);
  }
}

double SpeedProbe::Factor() {
  auto pass = [this] {
    uint64_t sum = 0;
    for (uint32_t v : buffer_) sum += v;
    sink_ += sum;
    asm volatile("" ::: "memory");  // every pass reads the buffer again
  };
  pass();  // the program may have evicted the buffer since the last probe
  const int64_t t0 = ThreadCpuNs();
  pass();
  pass();
  const int64_t t1 = ThreadCpuNs();
  return kReferenceSeconds / Seconds(std::max<int64_t>(t1 - t0, 1));
}

SpeedProbe& HostSpeed() {
  static SpeedProbe probe;
  return probe;
}

SpeedSampler::SpeedSampler()
    : thread_([this] {
        while (!stop_.load()) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(kIntervalNs));
          if (!stop_.load()) factors_.push_back(HostSpeed().Factor());
        }
      }) {}

double SpeedSampler::Stop() {
  if (thread_.joinable()) {
    stop_.store(true);
    thread_.join();
  }
  if (factors_.empty()) factors_.push_back(HostSpeed().Factor());
  double sum = 0.0;
  for (double f : factors_) sum += f;
  return sum / static_cast<double>(factors_.size());
}

std::string FullDigits(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

int SeededDay(int base_day, uint64_t seed) {
  return base_day + 7 * static_cast<int>(seed % 4096);
}

mrvd::CampaignSpec RosterSpec(uint64_t seed) {
  mrvd::CampaignSpec spec;
  spec.name = "roster-sweep";
  for (int day : {7, 8}) {
    spec.workloads.push_back("nyc:day=" + std::to_string(SeededDay(day, seed)) +
                             ",drivers=250,orders=20000,grid_rows=16,"
                             "grid_cols=16,batch_interval=5,horizon_hours=24");
  }
  spec.scenarios = {"none", "two-shift", "cancel-hazard", "rush-hour"};
  spec.dispatchers = mrvd::DispatcherRegistry::Global().Names();
  return spec;
}

mrvd::StatusOr<DaySetup> SetUpDay(const DayWorkload& w, uint64_t seed) {
  DaySetup setup;
  // Each call's time, scaled by a factor taken right after it; the next
  // call's clock starts after the probe.
  auto scaled = [&setup](int64_t start_ns, int64_t end_ns) {
    setup.reference_s += Seconds(end_ns - start_ns) * HostSpeed().Factor();
    return NowNs();
  };
  int64_t t0 = NowNs();
  mrvd::NycLikeGenerator generator;
  mrvd::Workload day =
      generator.GenerateDay(SeededDay(kBaseDay, seed), w.num_drivers);
  int64_t t1 = NowNs();
  const int64_t t1_resumed = scaled(t0, t1);
  const mrvd::Grid& grid = generator.grid();
  mrvd::DemandHistory realized(1, 48, grid.num_regions());
  MRVD_RETURN_NOT_OK(realized.AccumulateDay(0, day, grid));
  std::unique_ptr<mrvd::DemandPredictor> oracle = mrvd::MakeOraclePredictor();
  mrvd::StatusOr<mrvd::DemandForecast> forecast =
      mrvd::DemandForecast::Build(*oracle, realized, /*eval_day=*/0);
  if (!forecast.ok()) return forecast.status();
  int64_t t2 = NowNs();
  const int64_t t2_resumed = scaled(t1_resumed, t2);
  mrvd::StatusOr<mrvd::Simulation> sim =
      mrvd::SimulationBuilder()
          .WithWorkload(std::move(day), grid)
          .WithForecast(std::move(forecast).value())
          .BatchInterval(w.batch_interval)
          .HorizonSeconds(w.horizon_seconds)
          .Build();
  int64_t t3 = NowNs();
  scaled(t2_resumed, t3);
  if (!sim.ok()) return sim.status();
  setup.sim.emplace(std::move(sim).value());
  setup.generate_s = Seconds(t1 - t0);
  setup.forecast_s = Seconds(t2 - t1_resumed);
  setup.build_s = Seconds(t3 - t2_resumed);
  return setup;
}

bool SpanLog::WriteChromeTrace(const std::string& path,
                               const std::string& header) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(f, "{\"otherData\":{\"perfbench\":\"%s\"},\"traceEvents\":[",
               header.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - origin) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

DayProbe::DayProbe(const mrvd::Workload& workload, double batch_interval,
                   bool deadline_exempt, bool traced)
    : workload_(workload),
      batch_interval_(batch_interval),
      deadline_exempt_(deadline_exempt),
      traced_(traced) {}

void DayProbe::OnBatchBuilt(double, double, const mrvd::BatchContext& ctx) {
  if (traced_) current_.built = NowNs();
  riders_offered += static_cast<int64_t>(ctx.riders().size());
  drivers_offered += static_cast<int64_t>(ctx.drivers().size());
}

void DayProbe::OnDispatchDone(double, double,
                              const std::vector<mrvd::Assignment>& a) {
  if (traced_) current_.done = NowNs();
  batch_proposed_ = static_cast<int64_t>(a.size());
  proposed += batch_proposed_;
}

void DayProbe::OnDispatchCounters(double, const mrvd::DispatchCounters& c) {
  ls_sweeps += c.sweeps;
  ls_proposals += c.proposals;
  ls_recomputed += c.proposals_recomputed;
}

void DayProbe::OnAssignmentApplied(double now, const mrvd::AssignmentEvent& e) {
  ++served;
  ++batch_applied_;
  if (deadline_exempt_) return;
  // Def. 3 against the workload's own order, not the engine's copy.
  const mrvd::Order& order = workload_.orders[static_cast<size_t>(e.order_id)];
  if (now + e.pickup_seconds > order.pickup_deadline + 1e-9) {
    batch_late_pickup_ = true;
    ++deadline_violations;
  }
}

void DayProbe::OnRiderReneged(double, const mrvd::Order&) { ++reneged; }

void DayProbe::OnRiderCancelled(double, const mrvd::Order&) { ++cancelled; }

void DayProbe::BeginRun() {
  run_start_ = last_end_ = segment_start_ = NowNs();
}

void DayProbe::EndRun() {
  run_end_ = NowNs();
  if (!traced_) ScaleSegment(run_end_);
}

void DayProbe::ScaleSegment(int64_t end_ns) {
  const double factor = HostSpeed().Factor();
  for (size_t i = segment_first_batch_; i < batch_seconds.size(); ++i) {
    reference_batch_seconds.push_back(batch_seconds[i] * factor);
  }
  segment_first_batch_ = batch_seconds.size();
  reference_wall_s_ += Seconds(end_ns - segment_start_) * factor;
}

void DayProbe::OnBatchEnd(double) {
  const int64_t end = NowNs();
  int64_t batch_ns = end - last_end_;
  if (traced_) {
    current_.start = last_end_;
    current_.end = end;
    batch_ns -= current_.ProbeNs();
    probe_ns_ += current_.ProbeNs();
    stamps.push_back(current_);
    current_ = BatchStamps{};
  }
  last_end_ = end;
  batch_seconds.push_back(Seconds(batch_ns));

  const bool slow = Seconds(batch_ns) > batch_interval_;
  const bool mismatch = batch_proposed_ != batch_applied_;
  slow_batches += slow ? 1 : 0;
  mismatched_batches += mismatch ? 1 : 0;
  if (slow || mismatch || batch_late_pickup_) ++failed_batches;
  batch_proposed_ = batch_applied_ = 0;
  batch_late_pickup_ = false;

  if (!traced_ && end - segment_start_ >= SpeedProbe::kIntervalNs) {
    ScaleSegment(end);
    const int64_t resumed = NowNs();
    probe_ns_ += resumed - end;
    last_end_ = segment_start_ = resumed;
  }
}

void DayProbe::OnRunEnd(double, int64_t never) { never_dispatched = never; }

void DayProbe::CheckResult(const mrvd::SimResult& r,
                           std::vector<std::string>* failures) const {
  auto expect = [failures](bool ok, const std::string& what) {
    if (!ok) failures->push_back(what);
  };
  const auto total = static_cast<int64_t>(workload_.orders.size());
  expect(r.total_orders == total, "total_orders != workload orders");
  expect(r.served_orders == served, "served != applied assignments");
  expect(r.reneged_orders == reneged + never_dispatched,
         "reneged != reneged hooks + never dispatched");
  expect(r.cancelled_orders == cancelled, "cancelled != cancel hooks");
  expect(served + reneged + never_dispatched + cancelled == total,
         "rider conservation: served + reneged + cancelled != total");
  expect(r.num_batches == static_cast<int64_t>(batch_seconds.size()),
         "num_batches != OnBatchEnd count");
}

double DayProbe::WallSeconds() const {
  return Seconds(run_end_ - run_start_ - probe_ns_);
}

void DayProbe::ExportSpans(SpanLog* log) const {
  const int root = log->Add("sim.run", run_start_, run_end_, -1);
  for (const BatchStamps& s : stamps) {
    const int batch = log->Add("batch", s.start, s.end, root);
    log->Add("sim.prebuild", s.start, s.built, batch);
    log->Add("sim.capture", s.built, s.entry, batch);
    log->Add("dispatch", s.entry, s.exit, batch);
    log->Add("probe.candidates", s.exit, s.candidates_end, batch);
    log->Add("probe.et", s.candidates_end, s.et_end, batch);
    log->Add("sim.dispatch_return", s.et_end, s.done, batch);
    log->Add("sim.apply", s.done, s.end, batch);
  }
}

void TimedDispatcher::Dispatch(const mrvd::BatchContext& ctx,
                               std::vector<mrvd::Assignment>* out) {
  BatchStamps& s = probe_->current();
  s.entry = NowNs();
  inner_->Dispatch(ctx, out);
  s.exit = NowNs();
  s.pairs = static_cast<int64_t>(mrvd::GenerateValidPairs(ctx).size());
  s.candidates_end = NowNs();
  const size_t samples = std::min(kEtSamples, ctx.riders().size());
  for (size_t i = 0; i < samples; ++i) {
    et_sink_ += ctx.ComputeIdleSeconds(ctx.riders()[i].dropoff_region);
  }
  s.et_calls = static_cast<int64_t>(samples);
  s.et_end = NowNs();
}

mrvd::StatusOr<DayRun> RunDay(const mrvd::Simulation& sim,
                              const mrvd::SimConfig& config,
                              const std::string& dispatcher, bool traced) {
  const mrvd::DispatcherRegistry& registry = mrvd::DispatcherRegistry::Global();
  mrvd::StatusOr<std::unique_ptr<mrvd::Dispatcher>> created =
      registry.Create(dispatcher);
  if (!created.ok()) return created.status();
  std::unique_ptr<mrvd::Dispatcher> inner = std::move(created).value();
  // Simulation::Run applies the same trait for registry specs.
  mrvd::SimConfig run_config = config;
  const bool zero_pickup = registry.RequiresZeroPickupTravel(inner->name());
  if (zero_pickup) run_config.zero_pickup_travel = true;

  DayRun run;
  run.probe = std::make_unique<DayProbe>(sim.workload(), config.batch_interval,
                                         zero_pickup, traced);
  std::unique_ptr<mrvd::Dispatcher> timed;
  mrvd::Dispatcher* used = inner.get();
  if (traced) {
    timed = std::make_unique<TimedDispatcher>(std::move(inner),
                                              run.probe.get());
    used = timed.get();
  }
  run.probe->BeginRun();
  mrvd::StatusOr<mrvd::SimResult> result =
      sim.RunWith(run_config, *used, sim.scenario(), run.probe.get());
  run.probe->EndRun();
  if (!result.ok()) return result.status();
  run.result = std::move(result).value();
  return run;
}

std::string DiffResults(const mrvd::SimResult& a, const mrvd::SimResult& b) {
  auto same_stats = [](const mrvd::RunningStats& x,
                       const mrvd::RunningStats& y) {
    return x.count() == y.count() && x.mean() == y.mean() &&
           x.variance() == y.variance() && x.min() == y.min() &&
           x.max() == y.max();
  };
  if (a.dispatcher != b.dispatcher) return "dispatcher";
  if (a.total_revenue != b.total_revenue) return "total_revenue";
  if (a.served_orders != b.served_orders) return "served_orders";
  if (a.reneged_orders != b.reneged_orders) return "reneged_orders";
  if (a.total_orders != b.total_orders) return "total_orders";
  if (a.cancelled_orders != b.cancelled_orders) return "cancelled_orders";
  if (a.driver_sign_ons != b.driver_sign_ons ||
      a.driver_sign_offs != b.driver_sign_offs ||
      a.surge_changes != b.surge_changes) {
    return "scenario events";
  }
  if (a.num_batches != b.num_batches) return "num_batches";
  if (a.idle_error.count() != b.idle_error.count() ||
      a.idle_error.Mae() != b.idle_error.Mae() ||
      a.idle_error.RealRmse() != b.idle_error.RealRmse()) {
    return "idle_error";
  }
  if (a.region_idle.size() != b.region_idle.size()) return "region_idle";
  for (size_t i = 0; i < a.region_idle.size(); ++i) {
    const mrvd::RegionIdleStats& x = a.region_idle[i];
    const mrvd::RegionIdleStats& y = b.region_idle[i];
    if (x.count != y.count || x.predicted_sum != y.predicted_sum ||
        x.real_sum != y.real_sum) {
      return "region_idle";
    }
  }
  if (!same_stats(a.served_wait_seconds, b.served_wait_seconds)) {
    return "served_wait_seconds";
  }
  if (!same_stats(a.driver_idle_seconds, b.driver_idle_seconds)) {
    return "driver_idle_seconds";
  }
  if (a.dispatch_sweeps != b.dispatch_sweeps ||
      a.dispatch_swaps_applied != b.dispatch_swaps_applied ||
      a.dispatch_proposals != b.dispatch_proposals) {
    return "dispatch counters";
  }
  return "";
}

}  // namespace perfbench
