// Building blocks of the end-to-end benchmark. Everything here drives the
// mrvd library through its public API and public seams only:
//
//   * SetUpDay times the three set-up calls a user makes for a generated
//     day (NycLikeGenerator::GenerateDay, DemandForecast::Build over the
//     oracle predictor, SimulationBuilder::Build);
//   * DayProbe is a SimObserver that tallies what the run reports (for the
//     correctness checks) and stamps one clock read per batch, or, when
//     traced, every stage boundary it can see from outside;
//   * TimedDispatcher wraps a registry dispatcher to stamp Dispatch() entry
//     and exit, and runs two timed probes (GenerateValidPairs and uncached
//     BatchContext::ComputeIdleSeconds) whose intervals are kept out of
//     every other span;
//   * SpanLog keeps the traced run's spans in memory and writes them out as
//     a Chrome/Perfetto trace when the benchmark ends.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "campaign/campaign.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Host-speed reference for the end-to-end timings. The benchmark runs on
/// a shared VM whose speed follows its neighbours' load: the same replay
/// takes 1.0x to 1.8x its quiet time, in phases that last minutes, so no
/// statistic over one run's raw times is steady from run to run. Each
/// raw interval is therefore scaled by Factor(), taken right after it: a
/// fixed kernel (two sums over a 1 MiB buffer kept warm in the L2 cache)
/// whose time follows the host's speed and shares no code or data with
/// the program, so a faster program still reads faster. A scaled time is
/// in reference seconds: what the interval would take when the kernel
/// runs in kReferenceSeconds. Not thread-safe; use it from one thread at
/// a time.
class SpeedProbe {
 public:
  SpeedProbe();
  /// kReferenceSeconds ÷ the kernel's thread CPU time (after an untimed
  /// warm pass).
  double Factor();
  /// Shortest interval worth a probe: a probe costs about 0.1 ms.
  static constexpr int64_t kIntervalNs = 50'000'000;

 private:
  std::vector<uint32_t> buffer_;
  uint64_t sink_ = 0;
};

/// The process's probe, shared by every timed phase.
SpeedProbe& HostSpeed();

/// Takes HostSpeed() factors every kIntervalNs on a thread of its own
/// while a phase runs on other threads (the campaign's). The thread lands
/// on whichever core is free, so it samples often to average over them.
class SpeedSampler {
 public:
  SpeedSampler();
  ~SpeedSampler() { Stop(); }
  /// Stops the sampling thread; returns the mean factor of its samples
  /// (one is taken now when the phase was shorter than an interval).
  double Stop();
  static constexpr int64_t kIntervalNs = 10'000'000;

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> factors_;
  std::thread thread_;
};

/// `v` with all 17 significant digits ("%.17g").
std::string FullDigits(double v);

/// Linear-interpolated quantile (q in [0, 1]) of `values`; 0 when empty.
double Quantile(std::vector<double> values, double q);

/// The day index a benchmark seed selects for a workload whose base day is
/// `base_day`: the same weekday, 7 * (seed mod 4096) days later. The seed
/// picks which realisation of the city's demand and fleet is replayed; the
/// city itself (GeneratorConfig::seed, which places the demand hotspots)
/// stays the paper's default, because a different city moves revenue and
/// service rate by far more than any bound a benchmark can hold.
int SeededDay(int base_day, uint64_t seed);

/// The day the day workloads replay at seed 0; SeededDay maps the seed
/// onto it.
inline constexpr int kBaseDay = 7;

/// A generated NYC-like day (the generator's Table-2 defaults: 16 x 16
/// regions, 282,255 orders) replayed through Simulation::Run at the
/// engine's default single thread.
struct DayWorkload {
  int num_drivers = 3000;
  double batch_interval = 3.0;  ///< Δ
  double horizon_seconds = 86400.0;
  const char* dispatcher = "LS";
  /// > 0: the traced run also replays the inputs at this many engine
  /// threads, for threads.*_speedup and the thread-count identity check.
  int compare_threads = 0;
};

/// Table-2 defaults: the realistic, dispatch-bound operating point.
inline constexpr DayWorkload kPaperDay{};

/// The same generated day with the paper's largest fleet, hours 0-8,
/// Δ = 1 s, NEAR: the engine stages dominate. The timed replay runs the
/// default single engine thread. At 4 threads on a shared 4-vCPU machine,
/// every batch waits on pool wake-ups that the host schedules, and a few
/// runs in ten stall. The traced run replays at 4 threads as well.
inline constexpr DayWorkload kIdleFleet{8000, 1.0, 8 * 3600.0, "NEAR", 4};

/// The roster-sweep grid: days 7 and 8 (mapped by SeededDay) x four
/// scenarios x every registry dispatcher, as `nyc` catalog days of 20,000
/// orders, 250 drivers, Δ = 5 s and 24 h.
mrvd::CampaignSpec RosterSpec(uint64_t seed);

/// A built day and what each set-up call cost.
struct DaySetup {
  std::optional<mrvd::Simulation> sim;
  double generate_s = 0.0;  ///< NycLikeGenerator + GenerateDay
  double forecast_s = 0.0;  ///< realized counts + oracle DemandForecast::Build
  double build_s = 0.0;     ///< SimulationBuilder::Build
  double reference_s = 0.0;  ///< the three, in reference seconds
};

/// Generates the day SeededDay picks for `seed`, derives the oracle
/// forecast the way SimulationBuilder::WithOracleForecast does, and builds
/// the Simulation.
mrvd::StatusOr<DaySetup> SetUpDay(const DayWorkload& w, uint64_t seed);

/// One span: [start_ns, end_ns) on the steady clock, `parent` indexes the
/// enclosing span (-1 for a root).
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

class SpanLog {
 public:
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent) {
    spans_.push_back({name, start_ns, end_ns, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }
  /// Chrome trace-event JSON (loadable in Perfetto); `header` lands in the
  /// document's metadata. False if the file cannot be written.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& header) const;

 private:
  std::vector<Span> spans_;
};

/// Clock stamps of one traced batch, in engine order.
struct BatchStamps {
  int64_t start = 0;           ///< previous OnBatchEnd (or run start)
  int64_t built = 0;           ///< OnBatchBuilt
  int64_t entry = 0;           ///< Dispatch() entry
  int64_t exit = 0;            ///< Dispatch() exit
  int64_t candidates_end = 0;  ///< GenerateValidPairs probe done
  int64_t et_end = 0;          ///< ComputeIdleSeconds probe done
  int64_t done = 0;            ///< OnDispatchDone
  int64_t end = 0;             ///< OnBatchEnd
  int64_t pairs = 0;           ///< valid pairs the candidate probe found
  int64_t et_calls = 0;        ///< ComputeIdleSeconds calls timed

  int64_t ProbeNs() const { return et_end - exit; }
};

/// Observer for one run: correctness tallies, per-batch wall times and,
/// when traced, the stamps of every batch.
class DayProbe final : public mrvd::SimObserver {
 public:
  /// `deadline_exempt`: skip the Def.-3 check (UPPER waives pickup travel).
  DayProbe(const mrvd::Workload& workload, double batch_interval,
           bool deadline_exempt, bool traced);

  /// The stamps of the batch in flight (TimedDispatcher fills its part).
  BatchStamps& current() { return current_; }

  void BeginRun();
  void EndRun();

  void OnBatchBuilt(double now, double build_seconds,
                    const mrvd::BatchContext& ctx) override;
  void OnDispatchDone(double now, double dispatch_seconds,
                      const std::vector<mrvd::Assignment>& a) override;
  void OnDispatchCounters(double now, const mrvd::DispatchCounters& c) override;
  void OnAssignmentApplied(double now, const mrvd::AssignmentEvent& e) override;
  void OnRiderReneged(double now, const mrvd::Order& order) override;
  void OnRiderCancelled(double now, const mrvd::Order& order) override;
  void OnBatchEnd(double now) override;
  void OnRunEnd(double end_time, int64_t never_dispatched) override;

  /// Run-level checks against the engine's result: rider conservation from
  /// this observer's own tallies, batch count. Appends one line per
  /// failure to `failures`.
  void CheckResult(const mrvd::SimResult& result,
                   std::vector<std::string>* failures) const;

  /// Wall time of the run, excluding the probe intervals.
  double WallSeconds() const;
  /// Untraced runs: the wall time in reference seconds (see SpeedProbe).
  double ReferenceWallSeconds() const { return reference_wall_s_; }

  /// Appends the run's spans (root "sim.run", one "batch" per batch and
  /// its stage children) to `log`. Traced runs only.
  void ExportSpans(SpanLog* log) const;

  // Per-batch results.
  std::vector<double> batch_seconds;  ///< OnBatchEnd to OnBatchEnd (ms-scale)
  /// Untraced runs: batch_seconds in reference seconds.
  std::vector<double> reference_batch_seconds;
  std::vector<BatchStamps> stamps;    ///< traced runs only
  int64_t failed_batches = 0;  ///< over Δ, proposed != applied, or Def. 3
  int64_t slow_batches = 0;
  int64_t mismatched_batches = 0;
  int64_t deadline_violations = 0;

  // Tallies.
  int64_t served = 0;
  int64_t reneged = 0;
  int64_t cancelled = 0;
  int64_t never_dispatched = 0;
  int64_t proposed = 0;
  int64_t riders_offered = 0;
  int64_t drivers_offered = 0;
  int64_t ls_sweeps = 0;
  int64_t ls_proposals = 0;
  int64_t ls_recomputed = 0;

 private:
  /// Untraced runs: scales the batches since segment_start_ by a fresh
  /// SpeedProbe factor.
  void ScaleSegment(int64_t end_ns);

  const mrvd::Workload& workload_;
  double batch_interval_;
  bool deadline_exempt_;
  bool traced_;
  int64_t run_start_ = 0;
  int64_t run_end_ = 0;
  int64_t last_end_ = 0;
  int64_t probe_ns_ = 0;  ///< summed probe intervals of the run
  int64_t segment_start_ = 0;
  size_t segment_first_batch_ = 0;
  double reference_wall_s_ = 0.0;
  BatchStamps current_;
  int64_t batch_proposed_ = 0;
  int64_t batch_applied_ = 0;
  bool batch_late_pickup_ = false;
};

/// Wraps a dispatcher: stamps Dispatch() entry/exit into the probe, then
/// times GenerateValidPairs and a sample of uncached ComputeIdleSeconds
/// on the same context. Results are untouched (the probes only read).
class TimedDispatcher final : public mrvd::Dispatcher {
 public:
  TimedDispatcher(std::unique_ptr<mrvd::Dispatcher> inner, DayProbe* probe)
      : inner_(std::move(inner)), probe_(probe) {}

  std::string name() const override { return inner_->name(); }
  void Dispatch(const mrvd::BatchContext& ctx,
                std::vector<mrvd::Assignment>* out) override;
  const mrvd::DispatchCounters* counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<mrvd::Dispatcher> inner_;
  DayProbe* probe_;
  double et_sink_ = 0.0;  ///< consumes the sampled ET values
};

/// One replay of a built day.
struct DayRun {
  mrvd::SimResult result;
  std::unique_ptr<DayProbe> probe;
};

/// Runs `sim` under `config` (use sim.config() for the workload's own),
/// untraced (one clock read per batch, the registry dispatcher called
/// directly) or traced (TimedDispatcher + every stamp).
mrvd::StatusOr<DayRun> RunDay(const mrvd::Simulation& sim,
                              const mrvd::SimConfig& config,
                              const std::string& dispatcher, bool traced);

/// Empty when the deterministic parts of two results agree bit for bit,
/// else the first field that differs.
std::string DiffResults(const mrvd::SimResult& a, const mrvd::SimResult& b);

}  // namespace perfbench
