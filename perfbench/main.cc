// The repo's benchmark: replays one workload through the public API,
// checks its outputs, and prints every metric. See perfbench/README.md
// for the workloads, the metrics and the layer map; run it through
// run.py, which builds this program first:
//
// python3 perfbench/run.py --workload paper-day --seed 1 --seconds 34 --trace 0
//
// The last line of stdout is one JSON object {correct, attempted, failed,
// metrics}; --trace 0 reports the end-to-end metrics of untraced runs,
// --trace 1 the per-layer metrics of a separate traced run. Exit code 1
// when any correctness check failed, 2 on a usage error, 3 when the build
// is not an optimized, unsanitized one.
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The names and units BENCHMARK.json lists, in its order.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},         {"setup_s", "s"},
    {"batch_ms_p50", "ms"},  {"batch_ms_p99", "ms"},
    {"revenue", "fare"},     {"service_rate", "ratio"},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"workload.generate_s", "s"},
    {"prediction.forecast_s", "s"},
    {"api.build_s", "s"},
    {"campaign.catalog_build_s", "s"},
    {"sim.prebuild_s", "s"},
    {"sim.prebuild_us_p50", "us"},
    {"sim.capture_s", "s"},
    {"sim.apply_s", "s"},
    {"sim.batches", "count"},
    {"sim.riders_per_batch", "count"},
    {"sim.drivers_per_batch", "count"},
    {"dispatch.s", "s"},
    {"dispatch.us_p50", "us"},
    {"dispatch.us_p99", "us"},
    {"dispatch.candidate_s", "s"},
    {"dispatch.pairs_per_batch", "count"},
    {"dispatch.assignments", "count"},
    {"dispatch.yield", "ratio"},
    {"dispatch.ls_sweeps", "count"},
    {"dispatch.ls_proposals", "count"},
    {"dispatch.ls_recomputed", "count"},
    {"dispatch.ls_conflict_rate", "ratio"},
    {"queueing.et_us", "us"},
    {"threads.prebuild_speedup", "x"},
    {"threads.dispatch_speedup", "x"},
    {"campaign.parallel_eff", "ratio"},
    {"campaign.cell_s_p50", "s"},
    {"campaign.cell_s_max", "s"},
    {"campaign.cell_s.IRG", "s"},
    {"campaign.cell_s.LS", "s"},
    {"campaign.cell_s.LTG", "s"},
    {"campaign.cell_s.NEAR", "s"},
    {"campaign.cell_s.POLAR", "s"},
    {"campaign.cell_s.RAND", "s"},
    {"campaign.cell_s.SHORT", "s"},
    {"campaign.cell_s.UPPER", "s"},
    {"campaign.resume_s", "s"},
    {"campaign.artifact_bytes", "bytes"},
    {"scenario.events", "count"},
    {"trace.unattributed_frac", "ratio"},
    {"trace.overhead", "x"},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 5;
/// Concurrent cells of the roster-sweep campaign.
constexpr int kCampaignThreads = 4;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_build/out";
};

/// One measured value and the samples behind it.
struct Metric {
  double value = 0.0;
  int64_t samples = 1;
};
using Sample = std::map<std::string, Metric>;

/// What a whole invocation measured and checked.
struct Outcome {
  std::vector<Sample> reps;  ///< one per repetition of the timed phase
  Sample once;               ///< measured once per invocation
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
  SpanLog spans;

  void Fail(const std::string& what) {
    failures.push_back(what);
    ++failed;
  }
};

std::string BuildSanitizer() {
  std::string s = PERFBENCH_SANITIZE;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  if (s.empty()) s = "compiler-detected";
#endif
  return s.empty() ? "none" : s;
}

std::string EnvStamp() {
  std::ostringstream os;
  os << "nproc=" << std::thread::hardware_concurrency()
     << " build_type=" << PERFBENCH_BUILD_TYPE
     << " sanitizer=" << BuildSanitizer() << " compiler=";
#if defined(__clang__)
  os << "clang-" << __clang_major__ << "." << __clang_minor__;
#elif defined(__GNUC__)
  os << "gcc-" << __GNUC__ << "." << __GNUC_MINOR__ << "."
     << __GNUC_PATCHLEVEL__;
#else
  os << "unknown";
#endif
  return os.str();
}

bool OptimizedBuild() {
  const std::string type = PERFBENCH_BUILD_TYPE;
#ifndef NDEBUG
  return false;
#endif
  return (type == "Release" || type == "RelWithDebInfo") &&
         BuildSanitizer() == "none";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Counts a run's batches and failed batches, and runs its result checks.
void Account(const std::string& label, const DayRun& run, Outcome* out) {
  const DayProbe& p = *run.probe;
  out->attempted += static_cast<int64_t>(p.batch_seconds.size());
  out->failed += p.failed_batches;
  if (p.failed_batches > 0) {
    out->failures.push_back(
        label + ": " + std::to_string(p.failed_batches) + " failed batches (" +
        std::to_string(p.slow_batches) + " over the batch interval, " +
        std::to_string(p.mismatched_batches) + " proposed != applied, " +
        std::to_string(p.deadline_violations) + " Def.-3 pickups late)");
  }
  std::vector<std::string> failures;
  p.CheckResult(run.result, &failures);
  for (const std::string& f : failures) out->Fail(label + ": " + f);
}

void ExpectSame(const std::string& label, const mrvd::SimResult& a,
                const mrvd::SimResult& b, Outcome* out) {
  const std::string diff = DiffResults(a, b);
  if (!diff.empty()) out->Fail(label + ": results differ in " + diff);
}

/// Per-layer metrics of one traced run (`untraced` is the same inputs'
/// untraced run, for the tracing overhead).
void TracedLayers(const DayRun& traced, const DayRun& untraced, Sample* s) {
  const DayProbe& p = *traced.probe;
  int64_t prebuild = 0, capture = 0, dispatch = 0, candidates = 0, et = 0,
          apply = 0, pairs = 0, et_calls = 0;
  std::vector<double> prebuild_us, dispatch_us;
  for (const BatchStamps& b : p.stamps) {
    prebuild += b.built - b.start;
    capture += b.entry - b.built;
    dispatch += b.exit - b.entry;
    candidates += b.candidates_end - b.exit;
    et += b.et_end - b.candidates_end;
    apply += b.end - b.et_end;
    pairs += b.pairs;
    et_calls += b.et_calls;
    prebuild_us.push_back(static_cast<double>(b.built - b.start) * 1e-3);
    dispatch_us.push_back(static_cast<double>(b.exit - b.entry) * 1e-3);
  }
  const auto batches = static_cast<int64_t>(p.stamps.size());
  const double n = static_cast<double>(batches);
  const double wall = p.WallSeconds();
  const double attributed = Seconds(prebuild + capture + dispatch + apply);
  (*s)["sim.prebuild_s"] = {Seconds(prebuild), batches};
  (*s)["sim.prebuild_us_p50"] = {Median(prebuild_us), batches};
  (*s)["sim.capture_s"] = {Seconds(capture), batches};
  (*s)["sim.apply_s"] = {Seconds(apply), batches};
  (*s)["sim.batches"] = {n, 1};
  (*s)["sim.riders_per_batch"] = {Ratio(p.riders_offered, n), batches};
  (*s)["sim.drivers_per_batch"] = {Ratio(p.drivers_offered, n), batches};
  (*s)["dispatch.s"] = {Seconds(dispatch), batches};
  (*s)["dispatch.us_p50"] = {Median(dispatch_us), batches};
  (*s)["dispatch.us_p99"] = {Quantile(dispatch_us, 0.99), batches};
  (*s)["dispatch.candidate_s"] = {Seconds(candidates), batches};
  (*s)["dispatch.pairs_per_batch"] = {Ratio(static_cast<double>(pairs), n),
                                      batches};
  (*s)["dispatch.assignments"] = {static_cast<double>(p.proposed), 1};
  (*s)["dispatch.yield"] = {
      Ratio(static_cast<double>(p.proposed), p.riders_offered), batches};
  (*s)["dispatch.ls_sweeps"] = {static_cast<double>(p.ls_sweeps), 1};
  (*s)["dispatch.ls_proposals"] = {static_cast<double>(p.ls_proposals), 1};
  (*s)["dispatch.ls_recomputed"] = {static_cast<double>(p.ls_recomputed), 1};
  (*s)["dispatch.ls_conflict_rate"] = {
      Ratio(static_cast<double>(p.ls_recomputed), p.ls_proposals), 1};
  (*s)["queueing.et_us"] = {
      Ratio(static_cast<double>(et) * 1e-3, static_cast<double>(et_calls)),
      et_calls};
  (*s)["trace.unattributed_frac"] = {Ratio(wall - attributed, wall), 1};
  (*s)["trace.overhead"] = {Ratio(wall, untraced.probe->WallSeconds()), 1};
}

/// Whether another repetition is expected to end within `seconds` of
/// `start_ns`: the time spent so far plus the mean repetition.
bool AnotherRepFits(int64_t start_ns, size_t reps, double seconds) {
  const double elapsed = Seconds(NowNs() - start_ns);
  return elapsed + elapsed / static_cast<double>(reps) <= seconds;
}

/// Sets up `w` kSetupRepeats times; the medians land in `out->once` and the
/// last set-up is returned.
std::optional<DaySetup> SetUpRepeatedly(const DayWorkload& w, uint64_t seed,
                                        Outcome* out) {
  std::vector<double> gen, forecast, build, total;
  std::optional<DaySetup> kept;
  for (int i = 0; i < kSetupRepeats; ++i) {
    kept.reset();  // one day alive at a time
    mrvd::StatusOr<DaySetup> setup = SetUpDay(w, seed);
    if (!setup.ok()) {
      out->Fail("set-up failed: " + setup.status().ToString());
      return std::nullopt;
    }
    gen.push_back(setup->generate_s);
    forecast.push_back(setup->forecast_s);
    build.push_back(setup->build_s);
    total.push_back(setup->reference_s);
    kept.emplace(std::move(setup).value());
  }
  out->once["setup_s"] = {Median(total), kSetupRepeats};
  out->once["workload.generate_s"] = {Median(gen), kSetupRepeats};
  out->once["prediction.forecast_s"] = {Median(forecast), kSetupRepeats};
  out->once["api.build_s"] = {Median(build), kSetupRepeats};
  return kept;
}

/// Times WorkloadCatalog::Build of `specs`, the builds the campaign pays
/// for its cells, kSetupRepeats times. The median is both setup_s and
/// campaign.catalog_build_s. Returns the first spec's Simulation.
std::optional<mrvd::Simulation> TimeCatalogBuilds(
    const std::vector<std::string>& specs, Outcome* out) {
  std::vector<double> totals;
  std::optional<mrvd::Simulation> first;
  for (int i = 0; i < kSetupRepeats; ++i) {
    first.reset();
    double seconds = 0.0;
    for (const std::string& spec : specs) {
      const int64_t t0 = NowNs();
      mrvd::StatusOr<mrvd::Simulation> sim =
          mrvd::WorkloadCatalog::Global().Build(spec);
      seconds += Seconds(NowNs() - t0) * HostSpeed().Factor();
      if (!sim.ok()) {
        out->Fail("catalog build: " + sim.status().ToString());
        return std::nullopt;
      }
      if (!first) first.emplace(std::move(sim).value());
    }
    totals.push_back(seconds);
  }
  const Metric build{Median(totals), kSetupRepeats};
  out->once["setup_s"] = build;
  out->once["campaign.catalog_build_s"] = build;
  return first;
}

/// The day workloads: untraced replays for the end-to-end metrics, plus a
/// traced replay per repetition under --trace 1.
void RunDayWorkload(const Args& args, const DayWorkload& w, Outcome* out) {
  const std::optional<DaySetup> setup = SetUpRepeatedly(w, args.seed, out);
  if (!setup) return;
  const mrvd::Simulation& sim = *setup->sim;
  int64_t requested = 0;
  for (const mrvd::Order& o : sim.workload().orders) {
    requested += o.request_time < w.horizon_seconds ? 1 : 0;
  }

  std::optional<mrvd::SimResult> reference;
  const int64_t start = NowNs();
  do {
    Sample s;
    mrvd::StatusOr<DayRun> untraced =
        RunDay(sim, sim.config(), w.dispatcher, /*traced=*/false);
    if (!untraced.ok()) {
      out->Fail("run failed: " + untraced.status().ToString());
      return;
    }
    Account("untraced run", *untraced, out);
    const mrvd::SimResult& r = untraced->result;
    if (reference) {
      ExpectSame("repeat run", *reference, r, out);
    } else {
      reference = r;
    }
    const std::vector<double>& batch_s =
        untraced->probe->reference_batch_seconds;
    const auto batches = static_cast<int64_t>(batch_s.size());
    s["wall_s"] = {untraced->probe->ReferenceWallSeconds(), 1};
    const double raw_wall = untraced->probe->WallSeconds();
    s["batch_ms_p50"] = {Quantile(batch_s, 0.5) * 1e3, batches};
    s["batch_ms_p99"] = {Quantile(batch_s, 0.99) * 1e3, batches};
    s["revenue"] = {r.total_revenue, 1};
    s["service_rate"] = {
        Ratio(static_cast<double>(r.served_orders), requested), 1};

    if (args.trace) {
      mrvd::StatusOr<DayRun> traced =
          RunDay(sim, sim.config(), w.dispatcher, /*traced=*/true);
      if (!traced.ok()) {
        out->Fail("traced run failed: " + traced.status().ToString());
        return;
      }
      Account("traced run", *traced, out);
      ExpectSame("traced vs untraced", r, traced->result, out);
      TracedLayers(*traced, *untraced, &s);
      if (w.compare_threads > 0) {
        mrvd::SimConfig threaded_config = sim.config();
        threaded_config.num_threads = w.compare_threads;
        mrvd::StatusOr<DayRun> threaded =
            RunDay(sim, threaded_config, w.dispatcher, /*traced=*/true);
        if (!threaded.ok()) {
          out->Fail("threaded run failed: " + threaded.status().ToString());
          return;
        }
        const std::string label =
            std::to_string(w.compare_threads) + "-thread traced run";
        Account(label, *threaded, out);
        ExpectSame(label, r, threaded->result, out);
        Sample threaded_layers;
        TracedLayers(*threaded, *untraced, &threaded_layers);
        s["threads.prebuild_speedup"] = {
            Ratio(s["sim.prebuild_s"].value,
                  threaded_layers["sim.prebuild_s"].value),
            1};
        s["threads.dispatch_speedup"] = {
            Ratio(s["dispatch.s"].value, threaded_layers["dispatch.s"].value),
            1};
      }
      if (out->spans.spans().empty()) traced->probe->ExportSpans(&out->spans);
    }
    std::printf("# rep %zu: wall_s=%.6f (raw %.6f s)\n", out->reps.size(),
                s["wall_s"].value, raw_wall);
    out->reps.push_back(std::move(s));
  } while (AnotherRepFits(start, out->reps.size(), args.seconds));
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// roster-sweep: the campaign grid run into a fresh artifact directory,
/// then resumed over it. An operation is a grid cell.
void RunRoster(const Args& args, Outcome* out) {
  const mrvd::CampaignSpec spec = RosterSpec(args.seed);
  const std::optional<mrvd::Simulation> first_day =
      TimeCatalogBuilds(spec.workloads, out);
  if (!first_day) return;
  const mrvd::DispatcherRegistry& registry = mrvd::DispatcherRegistry::Global();

  double ls_cell_revenue = -1.0;  // day 0, scenario none, LS
  const int64_t start = NowNs();
  int rep = 0;
  do {
    Sample s;
    const std::string dir = args.out_dir + "/roster-" +
                            std::to_string(getpid()) + "-" +
                            std::to_string(rep++);
    fs::remove_all(dir);
    mrvd::CampaignRunner runner(spec, dir);
    mrvd::CampaignOptions options;
    options.num_threads = kCampaignThreads;

    std::optional<SpeedSampler> speed(std::in_place);
    const int64_t t0 = NowNs();
    mrvd::StatusOr<mrvd::CampaignReport> run = runner.Run(options);
    const int64_t t1 = NowNs();
    const double run_factor = speed->Stop();
    if (!run.ok()) {
      out->Fail("campaign run: " + run.status().ToString());
      return;
    }
    const std::string run_manifest = ReadFile(runner.store().ManifestPath());
    const uint64_t artifact_bytes = DirectoryBytes(dir);
    speed.emplace();
    const int64_t t2 = NowNs();
    mrvd::StatusOr<mrvd::CampaignReport> resume = runner.Resume(options);
    const int64_t t3 = NowNs();
    const double resume_factor = speed->Stop();
    if (!resume.ok()) {
      out->Fail("campaign resume: " + resume.status().ToString());
      return;
    }
    const std::string resume_manifest = ReadFile(runner.store().ManifestPath());
    fs::remove_all(dir);

    const size_t cells = run->cells.size();
    out->attempted += static_cast<int64_t>(cells);
    int64_t bad_cells = 0;  // failed in Run, or not reloaded by Resume
    double revenue = 0.0, cell_total = 0.0;
    int64_t served = 0, orders = 0, events = 0;
    std::vector<double> cell_s, cell_batch_ms;
    std::map<std::string, std::vector<double>> by_dispatcher;
    for (size_t i = 0; i < cells; ++i) {
      const mrvd::CellOutcome& c = run->cells[i];
      const bool reloaded =
          i < resume->cells.size() &&
          resume->cells[i].source == mrvd::CellOutcome::Source::kLoaded;
      if (c.source != mrvd::CellOutcome::Source::kExecuted || !c.live ||
          !reloaded) {
        ++bad_cells;
        continue;
      }
      const mrvd::RunArtifact& a = c.artifact;
      const mrvd::SimResult& r = c.live->result;
      revenue += a.revenue;
      served += a.served;
      orders += a.total_orders;
      events += r.driver_sign_ons + r.driver_sign_offs + r.cancelled_orders +
                r.surge_changes;
      cell_total += c.live->wall_seconds;
      cell_s.push_back(c.live->wall_seconds);
      cell_batch_ms.push_back(Ratio(c.live->wall_seconds * run_factor * 1e3,
                                    static_cast<double>(a.num_batches)));
      by_dispatcher[a.dispatcher_name].push_back(c.live->wall_seconds);
      if (c.cell.workload_index == 0 && c.cell.scenario_index == 0 &&
          a.dispatcher_name == "LS") {
        ls_cell_revenue = a.revenue;
      }
    }
    if (bad_cells > 0) {
      out->failures.push_back(std::to_string(bad_cells) +
                              " cells failed or did not reload");
      out->failed += bad_cells;
    }
    if (resume->executed != 0 || resume->failed != 0) {
      out->Fail("resume re-executed " + std::to_string(resume->executed) +
                " and failed " + std::to_string(resume->failed) + " cells");
    }
    if (run->manifest_json != resume->manifest_json ||
        run_manifest != resume_manifest || run_manifest.empty()) {
      out->Fail("resume manifest is not byte-identical to the run's");
    }

    const auto n = static_cast<int64_t>(cell_s.size());
    s["wall_s"] = {
        Seconds(t1 - t0) * run_factor + Seconds(t3 - t2) * resume_factor, 1};
    s["batch_ms_p50"] = {Quantile(cell_batch_ms, 0.5), n};
    s["batch_ms_p99"] = {Quantile(cell_batch_ms, 0.99), n};
    s["revenue"] = {revenue, n};
    s["service_rate"] = {
        Ratio(static_cast<double>(served), static_cast<double>(orders)), n};
    s["campaign.parallel_eff"] = {
        Ratio(cell_total, kCampaignThreads * Seconds(t1 - t0)), n};
    s["campaign.cell_s_p50"] = {Quantile(cell_s, 0.5), n};
    s["campaign.cell_s_max"] = {Quantile(cell_s, 1.0), n};
    for (const std::string& name : registry.Names()) {
      const std::vector<double>& v = by_dispatcher[name];
      double sum = 0.0;
      for (double x : v) sum += x;
      s["campaign.cell_s." + name] = {
          Ratio(sum, static_cast<double>(v.size())),
          static_cast<int64_t>(v.size())};
    }
    s["campaign.resume_s"] = {Seconds(t3 - t2), 1};
    s["campaign.artifact_bytes"] = {static_cast<double>(artifact_bytes), 1};
    s["scenario.events"] = {static_cast<double>(events), n};
    std::printf("# rep %zu: wall_s=%.6f (raw %.6f s)\n", out->reps.size(),
                s["wall_s"].value, Seconds((t1 - t0) + (t3 - t2)));
    out->reps.push_back(std::move(s));
  } while (AnotherRepFits(start, out->reps.size(), args.seconds));

  if (!args.trace) return;
  // Per-layer view of one cell (first day, no scenario, LS), built from
  // the catalog and replayed directly with the probes: the fixed per-batch
  // engine cost of a small city. Its result must match the campaign's
  // artifact for that cell.
  const mrvd::Simulation& sim = *first_day;
  mrvd::StatusOr<DayRun> untraced = RunDay(sim, sim.config(), "LS", false);
  mrvd::StatusOr<DayRun> traced = RunDay(sim, sim.config(), "LS", true);
  if (!untraced.ok() || !traced.ok()) {
    out->Fail("direct cell run failed");
    return;
  }
  Account("direct cell run", *untraced, out);
  Account("traced cell run", *traced, out);
  ExpectSame("traced vs untraced cell", untraced->result, traced->result, out);
  if (untraced->result.total_revenue != ls_cell_revenue) {
    out->Fail("direct cell revenue differs from the campaign artifact");
  }
  Sample layers;
  TracedLayers(*traced, *untraced, &layers);
  for (auto& [name, metric] : layers) out->once[name] = metric;
  traced->probe->ExportSpans(&out->spans);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

/// Final value of each metric: the median over repetitions (or the value
/// measured once), with the samples behind it summed.
Metric Combine(const Outcome& out, const std::string& name, bool* found) {
  const auto once = out.once.find(name);
  if (once != out.once.end()) {
    *found = true;
    return once->second;
  }
  std::vector<double> values;
  Metric m{0.0, 0};
  for (const Sample& s : out.reps) {
    const auto it = s.find(name);
    if (it == s.end()) continue;
    values.push_back(it->second.value);
    m.samples += it->second.samples;
  }
  *found = !values.empty();
  m.value = Median(values);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload paper-day|idle-fleet|roster-sweep "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv[0]);
    return 2;
  }
  const std::string env = EnvStamp();
  std::printf("# perfbench %s\n", env.c_str());
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report numbers from a debug or "
                 "sanitizer build (%s)\n",
                 env.c_str());
    return 3;
  }
  std::error_code ec;
  fs::create_directories(args.out_dir, ec);

  Outcome out;
  if (args.workload == "paper-day") {
    RunDayWorkload(args, kPaperDay, &out);
  } else if (args.workload == "idle-fleet") {
    RunDayWorkload(args, kIdleFleet, &out);
  } else if (args.workload == "roster-sweep") {
    RunRoster(args, &out);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  out.once["peak_rss_mb"] = {PeakRssMb(), 1};

  if (args.trace && !out.spans.spans().empty()) {
    const std::string path = args.out_dir + "/" + args.workload + ".trace.json";
    if (!out.spans.WriteChromeTrace(path, env)) {
      out.Fail("cannot write " + path);
    } else {
      std::printf("# spans: %zu written to %s\n", out.spans.spans().size(),
                  path.c_str());
    }
  }

  std::string metrics;
  const MetricDef* defs = args.trace ? kPerLayer : kEndToEnd;
  const size_t count = args.trace ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < count; ++i) {
    bool found = false;
    const Metric m = Combine(out, defs[i].name, &found);
    // A per-layer metric the workload does not exercise reads 0 (e.g. the
    // campaign metrics of a single-day workload); every end-to-end metric
    // must have been measured.
    if (!found && !args.trace) out.Fail(std::string("no ") + defs[i].name);
    std::printf("# %-28s %20.6f %-6s n=%lld%s\n", defs[i].name, m.value,
                defs[i].unit, static_cast<long long>(m.samples),
                found ? "" : " (not exercised by this workload)");
    metrics += std::string(i == 0 ? "" : ", ") + "\"" + defs[i].name +
               "\": {\"value\": " + FullDigits(m.value) + ", \"unit\": \"" +
               defs[i].unit + "\"}";
  }

  const bool correct = out.failed == 0 && out.failures.empty() &&
                       out.attempted > 0 && !out.reps.empty();
  for (const std::string& f : out.failures) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", f.c_str());
  }
  std::printf("# workload=%s seed=%llu reps=%zu attempted=%lld failed=%lld "
              "failed_frac=%.6g\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              out.reps.size(), static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              Ratio(static_cast<double>(out.failed),
                    static_cast<double>(out.attempted)));
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed), metrics.c_str());
  return correct ? 0 : 1;
}
