// Telemetry subsystem (src/telemetry/ and its engine wiring): LogHistogram
// edge cases (empty / single sample / extreme magnitudes), the registry's
// deterministic-signature contract across repeated runs, StageClock span
// recording in synchronous and async-drain modes (the drain thread's
// shutdown handshake runs under TSan in CI), Chrome-trace export
// well-formedness with spans from several threads, engine stage spans that
// tile each batch and carry the observers' seconds, and bit-identity of
// results with telemetry on vs off.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "api/api.h"
#include "telemetry/metrics.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/json_reader.h"
#include "util/thread_pool.h"

namespace mrvd {
namespace {

namespace fs = std::filesystem;

using telemetry::LogHistogram;
using telemetry::MetricScope;
using telemetry::MetricsRegistry;
using telemetry::TelemetryConfig;
using telemetry::TelemetrySession;
using telemetry::StageClock;

// ------------------------------------------------------------ LogHistogram

TEST(LogHistogramTest, EmptyReportsZeroes) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.zero_count(), 0);
  EXPECT_EQ(h.min(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  EXPECT_EQ(h.P99(), 0.0);
}

TEST(LogHistogramTest, SingleSampleIsEveryQuantile) {
  LogHistogram h;
  h.Add(3.5);
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.min(), 3.5);
  EXPECT_EQ(h.max(), 3.5);
  EXPECT_EQ(h.mean(), 3.5);
  // The [min, max] clamp makes the degenerate case exact, not approximate.
  EXPECT_EQ(h.Quantile(0.0), 3.5);
  EXPECT_EQ(h.P50(), 3.5);
  EXPECT_EQ(h.P95(), 3.5);
  EXPECT_EQ(h.P99(), 3.5);
  EXPECT_EQ(h.Quantile(1.0), 3.5);
}

TEST(LogHistogramTest, NonPositiveAndNonFiniteLandInZeroBucket) {
  LogHistogram h;
  h.Add(0.0);
  h.Add(-2.0);
  h.Add(std::numeric_limits<double>::quiet_NaN());
  h.Add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(h.count(), 4);
  EXPECT_EQ(h.zero_count(), 4);
  EXPECT_TRUE(h.buckets().empty());
  // Every sample sits in the zero bucket, which reports as 0 (clamped into
  // the observed range).
  EXPECT_EQ(h.Quantile(0.5), 0.0);
}

TEST(LogHistogramTest, ExtremeMagnitudesDoNotLoseSamples) {
  LogHistogram h;
  h.Add(1e-300);
  h.Add(1e300);
  EXPECT_EQ(h.count(), 2);
  EXPECT_EQ(h.zero_count(), 0);
  EXPECT_EQ(h.min(), 1e-300);
  EXPECT_EQ(h.max(), 1e300);
  for (double q : {0.0, 0.25, 0.5, 0.75, 0.99, 1.0}) {
    const double v = h.Quantile(q);
    EXPECT_GE(v, h.min()) << q;
    EXPECT_LE(v, h.max()) << q;
  }
}

TEST(LogHistogramTest, BucketBoundsBracketTheSample) {
  LogHistogram h;
  h.Add(0.0123);
  ASSERT_EQ(h.buckets().size(), 1u);
  const int index = h.buckets().begin()->first;
  EXPECT_LE(LogHistogram::BucketLo(index), 0.0123);
  EXPECT_GT(LogHistogram::BucketHi(index), 0.0123);
  // ~2.2% relative bucket width: the bounds are tight around the sample.
  EXPECT_LT(LogHistogram::BucketHi(index) / LogHistogram::BucketLo(index),
            1.03);
}

TEST(LogHistogramTest, QuantilesTrackUniformSamples) {
  LogHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 1000);
  // Bucket resolution is ~2.2%; allow 5% on the interpolated quantiles.
  EXPECT_NEAR(h.P50(), 500.0, 25.0);
  EXPECT_NEAR(h.P95(), 950.0, 48.0);
  EXPECT_NEAR(h.P99(), 990.0, 50.0);
  EXPECT_LE(h.P50(), h.P95());
  EXPECT_LE(h.P95(), h.P99());
  EXPECT_LE(h.P99(), h.max());
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 1000.0);
}

// --------------------------------------------------------- MetricsRegistry

TEST(MetricsRegistryTest, LookupsReturnStablePointers) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.FindCounter("a"), nullptr);
  telemetry::Counter* a = reg.counter("a");
  a->Add(2);
  EXPECT_EQ(reg.counter("a"), a);  // same metric, scope fixed at creation
  EXPECT_EQ(reg.FindCounter("a"), a);
  EXPECT_EQ(reg.FindCounter("a")->value(), 2);
  EXPECT_EQ(reg.FindHistogram("missing"), nullptr);
  EXPECT_EQ(reg.FindGauge("missing"), nullptr);
}

TEST(MetricsRegistryTest, SignatureCoversOnlyDeterministicMetrics) {
  MetricsRegistry reg;
  reg.counter("det.events")->Add(7);
  reg.counter("exec.retries", MetricScope::kExecution)->Add(3);
  reg.histogram("det.samples", MetricScope::kDeterministic)->Add(0.25);
  reg.histogram("exec.seconds")->Add(1.5);  // kExecution default
  reg.gauge("exec.depth")->Set(4.0);

  const std::string signature = reg.DeterministicSignature();
  EXPECT_EQ(signature, "counter det.events=7\nhistogram det.samples#1\n");
}

TEST(MetricsRegistryTest, ToJsonParsesAndCarriesScopes) {
  MetricsRegistry reg;
  reg.counter("engine.batches")->Add(12);
  reg.histogram("engine.dispatch_seconds", MetricScope::kDeterministic)
      ->Add(0.003);
  reg.gauge("runner.threads")->Set(8.0);

  StatusOr<JsonValue> doc = ParseJson(reg.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status();
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* batches = counters->Find("engine.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_EQ(*batches->GetInt64("value"), 12);
  EXPECT_EQ(*batches->GetString("scope"), "deterministic");

  const JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* dispatch = hists->Find("engine.dispatch_seconds");
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(*dispatch->GetInt64("count"), 1);
  EXPECT_EQ(*dispatch->GetString("scope"), "deterministic");

  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  const JsonValue* threads = gauges->Find("runner.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(*threads->GetDouble("value"), 8.0);
  EXPECT_EQ(*threads->GetString("scope"), "execution");
}

// ------------------------------------------------------------ StageClock

/// Unique fresh temp file path, removed on scope exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("mrvd_telemetry_" + tag + "_" +
             std::to_string(reinterpret_cast<uintptr_t>(this)) + ".json");
    fs::remove(path_);
  }
  ~TempFile() { fs::remove(path_); }
  std::string str() const { return path_.string(); }

 private:
  fs::path path_;
};

/// A span's "ts" or "dur" field back in whole nanoseconds (the writer
/// exports nanosecond stamps as microsecond doubles).
int64_t SpanNs(const JsonValue& event, const char* field) {
  return std::llround(*event.GetDouble(field) * 1e3);
}

TEST(TraceSessionTest, SyncModeRecordsNestedSpans) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  double first_seconds = 0.0;
  double second_seconds = 0.0;
  {
    StageClock clock(&session);
    clock.Start();
    first_seconds = clock.Lap("first");
    second_seconds = clock.Lap("second");
    clock.Enclose("outer");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 3);

  TempFile file("sync_nested");
  Status written = session.WriteChromeTrace(file.str());
  ASSERT_TRUE(written.ok()) << written;
  StatusOr<JsonValue> doc = ReadJsonFile(file.str());
  ASSERT_TRUE(doc.ok()) << doc.status();

  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  const JsonValue* outer = nullptr;
  const JsonValue* first = nullptr;
  const JsonValue* second = nullptr;
  bool has_thread_name = false;
  for (const JsonValue& e : events->array()) {
    const std::string ph = *e.GetString("ph");
    if (ph == "M") {
      has_thread_name = true;
      continue;
    }
    ASSERT_EQ(ph, "X");
    const std::string name = *e.GetString("name");
    if (name == "outer") outer = &e;
    if (name == "first") first = &e;
    if (name == "second") second = &e;
  }
  EXPECT_TRUE(has_thread_name);
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(second, nullptr);
  // The laps tile the enclosing span: one reading ends the first stage and
  // starts the second, and each span's duration is the lap's return value.
  EXPECT_EQ(SpanNs(*outer, "ts"), SpanNs(*first, "ts"));
  EXPECT_EQ(SpanNs(*first, "ts") + SpanNs(*first, "dur"),
            SpanNs(*second, "ts"));
  EXPECT_EQ(SpanNs(*outer, "dur"),
            SpanNs(*first, "dur") + SpanNs(*second, "dur"));
  EXPECT_NEAR(static_cast<double>(SpanNs(*first, "dur")),
              first_seconds * 1e9, 1.0);
  EXPECT_NEAR(static_cast<double>(SpanNs(*second, "dur")),
              second_seconds * 1e9, 1.0);
  EXPECT_EQ(*outer->GetInt64("tid"), *first->GetInt64("tid"));
}

TEST(TraceSessionTest, NullAndDisabledSessionsAreNoops) {
  {
    StageClock clock(nullptr);  // must not crash, and still times
    clock.Start();
    EXPECT_GE(clock.Lap("nothing"), 0.0);
    clock.Enclose("nothing_either");
  }
  TelemetryConfig config;
  config.tracing = false;
  config.async_drain = false;
  TelemetrySession session(config);
  {
    StageClock clock(&session);
    clock.Start();
    EXPECT_GE(clock.Lap("dropped"), 0.0);
    clock.Enclose("dropped_too");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 0);
}

TEST(TraceSessionTest, WriteChromeTraceRequiresFinish) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  TempFile file("unfinished");
  EXPECT_FALSE(session.WriteChromeTrace(file.str()).ok());
}

TEST(TraceSessionTest, FinishIsIdempotentAndDropsLateSpans) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  {
    StageClock clock(&session);
    clock.Start();
    clock.Lap("before");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 1);
  {
    StageClock late(&session);  // finished session: records nothing
    late.Start();
    late.Lap("after");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), 1);
}

TEST(TraceSessionTest, AsyncDrainFlushesEverythingOnShutdown) {
  // The TSan stress: many pool workers record through thread-local buffers
  // while the drainer consumes, then Finish() flushes partial chunks and
  // joins. Small chunks force mid-run hand-offs so the drainer actually
  // races the recorders.
  TelemetryConfig config;
  config.chunk_events = 64;
  TelemetrySession session(config);
  constexpr int kTasks = 1000;
  {
    ThreadPool pool(4);
    pool.ParallelFor(kTasks, [&](int i) {
      StageClock clock(&session);
      clock.Start();
      clock.Lap("work");
      if (i % 2 == 0) clock.Lap("more_work");
    });
  }
  {
    StageClock clock(&session);
    clock.Start();
    clock.Lap("main");
  }
  session.Finish();
  EXPECT_EQ(session.drained_events(), kTasks + kTasks / 2 + 1);
}

// -------------------------------------------------- engine + API wiring

class EngineTelemetryTest : public testing::Test {
 protected:
  static SimulationBuilder MakeBuilder() {
    GeneratorConfig gcfg;
    gcfg.grid_rows = 8;
    gcfg.grid_cols = 8;
    gcfg.orders_per_day = 4000;
    gcfg.seed = 20190417;
    SimulationBuilder builder;
    builder.GenerateNycDay(/*day_index=*/1, /*num_drivers=*/40, gcfg)
        .BatchInterval(30.0)
        .HorizonSeconds(2 * 3600.0);
    return builder;
  }
};

TEST_F(EngineTelemetryTest, SimResultReportsLatencyPercentiles) {
  StatusOr<Simulation> sim = MakeBuilder().Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StatusOr<SimResult> result = sim->Run("NEAR");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->num_batches, 0);
  EXPECT_GT(result->dispatch_latency_p50, 0.0);
  EXPECT_LE(result->dispatch_latency_p50, result->dispatch_latency_p95);
  EXPECT_LE(result->dispatch_latency_p95, result->dispatch_latency_p99);
}

TEST_F(EngineTelemetryTest, TelemetryDoesNotChangeResults) {
  StatusOr<Simulation> plain = MakeBuilder().Build();
  ASSERT_TRUE(plain.ok()) << plain.status();
  StatusOr<SimResult> baseline = plain->Run("LS");
  ASSERT_TRUE(baseline.ok()) << baseline.status();

  TelemetrySession session;
  StatusOr<Simulation> instrumented =
      MakeBuilder().WithTelemetry(&session).Build();
  ASSERT_TRUE(instrumented.ok()) << instrumented.status();
  StatusOr<SimResult> with = instrumented->Run("LS");
  ASSERT_TRUE(with.ok()) << with.status();
  session.Finish();

  EXPECT_EQ(with->served_orders, baseline->served_orders);
  EXPECT_EQ(with->reneged_orders, baseline->reneged_orders);
  EXPECT_EQ(with->num_batches, baseline->num_batches);
  EXPECT_EQ(with->total_revenue, baseline->total_revenue);
  EXPECT_EQ(with->dispatch_sweeps, baseline->dispatch_sweeps);
  EXPECT_EQ(with->dispatch_swaps_applied, baseline->dispatch_swaps_applied);
}

TEST_F(EngineTelemetryTest, DeterministicSignatureIdenticalAcrossRuns) {
  std::vector<std::string> signatures;
  for (int run = 0; run < 2; ++run) {
    TelemetrySession session;
    StatusOr<Simulation> sim = MakeBuilder().WithTelemetry(&session).Build();
    ASSERT_TRUE(sim.ok()) << sim.status();
    StatusOr<SimResult> result = sim->Run("LS");
    ASSERT_TRUE(result.ok()) << result.status();
    session.Finish();

    const MetricsRegistry& reg = session.metrics();
    ASSERT_NE(reg.FindCounter("engine.batches"), nullptr);
    EXPECT_EQ(reg.FindCounter("engine.batches")->value(),
              result->num_batches);
    ASSERT_NE(reg.FindCounter("engine.assignments"), nullptr);
    EXPECT_EQ(reg.FindCounter("engine.assignments")->value(),
              result->served_orders);
    ASSERT_NE(reg.FindHistogram("engine.dispatch_seconds"), nullptr);
    EXPECT_EQ(reg.FindHistogram("engine.dispatch_seconds")->count(),
              result->num_batches);
    // Candidate-search work counts: exact per run, so a complexity
    // regression shows as a changed count, not as noisy wall time.
    for (const char* name :
         {"candidates.regions_visited", "candidates.drivers_scanned",
          "candidates.pairs"}) {
      ASSERT_NE(reg.FindCounter(name), nullptr) << name;
      EXPECT_GT(reg.FindCounter(name)->value(), 0) << name;
    }
    EXPECT_LE(reg.FindCounter("candidates.pairs")->value(),
              reg.FindCounter("candidates.drivers_scanned")->value());
    signatures.push_back(reg.DeterministicSignature());
    EXPECT_FALSE(signatures.back().empty());
  }
  EXPECT_EQ(signatures[0], signatures[1]);
}

TEST_F(EngineTelemetryTest, ChromeTraceFromParallelRunIsWellFormed) {
  TelemetrySession session;  // tracing on, async drain on
  StatusOr<Simulation> sim = MakeBuilder().WithTelemetry(&session).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  // Pool workers record spans into their own buffers while the engine runs
  // on this thread, so the trace holds spans from several threads.
  constexpr int kWorkers = 3;
  constexpr int kProbeSpans = 200;
  ThreadPool pool(kWorkers);
  std::vector<std::future<void>> probes;
  for (int w = 0; w < kWorkers; ++w) {
    probes.push_back(pool.Submit([&session] {
      StageClock clock(&session);
      clock.Start();
      for (int i = 0; i < kProbeSpans; ++i) clock.Lap("worker_probe");
    }));
  }
  StatusOr<SimResult> result = sim->Run("LS");
  for (auto& f : probes) f.get();
  ASSERT_TRUE(result.ok()) << result.status();
  session.Finish();
  EXPECT_GT(session.drained_events(), 0);

  TempFile file("engine_trace");
  Status written = session.WriteChromeTrace(file.str());
  ASSERT_TRUE(written.ok()) << written;
  StatusOr<JsonValue> doc = ReadJsonFile(file.str());
  ASSERT_TRUE(doc.ok()) << doc.status();

  const JsonValue* events = doc->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  int64_t batch_spans = 0;
  int64_t dispatch_spans = 0;
  int64_t probe_spans = 0;
  std::set<int64_t> tids;
  for (const JsonValue& e : events->array()) {
    if (*e.GetString("ph") != "X") continue;
    const int64_t tid = *e.GetInt64("tid");
    EXPECT_GE(tid, 1);
    tids.insert(tid);
    EXPECT_GE(*e.GetDouble("ts"), 0.0);
    EXPECT_GE(*e.GetDouble("dur"), 0.0);
    const std::string name = *e.GetString("name");
    if (name == "batch") ++batch_spans;
    if (name == "dispatch") ++dispatch_spans;
    if (name == "worker_probe") ++probe_spans;
  }
  // One batch span and one nested dispatch span per engine batch.
  EXPECT_EQ(batch_spans, result->num_batches);
  EXPECT_EQ(dispatch_spans, result->num_batches);
  EXPECT_EQ(probe_spans, kWorkers * kProbeSpans);
  EXPECT_GT(tids.size(), 1u);
}

/// Records the seconds the engine hands to OnBatchBuilt / OnDispatchDone.
class StageSecondsRecorder final : public SimObserver {
 public:
  void OnBatchBuilt(double /*now*/, double build_seconds,
                    const BatchContext& /*ctx*/) override {
    build.push_back(build_seconds);
  }
  void OnDispatchDone(double /*now*/, double dispatch_seconds,
                      const std::vector<Assignment>& /*a*/) override {
    dispatch.push_back(dispatch_seconds);
  }

  std::vector<double> build;
  std::vector<double> dispatch;
};

TEST_F(EngineTelemetryTest, StageSpansTileEachBatch) {
  TelemetryConfig config;
  config.async_drain = false;
  TelemetrySession session(config);
  StatusOr<Simulation> sim = MakeBuilder().WithTelemetry(&session).Build();
  ASSERT_TRUE(sim.ok()) << sim.status();
  StageSecondsRecorder recorder;
  StatusOr<SimResult> result = sim->Run("LS", &recorder);
  ASSERT_TRUE(result.ok()) << result.status();
  session.Finish();
  ASSERT_EQ(recorder.build.size(), static_cast<size_t>(result->num_batches));
  ASSERT_EQ(recorder.dispatch.size(),
            static_cast<size_t>(result->num_batches));

  TempFile file("stage_tiling");
  Status written = session.WriteChromeTrace(file.str());
  ASSERT_TRUE(written.ok()) << written;
  StatusOr<JsonValue> doc = ReadJsonFile(file.str());
  ASSERT_TRUE(doc.ok()) << doc.status();

  // The engine's stages in order; LS spans nest inside dispatch and are
  // not stages of the batch.
  const std::vector<std::string> stage_names = {
      "release_finished", "inject_arrivals", "scenario_events",
      "remove_expired",   "batch_build",     "capture_idle",
      "dispatch",         "assignment_apply"};
  struct Batch {
    int64_t ts = 0;
    int64_t dur = 0;
    std::vector<std::string> names;
    std::vector<int64_t> ts_of, dur_of;
  };
  std::vector<Batch> batches;
  for (const JsonValue& e : doc->Find("traceEvents")->array()) {
    if (*e.GetString("ph") != "X") continue;
    const std::string name = *e.GetString("name");
    if (name == "batch") {
      batches.push_back({SpanNs(e, "ts"), SpanNs(e, "dur"), {}, {}, {}});
    } else if (std::find(stage_names.begin(), stage_names.end(), name) !=
               stage_names.end()) {
      ASSERT_FALSE(batches.empty()) << name << " outside any batch";
      batches.back().names.push_back(name);
      batches.back().ts_of.push_back(SpanNs(e, "ts"));
      batches.back().dur_of.push_back(SpanNs(e, "dur"));
    }
  }

  size_t full = 0;
  for (const Batch& b : batches) {
    ASSERT_FALSE(b.names.empty());
    // Every stage starts where the previous one ended, the first where the
    // batch starts, and the durations add up to the batch span exactly.
    int64_t cursor = b.ts;
    for (size_t k = 0; k < b.names.size(); ++k) {
      EXPECT_EQ(b.names[k], stage_names[k]);
      EXPECT_EQ(b.ts_of[k], cursor) << b.names[k];
      cursor += b.dur_of[k];
    }
    EXPECT_EQ(cursor, b.ts + b.dur);
    if (b.names.size() != stage_names.size()) continue;  // final early exit
    // The one reading that makes the span is the seconds observers see.
    ASSERT_LT(full, recorder.build.size());
    EXPECT_NEAR(static_cast<double>(b.dur_of[4]), recorder.build[full] * 1e9,
                1.0);
    EXPECT_NEAR(static_cast<double>(b.dur_of[6]),
                recorder.dispatch[full] * 1e9, 1.0);
    ++full;
  }
  EXPECT_EQ(full, static_cast<size_t>(result->num_batches));
}

}  // namespace
}  // namespace mrvd
