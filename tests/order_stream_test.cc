// The binary order-trace format and its streaming ingestion path:
// writer/reader round-trips, the TLC-CSV converter against a direct parse,
// header/version/truncation corruption handling, refill-on-drain buffer
// boundaries down to one byte, the OrderSource seam, and the headline
// guarantee — a streamed run is bit-identical to a materialised run of the
// same trace across the dispatcher roster.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/api.h"
#include "campaign/workload_catalog.h"
#include "geo/travel.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/order_source.h"
#include "workload/order_stream.h"
#include "workload/tlc_parser.h"

namespace mrvd {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("mrvd_order_stream_test_" + std::to_string(getpid()) + "_" + name))
      .string();
}

std::string CsvFixturePath() {
  return std::string(MRVD_TEST_DATA_DIR) + "/tlc_trips_sample.csv";
}

/// Registry-built dispatcher with its declared parameter defaults.
std::unique_ptr<Dispatcher> MakeDispatcher(const std::string& name) {
  StatusOr<std::unique_ptr<Dispatcher>> d =
      DispatcherRegistry::Global().Create(name);
  EXPECT_TRUE(d.ok()) << d.status();
  return d.ok() ? std::move(d).value() : nullptr;
}

/// A small deterministic workload with non-trivial join times and
/// deadlines; every double should survive the trace bit-for-bit.
Workload MakeWorkload(int num_orders, int num_drivers) {
  Workload w;
  Rng rng(7);
  double t = 0.0;
  for (int i = 0; i < num_orders; ++i) {
    Order o;
    o.id = i;
    o.request_time = t;
    o.pickup = LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                  kNycBoundingBox.lat_max),
                      rng.Uniform(kNycBoundingBox.lon_min,
                                  kNycBoundingBox.lon_max)};
    o.dropoff = LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                   kNycBoundingBox.lat_max),
                       rng.Uniform(kNycBoundingBox.lon_min,
                                   kNycBoundingBox.lon_max)};
    o.pickup_deadline = t + 120.0 + rng.Uniform(1.0, 10.0);
    w.orders.push_back(o);
    t += rng.Exponential(0.5);  // non-decreasing, frequently equal-free
  }
  for (int j = 0; j < num_drivers; ++j) {
    DriverSpec d;
    d.id = j;
    d.origin = LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                  kNycBoundingBox.lat_max),
                      rng.Uniform(kNycBoundingBox.lon_min,
                                  kNycBoundingBox.lon_max)};
    d.join_time = j % 3 == 0 ? 600.0 : 0.0;
    w.drivers.push_back(d);
  }
  w.horizon_seconds = t + 1800.0;
  return w;
}

void ExpectSameOrders(const std::vector<Order>& a,
                      const std::vector<Order>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "order " << i;
    EXPECT_EQ(a[i].request_time, b[i].request_time) << "order " << i;
    EXPECT_EQ(a[i].pickup.lat, b[i].pickup.lat) << "order " << i;
    EXPECT_EQ(a[i].pickup.lon, b[i].pickup.lon) << "order " << i;
    EXPECT_EQ(a[i].dropoff.lat, b[i].dropoff.lat) << "order " << i;
    EXPECT_EQ(a[i].dropoff.lon, b[i].dropoff.lon) << "order " << i;
    EXPECT_EQ(a[i].pickup_deadline, b[i].pickup_deadline) << "order " << i;
  }
}

void ExpectSameDrivers(const std::vector<DriverSpec>& a,
                       const std::vector<DriverSpec>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "driver " << i;
    EXPECT_EQ(a[i].origin.lat, b[i].origin.lat) << "driver " << i;
    EXPECT_EQ(a[i].origin.lon, b[i].origin.lon) << "driver " << i;
    EXPECT_EQ(a[i].join_time, b[i].join_time) << "driver " << i;
  }
}

/// RAII temp trace of a workload.
class TraceFile {
 public:
  explicit TraceFile(const Workload& w, const std::string& name = "rt.trace")
      : path_(TempPath(name)) {
    Status st = WriteOrderTrace(path_, w);
    EXPECT_TRUE(st.ok()) << st;
  }
  ~TraceFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(OrderTraceFormatTest, RoundTripsWorkloadBitExactly) {
  Workload w = MakeWorkload(/*num_orders=*/200, /*num_drivers=*/17);
  TraceFile trace(w);

  StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(trace.path());
  ASSERT_TRUE(info.ok()) << info.status();
  EXPECT_EQ(info->version, kOrderTraceVersion);
  EXPECT_EQ(info->order_count, 200);
  EXPECT_EQ(info->driver_count, 17);
  EXPECT_EQ(info->horizon_seconds, w.horizon_seconds);
  EXPECT_EQ(info->first_request_time, w.orders.front().request_time);
  EXPECT_EQ(info->last_request_time, w.orders.back().request_time);
  EXPECT_EQ(info->file_bytes,
            static_cast<int64_t>(kOrderTraceHeaderBytes +
                                 17 * kDriverRecordBytes +
                                 200 * kOrderRecordBytes));
  EXPECT_EQ(static_cast<uint64_t>(info->file_bytes),
            std::filesystem::file_size(trace.path()));

  StatusOr<Workload> back = ReadOrderTrace(trace.path());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->horizon_seconds, w.horizon_seconds);
  ExpectSameOrders(w.orders, back->orders);
  ExpectSameDrivers(w.drivers, back->drivers);
}

TEST(OrderTraceFormatTest, ReadOrderTraceHonoursMaxOrders) {
  Workload w = MakeWorkload(50, 4);
  TraceFile trace(w);
  StatusOr<Workload> capped = ReadOrderTrace(trace.path(), /*max_orders=*/10);
  ASSERT_TRUE(capped.ok()) << capped.status();
  ASSERT_EQ(capped->orders.size(), 10u);
  w.orders.resize(10);
  ExpectSameOrders(w.orders, capped->orders);
}

TEST(OrderTraceFormatTest, EmptyTraceRoundTrips) {
  Workload w;
  w.horizon_seconds = 3600.0;
  TraceFile trace(w, "empty.trace");
  StatusOr<Workload> back = ReadOrderTrace(trace.path());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_TRUE(back->orders.empty());
  EXPECT_TRUE(back->drivers.empty());
  EXPECT_EQ(back->horizon_seconds, 3600.0);
}

TEST(OrderStreamWriterTest, RejectsOutOfOrderAndLateDrivers) {
  const std::string path = TempPath("writer.trace");
  StatusOr<std::unique_ptr<OrderStreamWriter>> writer =
      OrderStreamWriter::Create(path, 3600.0);
  ASSERT_TRUE(writer.ok()) << writer.status();

  Order o;
  o.id = 0;
  o.request_time = 100.0;
  o.pickup_deadline = 230.0;
  ASSERT_TRUE((*writer)->AddOrder(o).ok());

  // Drivers precede orders on disk; adding one now must fail.
  EXPECT_FALSE((*writer)->AddDriver(DriverSpec{}).ok());

  o.request_time = 99.0;  // decreasing
  EXPECT_FALSE((*writer)->AddOrder(o).ok());
  o.request_time = 100.0;  // equal is fine
  EXPECT_TRUE((*writer)->AddOrder(o).ok());

  // Abandon without Finish(): neither the file nor its temp may remain.
  writer->reset();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(OrderStreamWriterTest, DerivesHorizonWhenUnset) {
  Workload w = MakeWorkload(5, 1);
  const std::string path = TempPath("derived.trace");
  StatusOr<std::unique_ptr<OrderStreamWriter>> writer =
      OrderStreamWriter::Create(path, /*horizon_seconds=*/0.0);
  ASSERT_TRUE(writer.ok()) << writer.status();
  for (const Order& o : w.orders) ASSERT_TRUE((*writer)->AddOrder(o).ok());
  ASSERT_TRUE((*writer)->Finish().ok());
  StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(path);
  std::remove(path.c_str());
  ASSERT_TRUE(info.ok()) << info.status();
  // Last request plus the default 20-minute patience window.
  EXPECT_EQ(info->horizon_seconds, w.orders.back().request_time + 1200.0);
}

TEST(ConverterTest, MatchesDirectCsvParse) {
  TlcParseStats direct_stats;
  StatusOr<Workload> direct = ParseTlcCsv(CsvFixturePath(), /*num_drivers=*/8,
                                          TlcParseOptions{}, &direct_stats);
  ASSERT_TRUE(direct.ok()) << direct.status();

  const std::string path = TempPath("converted.trace");
  TlcParseStats stats;
  Status st = ConvertTlcCsvToTrace(CsvFixturePath(), path, /*num_drivers=*/8,
                                   TlcParseOptions{}, &stats);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(stats.rows_total, direct_stats.rows_total);
  EXPECT_EQ(stats.rows_bad, direct_stats.rows_bad);
  EXPECT_EQ(stats.rows_out_of_box, direct_stats.rows_out_of_box);
  EXPECT_EQ(stats.rows_kept, direct_stats.rows_kept);

  StatusOr<Workload> converted = ReadOrderTrace(path);
  std::remove(path.c_str());
  ASSERT_TRUE(converted.ok()) << converted.status();
  EXPECT_EQ(converted->horizon_seconds, direct->horizon_seconds);
  ExpectSameOrders(direct->orders, converted->orders);
  ExpectSameDrivers(direct->drivers, converted->drivers);
}

TEST(ConverterTest, MissingCsvLeavesNothingBehind) {
  const std::string path = TempPath("never.trace");
  Status st = ConvertTlcCsvToTrace(TempPath("no_such.csv"), path, 4);
  EXPECT_FALSE(st.ok());
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

/// Byte-level fault injection on a freshly written valid trace.
class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload_ = MakeWorkload(20, 3);
    path_ = TempPath("corrupt.trace");
    Status st = WriteOrderTrace(path_, workload_);
    ASSERT_TRUE(st.ok()) << st;
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void PatchBytes(int64_t offset, const void* bytes, size_t n) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.is_open());
    f.seekp(offset);
    f.write(static_cast<const char*>(bytes), static_cast<std::streamsize>(n));
    ASSERT_TRUE(f.good());
  }

  void Truncate(int64_t new_size) {
    std::filesystem::resize_file(path_, static_cast<uintmax_t>(new_size));
  }

  Workload workload_;
  std::string path_;
};

TEST_F(CorruptionTest, BadMagicIsRejected) {
  const char junk = 'X';
  PatchBytes(0, &junk, 1);
  StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(path_);
  ASSERT_FALSE(info.ok());
  EXPECT_NE(info.status().ToString().find("magic"), std::string::npos)
      << info.status();
}

TEST_F(CorruptionTest, FutureVersionIsRejectedWithBothVersions) {
  const uint32_t future = kOrderTraceVersion + 6;
  PatchBytes(8, &future, sizeof(future));  // version field
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  const std::string msg = reader.status().ToString();
  EXPECT_NE(msg.find("version 7"), std::string::npos) << msg;
  EXPECT_NE(msg.find("version 1"), std::string::npos) << msg;
}

TEST_F(CorruptionTest, TruncationIsDetectedAtOpen) {
  // Chop half an order record off the end: the expected size no longer
  // matches, and the error should say how much is missing.
  const auto full = static_cast<int64_t>(std::filesystem::file_size(path_));
  Truncate(full - static_cast<int64_t>(kOrderRecordBytes) - 7);
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("truncated"), std::string::npos)
      << reader.status();
}

TEST_F(CorruptionTest, TrailingBytesAreDetectedAtOpen) {
  std::ofstream f(path_, std::ios::app | std::ios::binary);
  f << "garbage";
  f.close();
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path_);
  ASSERT_FALSE(reader.ok());
  EXPECT_NE(reader.status().ToString().find("trailing"), std::string::npos)
      << reader.status();
}

TEST_F(CorruptionTest, ShortHeaderIsRejected) {
  Truncate(static_cast<int64_t>(kOrderTraceHeaderBytes) - 1);
  StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(path_);
  ASSERT_FALSE(info.ok());
}

TEST_F(CorruptionTest, OutOfOrderRecordTripsStickyStatus) {
  // Rewind order #5's request time to before order #4's: the reader must
  // stop with an error rather than hand the engine a time-travelling order.
  const int64_t orders_offset = static_cast<int64_t>(
      kOrderTraceHeaderBytes + 3 * kDriverRecordBytes);
  const double bogus = workload_.orders[4].request_time - 1.0;
  PatchBytes(orders_offset + 5 * static_cast<int64_t>(kOrderRecordBytes) + 8,
             &bogus, sizeof(bogus));
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(path_);
  ASSERT_TRUE(reader.ok()) << reader.status();
  int64_t seen = 0;
  while ((*reader)->Peek() != nullptr) {
    (*reader)->Pop();
    ++seen;
  }
  EXPECT_EQ(seen, 5);
  EXPECT_FALSE((*reader)->status().ok());
  // Exhaustion and error are distinguishable: Peek() is null in both, but
  // only the error leaves status() non-OK.
  EXPECT_NE((*reader)->status().ToString().find("order"), std::string::npos);
}

TEST(OrderStreamReaderTest, RefillOnDrainWorksAtAllBufferBoundaries) {
  Workload w = MakeWorkload(64, 2);
  TraceFile trace(w, "buffers.trace");
  // One byte, one-under / exact / one-over a record, an exact multiple,
  // and a non-multiple larger than the order section.
  for (size_t buffer_bytes :
       {size_t{1}, kOrderRecordBytes - 1, kOrderRecordBytes,
        kOrderRecordBytes + 1, 4 * kOrderRecordBytes, size_t{10000}}) {
    SCOPED_TRACE("buffer_bytes=" + std::to_string(buffer_bytes));
    StatusOr<std::unique_ptr<OrderStreamReader>> reader =
        OrderStreamReader::Open(trace.path(), buffer_bytes);
    ASSERT_TRUE(reader.ok()) << reader.status();
    ExpectSameDrivers(w.drivers, (*reader)->drivers());
    std::vector<Order> drained;
    while (const Order* o = (*reader)->Peek()) {
      drained.push_back(*o);
      (*reader)->Pop();
    }
    EXPECT_TRUE((*reader)->status().ok()) << (*reader)->status();
    EXPECT_EQ((*reader)->consumed(), 64);
    ExpectSameOrders(w.orders, drained);
  }
}

TEST(OrderStreamReaderTest, PeekIsStableAndRewindReplays) {
  Workload w = MakeWorkload(10, 1);
  TraceFile trace(w, "rewind.trace");
  StatusOr<std::unique_ptr<OrderStreamReader>> reader =
      OrderStreamReader::Open(trace.path());
  ASSERT_TRUE(reader.ok()) << reader.status();

  const Order* first = (*reader)->Peek();
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first, (*reader)->Peek()) << "Peek must not advance";
  EXPECT_EQ((*reader)->consumed(), 0);
  (*reader)->Pop();
  EXPECT_EQ((*reader)->consumed(), 1);

  while ((*reader)->Peek() != nullptr) (*reader)->Pop();
  EXPECT_EQ((*reader)->consumed(), 10);

  ASSERT_TRUE((*reader)->Rewind().ok());
  EXPECT_EQ((*reader)->consumed(), 0);
  std::vector<Order> replay;
  while (const Order* o = (*reader)->Peek()) {
    replay.push_back(*o);
    (*reader)->Pop();
  }
  ExpectSameOrders(w.orders, replay);
}

TEST(OrderSourceTest, StreamingAndMaterializedAgree) {
  Workload w = MakeWorkload(30, 2);
  TraceFile trace(w, "source.trace");
  for (int64_t cap : {int64_t{0}, int64_t{7}, int64_t{100}}) {
    SCOPED_TRACE("cap=" + std::to_string(cap));
    MaterializedOrderSource mat(w.orders, cap);
    StatusOr<std::unique_ptr<OrderStreamReader>> reader =
        OrderStreamReader::Open(trace.path());
    ASSERT_TRUE(reader.ok()) << reader.status();
    StreamingOrderSource stream(std::move(reader).value(), cap);

    const int64_t expect = cap == 0 ? 30 : std::min<int64_t>(cap, 30);
    EXPECT_EQ(mat.total_orders(), expect);
    EXPECT_EQ(stream.total_orders(), expect);
    int64_t n = 0;
    while (true) {
      const Order* a = mat.Peek();
      const Order* b = stream.Peek();
      ASSERT_EQ(a == nullptr, b == nullptr) << "at order " << n;
      if (a == nullptr) break;
      EXPECT_EQ(a->id, b->id);
      EXPECT_EQ(a->request_time, b->request_time);
      EXPECT_EQ(mat.remaining(), stream.remaining());
      mat.Pop();
      stream.Pop();
      ++n;
    }
    EXPECT_EQ(n, expect);
    EXPECT_EQ(mat.remaining(), 0);
    EXPECT_EQ(stream.remaining(), 0);
    ASSERT_TRUE(stream.Rewind().ok());
    EXPECT_EQ(stream.remaining(), expect);
  }
}

/// The headline guarantee: one trace, two ingestion paths, identical
/// simulation — across dispatchers.
TEST(StreamedRunTest, BitIdenticalToMaterialisedAcrossRoster) {
  GeneratorConfig gen_cfg;
  gen_cfg.orders_per_day = 800.0;
  NycLikeGenerator generator(gen_cfg);
  Workload day = generator.GenerateDay(/*day_index=*/2, /*num_drivers=*/25);
  TraceFile trace(day, "sweep.trace");

  SimConfig cfg;
  cfg.horizon_seconds = 7200.0;
  cfg.batch_interval = 20.0;

  StatusOr<Simulation> materialised = SimulationBuilder()
                                          .WithWorkload(day, generator.grid())
                                          .WithConfig(cfg)
                                          .Build();
  ASSERT_TRUE(materialised.ok()) << materialised.status();
  StatusOr<Simulation> streamed = SimulationBuilder()
                                      .StreamTrace(trace.path(),
                                                   generator.grid())
                                      .WithConfig(cfg)
                                      .Build();
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_TRUE(streamed->streaming());
  EXPECT_FALSE(materialised->streaming());

  for (const char* name : {"NEAR", "IRG", "LS", "SHORT"}) {
    SCOPED_TRACE(name);
    auto d1 = MakeDispatcher(name);
    auto d2 = MakeDispatcher(name);
    StatusOr<SimResult> a =
        materialised->RunWith(cfg, *d1, /*scenario=*/nullptr);
    StatusOr<SimResult> b =
        streamed->RunWith(cfg, *d2, /*scenario=*/nullptr);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(a->served_orders, b->served_orders);
    EXPECT_EQ(a->reneged_orders, b->reneged_orders);
    EXPECT_EQ(a->total_orders, b->total_orders);
    EXPECT_EQ(a->num_batches, b->num_batches);
    EXPECT_EQ(a->total_revenue, b->total_revenue);
    EXPECT_EQ(a->served_wait_seconds.mean(), b->served_wait_seconds.mean());
    EXPECT_EQ(a->driver_idle_seconds.mean(), b->driver_idle_seconds.mean());
  }
}

TEST(StreamedRunTest, MaxOrdersCapMatchesCappedMaterialisation) {
  GeneratorConfig gen_cfg;
  gen_cfg.orders_per_day = 400.0;
  NycLikeGenerator generator(gen_cfg);
  Workload day = generator.GenerateDay(1, 15);
  TraceFile trace(day, "cap.trace");

  Workload capped = day;
  capped.orders.resize(100);

  SimConfig cfg;
  cfg.horizon_seconds = 7200.0;
  cfg.batch_interval = 20.0;
  StatusOr<Simulation> a = SimulationBuilder()
                               .WithWorkload(std::move(capped),
                                             generator.grid())
                               .WithConfig(cfg)
                               .Build();
  ASSERT_TRUE(a.ok()) << a.status();
  StatusOr<Simulation> b = SimulationBuilder()
                               .StreamTrace(trace.path(), generator.grid(),
                                            /*max_orders=*/100)
                               .WithConfig(cfg)
                               .Build();
  ASSERT_TRUE(b.ok()) << b.status();
  auto d1 = MakeDispatcher("NEAR");
  auto d2 = MakeDispatcher("NEAR");
  StatusOr<SimResult> ra = a->RunWith(cfg, *d1, nullptr);
  StatusOr<SimResult> rb = b->RunWith(cfg, *d2, nullptr);
  ASSERT_TRUE(ra.ok()) << ra.status();
  ASSERT_TRUE(rb.ok()) << rb.status();
  EXPECT_EQ(ra->served_orders, rb->served_orders);
  EXPECT_EQ(ra->total_revenue, rb->total_revenue);
  EXPECT_EQ(ra->total_orders, rb->total_orders);
}

TEST(StreamedRunTest, OracleForecastIsRejectedForStreams) {
  Workload day = MakeWorkload(20, 3);
  TraceFile trace(day, "oracle.trace");
  StatusOr<Simulation> sim = SimulationBuilder()
                                 .StreamTrace(trace.path(), MakeNycGrid16x16())
                                 .WithOracleForecast()
                                 .Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().ToString().find("OracleForecast"), std::string::npos)
      << sim.status();
}

TEST(StreamedRunTest, MissingTraceFailsAtBuild) {
  StatusOr<Simulation> sim =
      SimulationBuilder()
          .StreamTrace(TempPath("no_such.trace"), MakeNycGrid16x16())
          .Build();
  EXPECT_FALSE(sim.ok());
}

TEST(TraceCatalogTest, TraceEntryBuildsAndTogglesMaterialisation) {
  Workload day = MakeWorkload(120, 6);
  TraceFile trace(day, "catalog.trace");
  const std::string spec =
      "trace:path=" + trace.path() + ",batch_interval=30";

  StatusOr<Simulation> streamed = WorkloadCatalog::Global().Build(spec);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  EXPECT_TRUE(streamed->streaming());

  // The env toggle flips the ingestion path without touching the spec (so
  // campaign cell keys — and manifests — stay identical either way).
  ASSERT_EQ(setenv("MRVD_TRACE_MATERIALIZE", "1", 1), 0);
  StatusOr<Simulation> materialised = WorkloadCatalog::Global().Build(spec);
  unsetenv("MRVD_TRACE_MATERIALIZE");
  ASSERT_TRUE(materialised.ok()) << materialised.status();
  EXPECT_FALSE(materialised->streaming());

  auto d1 = MakeDispatcher("NEAR");
  auto d2 = MakeDispatcher("NEAR");
  StatusOr<SimResult> a =
      streamed->RunWith(streamed->config(), *d1, nullptr);
  StatusOr<SimResult> b =
      materialised->RunWith(materialised->config(), *d2, nullptr);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(a->served_orders, b->served_orders);
  EXPECT_EQ(a->total_revenue, b->total_revenue);
  EXPECT_EQ(a->total_orders, 120);
}

}  // namespace
}  // namespace mrvd
