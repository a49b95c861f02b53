// Equivalence and partitioning tests for the region-sharded dispatch
// pipeline: with a BatchExecution attached, every dispatcher must produce
// the exact Assignment sequence of the serial path, because sharding only
// relocates pure work (candidate generation and idle-time solves).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/dispatcher_registry.h"
#include "dispatch/dispatchers.h"
#include "dispatch/pipeline.h"
#include "geo/region_partitioner.h"
#include "geo/travel.h"
#include "registry_test_helpers.h"
#include "scenario/generator.h"
#include "sim/batch.h"
#include "sim/engine.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ---------------------------------------------------- RegionPartitioner

TEST(RegionPartitionerTest, RowBandsCoverEveryRegionOnce) {
  Grid grid = MakeNycGrid16x16();
  for (int k : {1, 2, 5, 8, 16, 40}) {
    RegionPartitioner parts = RegionPartitioner::RowBands(grid, k);
    EXPECT_LE(parts.num_shards(), grid.rows());
    EXPECT_GE(parts.num_shards(), 1);
    EXPECT_EQ(parts.num_regions(), grid.num_regions());
    std::vector<int> seen(static_cast<size_t>(grid.num_regions()), 0);
    for (int s = 0; s < parts.num_shards(); ++s) {
      EXPECT_FALSE(parts.shard_regions()[static_cast<size_t>(s)].empty())
          << "shard " << s << " of " << k;
      for (RegionId r : parts.shard_regions()[static_cast<size_t>(s)]) {
        EXPECT_EQ(parts.shard_of(r), s);
        ++seen[static_cast<size_t>(r)];
      }
    }
    for (int r = 0; r < grid.num_regions(); ++r) {
      EXPECT_EQ(seen[static_cast<size_t>(r)], 1) << "region " << r;
    }
  }
}

TEST(RegionPartitionerTest, ShardsAreConnected) {
  Grid grid = MakeNycGrid16x16();
  for (int k : {1, 3, 7, 16}) {
    RegionPartitioner parts = RegionPartitioner::RowBands(grid, k);
    EXPECT_TRUE(parts.ShardsConnected(grid)) << k << " shards";
  }
}

// ------------------------------------------------------ batch equivalence

/// Builds a randomized batch over the 16x16 NYC grid. Returns the context
/// fully snapshotted; the same seed always produces the same batch.
class ShardedPipelineTest : public ::testing::Test {
 protected:
  ShardedPipelineTest() : grid_(MakeNycGrid16x16()), cost_(7.0, 1.3) {}

  std::unique_ptr<BatchContext> MakeBatch(uint64_t seed, int num_riders,
                                          int num_drivers,
                                          CandidateMode mode) {
    auto ctx = std::make_unique<BatchContext>(
        /*now=*/3600.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_, mode);
    Rng rng(seed);
    auto random_point = [&] {
      return LatLon{rng.Uniform(kNycBoundingBox.lat_min,
                                kNycBoundingBox.lat_max),
                    rng.Uniform(kNycBoundingBox.lon_min,
                                kNycBoundingBox.lon_max)};
    };
    for (int i = 0; i < num_riders; ++i) {
      WaitingRider r;
      r.order_id = i;
      r.pickup = random_point();
      r.dropoff = random_point();
      r.request_time = 3600.0 - rng.Uniform(0.0, 120.0);
      r.pickup_deadline = 3600.0 + rng.Uniform(60.0, 600.0);
      r.trip_seconds = cost_.TravelSeconds(r.pickup, r.dropoff);
      r.revenue = r.trip_seconds;
      r.pickup_region = grid_.RegionOf(r.pickup);
      r.dropoff_region = grid_.RegionOf(r.dropoff);
      ctx->AddRider(r);
    }
    for (int j = 0; j < num_drivers; ++j) {
      AvailableDriver d;
      d.driver_id = j;
      d.location = random_point();
      d.region = grid_.RegionOf(d.location);
      d.available_since = 3600.0 - rng.Uniform(0.0, 300.0);
      ctx->AddDriver(d);
    }
    std::vector<RegionSnapshot> snaps(
        static_cast<size_t>(grid_.num_regions()));
    for (const auto& r : ctx->riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx->drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    for (auto& s : snaps) {
      s.predicted_riders = rng.Uniform(0.0, 30.0);
      s.predicted_drivers = rng.Uniform(0.0, 10.0);
    }
    ctx->SetSnapshots(std::move(snaps));
    return ctx;
  }

  Grid grid_;
  StraightLineCostModel cost_;
};

std::vector<Assignment> DispatchOnce(Dispatcher& d, const BatchContext& ctx) {
  std::vector<Assignment> out;
  d.Dispatch(ctx, &out);
  return out;
}

bool SameAssignments(const std::vector<Assignment>& a,
                     const std::vector<Assignment>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rider_index != b[i].rider_index ||
        a[i].driver_index != b[i].driver_index) {
      return false;
    }
  }
  return true;
}

TEST_F(ShardedPipelineTest, CandidatePairsIdenticalUnderSharding) {
  for (CandidateMode mode :
       {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
    auto serial_ctx = MakeBatch(99, 150, 100, mode);
    auto sharded_ctx = MakeBatch(99, 150, 100, mode);
    ThreadPool pool(4);
    RegionPartitioner parts = RegionPartitioner::RowBands(grid_, 8);
    BatchExecution exec{&pool, &parts};
    sharded_ctx->SetExecution(&exec);

    auto serial_pairs = GenerateValidPairs(*serial_ctx);
    auto sharded_pairs = GenerateValidPairs(*sharded_ctx);
    ASSERT_EQ(serial_pairs.size(), sharded_pairs.size());
    for (size_t i = 0; i < serial_pairs.size(); ++i) {
      EXPECT_EQ(serial_pairs[i].rider_index, sharded_pairs[i].rider_index);
      EXPECT_EQ(serial_pairs[i].driver_index, sharded_pairs[i].driver_index);
      EXPECT_EQ(serial_pairs[i].pickup_seconds,
                sharded_pairs[i].pickup_seconds);
    }
  }
}

using test::MakeSeeded;  // registry-built, canonical test seed by default

TEST_F(ShardedPipelineTest, AllDispatchersBitIdenticalAcrossThreadCounts) {
  // Every registered dispatcher that is meaningful on a raw batch (UPPER's
  // zero-pickup trait only applies through the engine) — straight from the
  // registry, so a newly registered approach joins the check automatically.
  const std::vector<std::string> names = test::RosterWithoutZeroPickup();
  for (uint64_t seed : {7u, 20190417u}) {
    for (CandidateMode mode :
         {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
      auto serial_ctx = MakeBatch(seed, 120, 90, mode);
      auto serial_results = std::vector<std::vector<Assignment>>();
      for (const auto& name : names) {
        auto d = MakeSeeded(name);
        ASSERT_NE(d, nullptr) << name;
        serial_results.push_back(DispatchOnce(*d, *serial_ctx));
      }
      for (int threads : {2, 4}) {
        ThreadPool pool(threads);
        // Shard count routed through SimConfig, so the test exercises the
        // partition the engine itself would derive for this thread count.
        RegionPartitioner parts = RegionPartitioner::RowBands(
            grid_, SimConfig().ResolveShards(threads));
        BatchExecution exec{&pool, &parts};
        auto sharded_ctx = MakeBatch(seed, 120, 90, mode);
        sharded_ctx->SetExecution(&exec);
        for (size_t n = 0; n < names.size(); ++n) {
          auto d = MakeSeeded(names[n]);
          auto got = DispatchOnce(*d, *sharded_ctx);
          EXPECT_TRUE(SameAssignments(serial_results[n], got))
              << names[n] << " diverged at " << threads << " threads, seed "
              << seed << " (serial " << serial_results[n].size()
              << " pairs, sharded " << got.size() << ")";
        }
      }
    }
  }
}

TEST_F(ShardedPipelineTest, SpeculativePhaseWarmsInternalPairs) {
  auto ctx = MakeBatch(11, 200, 150, CandidateMode::kRingExpand);
  ThreadPool pool(4);
  RegionPartitioner parts = RegionPartitioner::RowBands(grid_, 8);
  BatchExecution exec{&pool, &parts};
  ctx->SetExecution(&exec);
  PreparedBatch prepared =
      PrepareShardedBatch(*ctx, GreedyObjective::kIdleRatio);
  EXPECT_FALSE(prepared.pairs.empty());
  // Row-band sharding of NYC keeps a meaningful share of pairs internal.
  EXPECT_GT(prepared.internal_pairs, 0u);
  EXPECT_LE(prepared.internal_pairs, prepared.pairs.size());
}

// ---------------------------------------------------- engine equivalence

/// Runs each of `names` through the real engine serially and at `threads`:
/// num_threads must not change a single aggregate (assignments are
/// identical batch by batch). "UPPER" runs with zero pickup travel.
void ExpectShardedRunsMatchSerial(const Workload& workload, const Grid& grid,
                                  const ScenarioScript* script,
                                  SimConfig serial,
                                  const std::vector<std::string>& names,
                                  int threads) {
  StraightLineCostModel cost(7.0, 1.3);
  for (const std::string& name : names) {
    serial.num_threads = 1;
    serial.zero_pickup_travel = name == "UPPER";
    SimConfig sharded = serial;
    sharded.num_threads = threads;
    Simulator serial_sim(serial, workload, grid, cost, nullptr);
    Simulator sharded_sim(sharded, workload, grid, cost, nullptr);
    auto d1 = MakeSeeded(name);
    auto d2 = MakeSeeded(name);
    ASSERT_NE(d1, nullptr) << name;
    SimResult a = script ? serial_sim.Run(*d1, *script) : serial_sim.Run(*d1);
    SimResult b =
        script ? sharded_sim.Run(*d2, *script) : sharded_sim.Run(*d2);
    EXPECT_EQ(a.served_orders, b.served_orders) << name;
    EXPECT_EQ(a.reneged_orders, b.reneged_orders) << name;
    EXPECT_EQ(a.cancelled_orders, b.cancelled_orders) << name;
    EXPECT_EQ(a.total_orders, b.total_orders) << name;
    EXPECT_EQ(a.total_revenue, b.total_revenue) << name;  // bit-exact
    EXPECT_EQ(a.num_batches, b.num_batches) << name;
    EXPECT_EQ(a.served_wait_seconds.count(), b.served_wait_seconds.count())
        << name;
    EXPECT_EQ(a.served_wait_seconds.mean(), b.served_wait_seconds.mean())
        << name;
  }
}

TEST(ShardedEngineTest, FullDayRunMatchesSerialExactly) {
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 600.0;
  gcfg.seed = 20190417;
  NycLikeGenerator gen(gcfg);
  Workload workload = gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/40);
  SimConfig base;
  base.horizon_seconds = 6 * 3600.0;
  base.batch_interval = 30.0;
  ExpectShardedRunsMatchSerial(workload, gen.grid(), /*script=*/nullptr,
                               base, {"IRG", "LS", "SHORT"}, /*threads=*/3);
}

TEST(ShardedEngineTest, SkewedDayMatchesSerialAcrossRoster) {
  // A scripted rush hour funnels ~70% of the window's arrivals into grid
  // rows 0..2, so the static row bands carry very unequal loads.
  GeneratorConfig gcfg;
  gcfg.orders_per_day = 3000.0;  // scaled by the short horizon below
  gcfg.seed = 20190417;
  NycLikeGenerator gen(gcfg);
  const Grid& grid = gen.grid();
  const double surge_start = 1800.0;
  const double surge_end = 7200.0;
  const Workload workload = SkewWorkloadRows(
      gen.GenerateDay(/*day_index=*/1, /*num_drivers=*/40), grid,
      surge_start, surge_end, /*share=*/0.7, /*row_lo=*/0, /*row_hi=*/2,
      /*seed=*/gcfg.seed ^ 0x5EEDULL);
  ScenarioDayConfig scfg;
  scfg.surges.push_back(RowBandSurge(grid, 0, 2, surge_start, surge_end,
                                     /*multiplier=*/2.0));
  const ScenarioScript script = BuildScenarioDay(workload, scfg);

  std::vector<std::string> roster = test::RosterWithoutZeroPickup();
  roster.push_back("UPPER");
  SimConfig base;
  base.horizon_seconds = 2.5 * 3600.0;
  base.batch_interval = 30.0;
  ExpectShardedRunsMatchSerial(workload, grid, &script, base, roster,
                               /*threads=*/4);
}

}  // namespace
}  // namespace mrvd
