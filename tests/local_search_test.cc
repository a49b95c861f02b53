// Direct unit tests for LS swap semantics (Algorithm 3) and the
// conflict-decomposed snapshot sweep:
//   * the same-dropoff-region `extra` adjustment (scoring a candidate as if
//     the current rider were released) actually flips swap decisions,
//   * the max_sweeps bound and the no-swap convergence exit,
//   * conflict-partition correctness: conflicting slots never share an
//     independence level,
//   * the snapshot sweep reproduces the reference sequential sweep
//     bit-identically, with sane work counters.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "api/dispatcher_registry.h"
#include "dispatch/candidates.h"
#include "dispatch/conflict_partition.h"
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "geo/travel.h"
#include "sim/batch.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ------------------------------------------------- hand-built swap cases

// A congested destination region makes ET strictly increasing in the
// tentative extra-driver count, which is what the same-region adjustment
// trades on.
class LocalSearchSwapTest : public ::testing::Test {
 protected:
  LocalSearchSwapTest()
      : grid_(kNycBoundingBox, 4, 4),
        cost_(10.0, 1.0),
        ctx_(/*now=*/1000.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_) {}

  WaitingRider MakeRider(OrderId id, LatLon pickup, LatLon dropoff,
                         double trip_seconds) {
    WaitingRider r;
    r.order_id = id;
    r.pickup = pickup;
    r.dropoff = dropoff;
    r.request_time = 990.0;
    r.pickup_deadline = 1400.0;
    r.trip_seconds = trip_seconds;
    r.revenue = trip_seconds;
    r.pickup_region = grid_.RegionOf(pickup);
    r.dropoff_region = grid_.RegionOf(dropoff);
    return r;
  }

  AvailableDriver MakeDriver(DriverId id, LatLon loc) {
    AvailableDriver d;
    d.driver_id = id;
    d.location = loc;
    d.region = grid_.RegionOf(loc);
    d.available_since = 900.0;
    return d;
  }

  void FinalizeSnapshots(
      const std::vector<std::pair<RegionId, double>>& predicted_riders = {}) {
    std::vector<RegionSnapshot> snaps(
        static_cast<size_t>(grid_.num_regions()));
    for (const auto& r : ctx_.riders()) {
      ++snaps[static_cast<size_t>(r.pickup_region)].waiting_riders;
    }
    for (const auto& d : ctx_.drivers()) {
      ++snaps[static_cast<size_t>(d.region)].available_drivers;
    }
    for (auto [region, count] : predicted_riders) {
      snaps[static_cast<size_t>(region)].predicted_riders = count;
    }
    ctx_.SetSnapshots(std::move(snaps));
  }

  /// One driver, two riders with near-equal trips into the same congested
  /// region: the swap only improves because the candidate is scored at
  /// extra-1 (the current rider released), and after swapping the released
  /// rider becomes the better candidate again — a deliberate 2-cycle that
  /// never converges, so it exercises both the adjustment and the
  /// max_sweeps bound. Returns the hot region.
  RegionId BuildSameRegionOscillator() {
    LatLon origin{40.70, -74.00};
    LatLon hot_dest{40.88, -73.80};
    EXPECT_NE(grid_.RegionOf(origin), grid_.RegionOf(hot_dest));
    ctx_.AddRider(MakeRider(0, origin, hot_dest, /*trip_seconds=*/4000.0));
    ctx_.AddRider(MakeRider(1, origin, hot_dest, /*trip_seconds=*/3999.0));
    ctx_.AddDriver(MakeDriver(0, origin));
    RegionId hot = grid_.RegionOf(hot_dest);
    // Low predicted demand puts the destination in the congested-driver
    // regime, where each extra rejoining driver lengthens the queue and ET
    // strictly rises with `extra` (see dispatch_test's monotonicity case —
    // heavy rider surplus can invert this).
    FinalizeSnapshots({{hot, 2.0}});
    return hot;
  }

  Grid grid_;
  StraightLineCostModel cost_;
  BatchContext ctx_;
};

TEST_F(LocalSearchSwapTest, SameRegionCandidateScoredWithCurrentReleased) {
  RegionId hot = BuildSameRegionOscillator();

  // Congestion makes ET strictly increasing in extra, so the adjustment
  // matters: at the *same* supply the shorter-trip candidate scores worse
  // than the current rider, at extra-1 it scores better.
  double et0 = ctx_.ExpectedIdleSeconds(hot, 0);
  double et1 = ctx_.ExpectedIdleSeconds(hot, 1);
  ASSERT_LT(et0, et1);
  double cur_ir = ScorePair(ctx_, ctx_.riders()[0],
                            GreedyObjective::kIdleRatio, 1);
  ASSERT_GT(ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 1),
            cur_ir);
  ASSERT_LT(ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0),
            cur_ir);

  // Greedy assigns rider 0 (longer trip -> lower IR); one sweep must then
  // swap to rider 1, which only improves under the extra-1 scoring.
  for (bool reference : {true, false}) {
    auto ls = MakeLocalSearchDispatcher(/*max_sweeps=*/1, reference);
    std::vector<Assignment> out;
    ls->Dispatch(ctx_, &out);
    ASSERT_EQ(out.size(), 1u) << "reference=" << reference;
    EXPECT_EQ(out[0].rider_index, 1) << "reference=" << reference;
    const DispatchCounters* c = ls->counters();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->sweeps, 1);
    EXPECT_EQ(c->swaps_applied, 1);
  }
}

TEST_F(LocalSearchSwapTest, MaxSweepsBoundsTheOscillation) {
  BuildSameRegionOscillator();
  // The 2-cycle swaps every sweep, so the dispatcher must run exactly
  // max_sweeps sweeps and the final rider is determined by sweep parity.
  for (int max_sweeps : {1, 2, 3, 6}) {
    for (bool reference : {true, false}) {
      auto ls = MakeLocalSearchDispatcher(max_sweeps, reference);
      std::vector<Assignment> out;
      ls->Dispatch(ctx_, &out);
      ASSERT_EQ(out.size(), 1u);
      EXPECT_EQ(out[0].rider_index, max_sweeps % 2 == 1 ? 1 : 0)
          << "max_sweeps=" << max_sweeps << " reference=" << reference;
      const DispatchCounters* c = ls->counters();
      ASSERT_NE(c, nullptr);
      EXPECT_EQ(c->sweeps, max_sweeps);
      EXPECT_EQ(c->swaps_applied, max_sweeps);
    }
  }
}

TEST_F(LocalSearchSwapTest, ConvergedAssignmentExitsAfterOneSweep) {
  // Distinct cold destination regions: greedy already picks the argmin, the
  // first sweep finds no improving swap and the loop exits well under the
  // max_sweeps budget.
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.62, -74.01}, 400.0));
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.75, -73.92}, 4000.0));
  ctx_.AddDriver(MakeDriver(0, origin));
  ASSERT_NE(ctx_.riders()[0].dropoff_region, ctx_.riders()[1].dropoff_region);
  FinalizeSnapshots();

  for (bool reference : {true, false}) {
    auto ls = MakeLocalSearchDispatcher(/*max_sweeps=*/16, reference);
    std::vector<Assignment> out;
    ls->Dispatch(ctx_, &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].rider_index, 1);  // long trip -> lower idle ratio
    const DispatchCounters* c = ls->counters();
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->sweeps, 1) << "reference=" << reference;
    EXPECT_EQ(c->swaps_applied, 0);
    EXPECT_EQ(c->proposals_recomputed, 0);
  }
}

// -------------------------------------------------- randomized batches

std::unique_ptr<BatchContext> MakeRandomBatch(const Grid& grid,
                                              const TravelCostModel& cost,
                                              uint64_t seed, int num_riders,
                                              int num_drivers) {
  auto ctx = std::make_unique<BatchContext>(
      /*now=*/3600.0, /*window=*/1200.0, /*beta=*/0.02, grid, cost);
  Rng rng(seed);
  auto random_point = [&] {
    return LatLon{rng.Uniform(kNycBoundingBox.lat_min, kNycBoundingBox.lat_max),
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
    r.trip_seconds = cost.TravelSeconds(r.pickup, r.dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid.RegionOf(r.pickup);
    r.dropoff_region = grid.RegionOf(r.dropoff);
    ctx->AddRider(r);
  }
  for (int j = 0; j < num_drivers; ++j) {
    AvailableDriver d;
    d.driver_id = j;
    d.location = random_point();
    d.region = grid.RegionOf(d.location);
    d.available_since = 3600.0 - rng.Uniform(0.0, 300.0);
    ctx->AddDriver(d);
  }
  std::vector<RegionSnapshot> snaps(static_cast<size_t>(grid.num_regions()));
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

TEST(ConflictPartitionTest, ConflictingSlotsNeverShareALevel) {
  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);
  for (uint64_t seed : {5u, 42u}) {
    auto ctx = MakeRandomBatch(grid, cost, seed, 150, 100);
    std::vector<CandidatePair> pairs = GenerateValidPairs(*ctx);
    IrgState state =
        RunGreedySelection(*ctx, pairs, GreedyObjective::kIdleRatio);
    LsSwapPlan plan = BuildLsSwapPlan(*ctx, pairs, state.assignments);

    ASSERT_EQ(plan.num_slots, static_cast<int>(state.assignments.size()));
    ASSERT_GT(plan.num_slots, 10);
    ASSERT_GE(plan.num_levels, 1);

    int conflicts = 0;
    for (int i = 0; i < plan.num_slots; ++i) {
      EXPECT_GE(plan.level[static_cast<size_t>(i)], 0);
      EXPECT_LT(plan.level[static_cast<size_t>(i)], plan.num_levels);
      for (int j = i + 1; j < plan.num_slots; ++j) {
        if (!SlotsConflict(plan, i, j)) continue;
        ++conflicts;
        // An ordered independence level: every later conflicting slot sits
        // strictly above — in particular the two never share a level, and
        // level-0 slots have no earlier conflict at all.
        EXPECT_GT(plan.level[static_cast<size_t>(j)],
                  plan.level[static_cast<size_t>(i)])
            << "slots " << i << " and " << j << " conflict, seed " << seed;
      }
    }
    // Contended NYC batches must actually exercise the partition.
    EXPECT_GT(conflicts, 0) << "seed " << seed;
    EXPECT_GT(plan.num_levels, 1) << "seed " << seed;
  }
}

TEST(ConflictPartitionTest, CandidateListsMatchTheMatchedPairs) {
  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);
  auto ctx = MakeRandomBatch(grid, cost, 7, 120, 80);
  std::vector<CandidatePair> pairs = GenerateValidPairs(*ctx);
  IrgState state =
      RunGreedySelection(*ctx, pairs, GreedyObjective::kIdleRatio);
  LsSwapPlan plan = BuildLsSwapPlan(*ctx, pairs, state.assignments);

  // CSR candidate totals == pairs owned by matched drivers, in pair order.
  std::vector<int> slot_of_driver(ctx->drivers().size(), -1);
  for (int i = 0; i < plan.num_slots; ++i) {
    slot_of_driver[static_cast<size_t>(
        state.assignments[static_cast<size_t>(i)].driver_index)] = i;
  }
  std::vector<std::vector<const CandidatePair*>> expected(
      static_cast<size_t>(plan.num_slots));
  for (const CandidatePair& cp : pairs) {
    int slot = slot_of_driver[static_cast<size_t>(cp.driver_index)];
    if (slot >= 0) expected[static_cast<size_t>(slot)].push_back(&cp);
  }
  for (int i = 0; i < plan.num_slots; ++i) {
    const auto& exp = expected[static_cast<size_t>(i)];
    ASSERT_EQ(plan.cand_offsets[static_cast<size_t>(i) + 1] -
                  plan.cand_offsets[static_cast<size_t>(i)],
              static_cast<int>(exp.size()));
    bool slot_has_dup_region = false;
    std::vector<RegionId> seen;
    for (size_t c = 0; c < exp.size(); ++c) {
      const auto at =
          static_cast<size_t>(plan.cand_offsets[static_cast<size_t>(i)]) + c;
      const WaitingRider& r =
          ctx->riders()[static_cast<size_t>(exp[c]->rider_index)];
      EXPECT_EQ(plan.cand_rider[at], exp[c]->rider_index);
      EXPECT_EQ(plan.cand_dropoff[at], r.dropoff_region);
      EXPECT_EQ(plan.cand_trip[at], r.trip_seconds);
      for (RegionId s : seen) slot_has_dup_region |= s == r.dropoff_region;
      seen.push_back(r.dropoff_region);
    }
    // A repeated dropoff region within the slot must be flagged for the
    // extra-1 ET table.
    if (slot_has_dup_region) {
      bool flagged = false;
      for (RegionId s : seen) {
        flagged |= plan.needs_minus1[static_cast<size_t>(s)] != 0;
      }
      EXPECT_TRUE(flagged) << "slot " << i;
    }
  }
}

TEST(SnapshotSweepTest, BitIdenticalToReferenceSweep) {
  Grid grid = MakeNycGrid16x16();
  StraightLineCostModel cost(7.0, 1.3);
  for (uint64_t seed : {3u, 20190417u}) {
    auto reference_ctx = MakeRandomBatch(grid, cost, seed, 220, 160);
    auto reference = MakeLocalSearchDispatcher(/*max_sweeps=*/16,
                                               /*reference_sweep=*/true);
    std::vector<Assignment> want;
    reference->Dispatch(*reference_ctx, &want);
    ASSERT_GE(want.size(), 64u) << "batch too small to exercise the sweep";
    const DispatchCounters* rc = reference->counters();
    ASSERT_NE(rc, nullptr);
    EXPECT_EQ(rc->proposals_recomputed, 0);

    auto ctx = MakeRandomBatch(grid, cost, seed, 220, 160);
    auto ls = MakeLocalSearchDispatcher(/*max_sweeps=*/16);
    std::vector<Assignment> got;
    ls->Dispatch(*ctx, &got);
    ASSERT_EQ(got.size(), want.size()) << "seed " << seed;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(got[i].rider_index, want[i].rider_index)
          << "slot " << i << ", seed " << seed;
      ASSERT_EQ(got[i].driver_index, want[i].driver_index)
          << "slot " << i << ", seed " << seed;
    }
    const DispatchCounters* sc = ls->counters();
    ASSERT_NE(sc, nullptr);
    // Identical refinement trajectory -> identical work counters; only
    // the recompute count is a snapshot-sweep concept.
    EXPECT_EQ(sc->sweeps, rc->sweeps);
    EXPECT_EQ(sc->swaps_applied, rc->swaps_applied);
    EXPECT_EQ(sc->proposals, rc->proposals);
    EXPECT_GE(sc->proposals_recomputed, 0);
    EXPECT_LE(sc->proposals_recomputed, sc->proposals);
  }
}

TEST(SnapshotSweepTest, RegistrySpecTakesOnlyMaxSweeps) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  StatusOr<std::string> canonical = registry.CanonicalizeSpec("LS");
  ASSERT_TRUE(canonical.ok()) << canonical.status();
  EXPECT_EQ(*canonical, "LS:max_sweeps=16");

  StatusOr<std::unique_ptr<Dispatcher>> d =
      registry.Create("LS:max_sweeps=8");
  ASSERT_TRUE(d.ok()) << d.status();
  EXPECT_EQ((*d)->name(), "LS");
  // The sweep choice is not a registry parameter.
  EXPECT_FALSE(registry.Create("LS:parallel=0").ok());
}

}  // namespace
}  // namespace mrvd
