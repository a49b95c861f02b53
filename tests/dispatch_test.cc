#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "dispatch/candidates.h"
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "geo/region_partitioner.h"
#include "geo/travel.h"
#include "roadnet/graph.h"
#include "roadnet/shortest_path.h"
#include "sim/batch.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace mrvd {
namespace {

// Fixture with a hand-built 4x4 batch context.
class DispatchTest : public ::testing::Test {
 protected:
  DispatchTest()
      : grid_(kNycBoundingBox, 4, 4),
        cost_(10.0, 1.0),
        ctx_(/*now=*/1000.0, /*window=*/1200.0, /*beta=*/0.02, grid_, cost_) {}

  WaitingRider MakeRider(OrderId id, LatLon pickup, LatLon dropoff,
                         double deadline_slack = 200.0) {
    WaitingRider r;
    r.order_id = id;
    r.pickup = pickup;
    r.dropoff = dropoff;
    r.request_time = 990.0;
    r.pickup_deadline = 1000.0 + deadline_slack;
    r.trip_seconds = cost_.TravelSeconds(pickup, dropoff);
    r.revenue = r.trip_seconds;
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

  static bool AssignmentsValid(const BatchContext& ctx,
                               const std::vector<Assignment>& as) {
    std::vector<char> r_used(ctx.riders().size(), false);
    std::vector<char> d_used(ctx.drivers().size(), false);
    for (const auto& a : as) {
      if (a.rider_index < 0 || a.driver_index < 0) return false;
      if (r_used[static_cast<size_t>(a.rider_index)]) return false;
      if (d_used[static_cast<size_t>(a.driver_index)]) return false;
      r_used[static_cast<size_t>(a.rider_index)] = true;
      d_used[static_cast<size_t>(a.driver_index)] = true;
      if (!ctx.IsValidPair(
              ctx.drivers()[static_cast<size_t>(a.driver_index)],
              ctx.riders()[static_cast<size_t>(a.rider_index)]))
        return false;
    }
    return true;
  }

  Grid grid_;
  StraightLineCostModel cost_;
  BatchContext ctx_;
};

// ------------------------------------------------------------- candidates

TEST_F(DispatchTest, CandidatesRespectDeadline) {
  LatLon near_p{40.70, -74.00};
  LatLon far_p{40.90, -73.79};
  ctx_.AddRider(MakeRider(0, near_p, far_p, /*deadline_slack=*/100.0));
  ctx_.AddDriver(MakeDriver(0, near_p));  // ~0 s away
  ctx_.AddDriver(MakeDriver(1, far_p));   // ~40 km away at 10 m/s
  FinalizeSnapshots();

  auto pairs = GenerateValidPairs(ctx_);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0].driver_index, 0);
  EXPECT_LT(pairs[0].pickup_seconds, 100.0);
}

TEST_F(DispatchTest, CandidatesFindCrossRegionDrivers) {
  // Driver in the adjacent cell but within the deadline reach. Cell rows of
  // the 4x4 grid break at 40.665; straddle that boundary.
  LatLon rider_p{40.664, -74.00};
  LatLon driver_p{40.667, -74.00};  // ~330 m north, next row up
  ctx_.AddRider(MakeRider(0, rider_p, LatLon{40.75, -73.95}, 400.0));
  ctx_.AddDriver(MakeDriver(0, driver_p));
  FinalizeSnapshots();
  ASSERT_NE(grid_.RegionOf(rider_p), grid_.RegionOf(driver_p));

  auto pairs = GenerateValidPairs(ctx_);
  ASSERT_EQ(pairs.size(), 1u);
}

TEST_F(DispatchTest, PerRiderGroupingMatchesFlatList) {
  for (int i = 0; i < 4; ++i) {
    ctx_.AddRider(MakeRider(i, LatLon{40.70 + 0.01 * i, -74.00},
                            LatLon{40.80, -73.90}, 500.0));
  }
  for (int j = 0; j < 3; ++j) {
    ctx_.AddDriver(MakeDriver(j, LatLon{40.70 + 0.012 * j, -74.00}));
  }
  FinalizeSnapshots();
  auto flat = GenerateValidPairs(ctx_);
  auto grouped = GenerateValidPairsPerRider(ctx_);
  size_t total = 0;
  for (const auto& g : grouped) total += g.size();
  EXPECT_EQ(flat.size(), total);
}

// ------------------------------------------------ candidate search oracle

// One seeded random batch for the oracle. Riders and drivers spill up to
// `spill` degrees outside the city box (clamped into border cells), some
// pickups sit exactly on cell edges, budgets include zero, negative and
// exact-boundary deadlines, and drivers cluster in part of the city so most
// regions are empty.
std::unique_ptr<BatchContext> MakeOracleBatch(const Grid& grid,
                                              const TravelCostModel& cost,
                                              CandidateMode mode,
                                              uint64_t seed) {
  constexpr double kNow = 5000.0;
  Rng rng(seed);
  auto ctx = std::make_unique<BatchContext>(kNow, 1200.0, 0.02, grid, cost,
                                            mode);
  const BoundingBox& box = grid.box();
  const double spill = 0.05;
  auto random_point = [&](const BoundingBox& area) {
    return LatLon{rng.Uniform(area.lat_min - spill, area.lat_max + spill),
                  rng.Uniform(area.lon_min - spill, area.lon_max + spill)};
  };
  // Drivers fill a random sub-box (plus the spill), leaving regions empty.
  const double lat_a = rng.Uniform(box.lat_min, box.lat_max);
  const double lat_b = rng.Uniform(box.lat_min, box.lat_max);
  const double lon_a = rng.Uniform(box.lon_min, box.lon_max);
  const double lon_b = rng.Uniform(box.lon_min, box.lon_max);
  const BoundingBox driver_area{std::min(lon_a, lon_b), std::max(lon_a, lon_b),
                                std::min(lat_a, lat_b), std::max(lat_a, lat_b)};
  const int num_drivers = static_cast<int>(rng.UniformInt(0, 150));
  std::vector<AvailableDriver> drivers;
  for (int j = 0; j < num_drivers; ++j) {
    AvailableDriver d;
    d.driver_id = j;
    d.location = rng.Bernoulli(0.8) ? random_point(driver_area)
                                    : random_point(box);
    d.region = grid.RegionOf(d.location);
    drivers.push_back(d);
  }

  const int num_riders = static_cast<int>(rng.UniformInt(0, 60));
  for (int i = 0; i < num_riders; ++i) {
    WaitingRider r;
    r.order_id = i;
    const int kind = static_cast<int>(rng.UniformInt(0, 5));
    if (kind == 0) {
      // Exactly on a cell corner (edges of both a row and a column).
      const auto row = rng.UniformInt(0, grid.rows());
      const auto col = rng.UniformInt(0, grid.cols());
      r.pickup = {box.lat_min + static_cast<double>(row) *
                                    grid.cell_height_degrees(),
                  box.lon_min + static_cast<double>(col) *
                                    grid.cell_width_degrees()};
    } else if (kind == 1 && !drivers.empty()) {
      // On top of a driver (a zero-distance pair).
      r.pickup = drivers[static_cast<size_t>(rng.UniformInt(
                             0, static_cast<int64_t>(drivers.size()) - 1))]
                     .location;
    } else {
      r.pickup = random_point(box);
    }
    r.dropoff = random_point(box);
    r.request_time = kNow - 10.0;
    const int budget_kind = static_cast<int>(rng.UniformInt(0, 4));
    if (budget_kind == 0) {
      r.pickup_deadline = kNow;  // zero budget
    } else if (budget_kind == 1) {
      r.pickup_deadline = kNow - rng.Uniform(0.0, 60.0);  // already late
    } else if (budget_kind == 2 && !drivers.empty()) {
      // Deadline exactly at some driver's arrival: the boundary case.
      const AvailableDriver& d = drivers[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(drivers.size()) - 1))];
      r.pickup_deadline = kNow + cost.TravelSeconds(d.location, r.pickup);
    } else {
      r.pickup_deadline = kNow + rng.Uniform(0.0, 1500.0);
    }
    r.trip_seconds = cost.TravelSeconds(r.pickup, r.dropoff);
    r.revenue = r.trip_seconds;
    r.pickup_region = grid.RegionOf(r.pickup);
    r.dropoff_region = grid.RegionOf(r.dropoff);
    ctx->AddRider(r);
  }
  ctx->SetDrivers(std::move(drivers));
  return ctx;
}

// The O(R·D) reference: every valid driver of each rider, ordered by ring
// distance, then position in Grid::Ring, then driver index.
std::vector<CandidatePair> BruteForcePairs(const BatchContext& ctx) {
  const Grid& grid = ctx.grid();
  std::vector<CandidatePair> out;
  for (int i = 0; i < static_cast<int>(ctx.riders().size()); ++i) {
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(i)];
    std::vector<int> ring_pos(static_cast<size_t>(grid.num_regions()), -1);
    for (int g = 0; g < std::max(grid.rows(), grid.cols()); ++g) {
      int pos = 0;
      for (RegionId reg : grid.Ring(r.pickup_region, g)) {
        ring_pos[static_cast<size_t>(reg)] = pos++;
      }
    }
    std::vector<std::tuple<int, int, int>> keyed;  // (ring, pos, driver)
    for (int j = 0; j < static_cast<int>(ctx.drivers().size()); ++j) {
      const AvailableDriver& d = ctx.drivers()[static_cast<size_t>(j)];
      if (ctx.candidate_mode() == CandidateMode::kRegionLocal &&
          d.region != r.pickup_region) {
        continue;
      }
      if (!ctx.IsValidPair(d, r)) continue;
      keyed.emplace_back(grid.RingDistance(r.pickup_region, d.region),
                         ring_pos[static_cast<size_t>(d.region)], j);
    }
    std::sort(keyed.begin(), keyed.end());
    for (const auto& [ring, pos, j] : keyed) {
      out.push_back(
          {i, j, ctx.PickupSeconds(ctx.drivers()[static_cast<size_t>(j)], r)});
    }
  }
  return out;
}

void ExpectSamePairs(const std::vector<CandidatePair>& want,
                     const std::vector<CandidatePair>& got,
                     const std::string& label) {
  ASSERT_EQ(want.size(), got.size()) << label;
  for (size_t k = 0; k < want.size(); ++k) {
    ASSERT_EQ(want[k].rider_index, got[k].rider_index) << label << " #" << k;
    ASSERT_EQ(want[k].driver_index, got[k].driver_index) << label << " #" << k;
    // Bit-identical: both sides compute the same PickupSeconds call.
    ASSERT_EQ(want[k].pickup_seconds, got[k].pickup_seconds)
        << label << " #" << k;
  }
}

// A model with no finite crow-fly speed bound, like a road network with a
// zero-cost street: its trips are far faster than SpeedMps(), so pruning
// must switch itself off (zero budgets included) rather than use SpeedMps.
class UnboundedSpeedModel : public TravelCostModel {
 public:
  double TravelSeconds(const LatLon& from, const LatLon& to) const override {
    return EquirectangularMeters(from, to) / 2000.0;
  }
  double SpeedMps() const override { return 7.0; }
  double MaxSpeedMps() const override {
    return std::numeric_limits<double>::infinity();
  }
};

TEST(CandidateOracleTest, MatchesBruteForceExactly) {
  const Grid nyc16 = MakeNycGrid16x16();
  const Grid test4(kNycBoundingBox, 4, 4);
  const StraightLineCostModel tight(10.0, 1.0);  // contract holds with equality
  const StraightLineCostModel detour(7.0, 1.3);
  const ManhattanCostModel manhattan(7.0);
  // Jittered streets run up to 1.25x faster than the fallback SpeedMps().
  const RoadNetworkCostModel road(
      std::make_shared<RoadNetwork>(MakeGridNetwork(
          kNycBoundingBox, 16, 16, /*speed_mps=*/8.0, /*jitter=*/0.25, 7)),
      kNycBoundingBox, 8.0);
  const UnboundedSpeedModel unbounded;
  struct CostCase {
    const char* name;
    const TravelCostModel* model;
  };
  const CostCase costs[] = {{"tight", &tight},
                            {"detour", &detour},
                            {"manhattan", &manhattan},
                            {"road", &road},
                            {"unbounded", &unbounded}};
  ThreadPool pool(4);

  int64_t total_pairs = 0;
  for (const Grid* grid : {&nyc16, &test4}) {
    const RegionPartitioner parts = RegionPartitioner::RowBands(*grid, 4);
    const BatchExecution exec{&pool, &parts};
    for (const CostCase& cost : costs) {
      for (CandidateMode mode :
           {CandidateMode::kRingExpand, CandidateMode::kRegionLocal}) {
        for (uint64_t seed = 1; seed <= 25; ++seed) {
          const std::string label =
              std::to_string(grid->rows()) + "x" +
              std::to_string(grid->cols()) + " cost=" + cost.name +
              " mode=" + std::to_string(static_cast<int>(mode)) +
              " seed=" + std::to_string(seed);
          auto ctx = MakeOracleBatch(*grid, *cost.model, mode, seed);
          const std::vector<CandidatePair> want = BruteForcePairs(*ctx);
          total_pairs += static_cast<int64_t>(want.size());
          ExpectSamePairs(want, GenerateValidPairs(*ctx), label + " serial");
          ctx->SetExecution(&exec);
          ExpectSamePairs(want, GenerateValidPairs(*ctx), label + " 4 threads");
          std::vector<CandidatePair> flattened;
          for (const auto& g : GenerateValidPairsPerRider(*ctx)) {
            flattened.insert(flattened.end(), g.begin(), g.end());
          }
          ExpectSamePairs(want, flattened, label + " per-rider 4 threads");
        }
      }
    }
  }
  EXPECT_GT(total_pairs, 1000);  // the batches are not trivially empty
}

// ---------------------------------------------------------------- scoring

TEST_F(DispatchTest, IdleRatioDecreasesWithTripLength) {
  LatLon origin{40.70, -74.00};
  WaitingRider short_trip = MakeRider(0, origin, LatLon{40.705, -73.995});
  WaitingRider long_trip = MakeRider(1, origin, LatLon{40.706, -73.994});
  // Same destination region; force the same ET by aligning dropoff regions.
  ASSERT_EQ(short_trip.dropoff_region, long_trip.dropoff_region);
  long_trip.trip_seconds = short_trip.trip_seconds * 10;
  ctx_.AddRider(short_trip);
  ctx_.AddRider(long_trip);
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots();

  double ir_short =
      ScorePair(ctx_, ctx_.riders()[0], GreedyObjective::kIdleRatio, 0);
  double ir_long =
      ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0);
  EXPECT_LT(ir_long, ir_short);
}

TEST_F(DispatchTest, IdleRatioFavorsHotDestinations) {
  LatLon origin{40.70, -74.00};
  LatLon hot_dest{40.88, -73.80};   // region we mark as high-demand
  LatLon cold_dest{40.88, -74.00};  // symmetric distance, no demand
  WaitingRider to_hot = MakeRider(0, origin, hot_dest);
  WaitingRider to_cold = MakeRider(1, origin, cold_dest);
  ctx_.AddRider(to_hot);
  ctx_.AddRider(to_cold);
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{to_hot.dropoff_region, 200.0}});

  double ir_hot =
      ScorePair(ctx_, ctx_.riders()[0], GreedyObjective::kIdleRatio, 0);
  double ir_cold =
      ScorePair(ctx_, ctx_.riders()[1], GreedyObjective::kIdleRatio, 0);
  EXPECT_LT(ir_hot, ir_cold);
}

TEST_F(DispatchTest, ExtraDriversRaiseExpectedIdleWhenCongested) {
  // In the congested regime (few predicted riders), each extra rejoining
  // driver lengthens the queue a new driver joins behind, so ET rises.
  // (In the heavily rider-surplus regime the paper's reneging coupling
  // π(n) = e^{βn}/μ can make ET locally non-monotone in μ; see
  // queueing_test's monotonicity cases for the standard regimes.)
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.88, -73.80}));
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{ctx_.riders()[0].dropoff_region, 2.0}});
  RegionId dest = ctx_.riders()[0].dropoff_region;
  double et2 = ctx_.ExpectedIdleSeconds(dest, 2);
  double et10 = ctx_.ExpectedIdleSeconds(dest, 10);
  EXPECT_GE(et10, et2);
}

// ------------------------------------------------------------ dispatchers

TEST_F(DispatchTest, IrgPrefersHotLongTrips) {
  LatLon origin{40.70, -74.00};
  LatLon hot_dest{40.88, -73.80};
  LatLon cold_dest{40.71, -74.01};  // short hop to a cold region
  ctx_.AddRider(MakeRider(0, origin, cold_dest));
  ctx_.AddRider(MakeRider(1, origin, hot_dest));
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots({{grid_.RegionOf(hot_dest), 300.0}});

  auto irg = MakeIrgDispatcher();
  std::vector<Assignment> out;
  irg->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rider_index, 1);  // the hot, long trip wins
  EXPECT_TRUE(AssignmentsValid(ctx_, out));
}

TEST_F(DispatchTest, AllDispatchersProduceValidAssignments) {
  // A denser scenario: 6 riders, 4 drivers spread over the city.
  std::vector<LatLon> pickups = {
      {40.70, -74.00}, {40.71, -73.99}, {40.80, -73.90},
      {40.81, -73.89}, {40.60, -74.02}, {40.90, -73.78}};
  for (int i = 0; i < 6; ++i) {
    ctx_.AddRider(MakeRider(i, pickups[static_cast<size_t>(i)],
                            LatLon{40.75, -73.92}, 600.0));
  }
  std::vector<LatLon> locs = {
      {40.705, -74.0}, {40.805, -73.895}, {40.61, -74.01}, {40.89, -73.79}};
  for (int j = 0; j < 4; ++j) {
    ctx_.AddDriver(MakeDriver(j, locs[static_cast<size_t>(j)]));
  }
  FinalizeSnapshots({{ctx_.riders()[0].dropoff_region, 40.0}});

  auto rand = MakeRandomDispatcher(7);
  auto near = MakeNearestDispatcher();
  auto ltg = MakeLongTripGreedyDispatcher();
  auto irg = MakeIrgDispatcher();
  auto ls = MakeLocalSearchDispatcher();
  auto shrt = MakeShortDispatcher();
  auto polar = MakePolarDispatcher();
  for (Dispatcher* d : {rand.get(), near.get(), ltg.get(), irg.get(),
                        ls.get(), shrt.get(), polar.get()}) {
    std::vector<Assignment> out;
    d->Dispatch(ctx_, &out);
    EXPECT_TRUE(AssignmentsValid(ctx_, out)) << d->name();
    // Every driver has at least one feasible rider here; greedy approaches
    // should match all 4 drivers.
    if (d->name() != "RAND") {
      EXPECT_EQ(out.size(), 4u) << d->name();
    } else {
      EXPECT_GE(out.size(), 3u) << d->name();
    }
  }
}

TEST_F(DispatchTest, NearestPicksClosestDriver) {
  LatLon rider_p{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, rider_p, LatLon{40.75, -73.95}, 500.0));
  ctx_.AddDriver(MakeDriver(0, LatLon{40.72, -74.00}));  // farther
  ctx_.AddDriver(MakeDriver(1, LatLon{40.701, -74.00}));  // closest
  FinalizeSnapshots();
  auto near = MakeNearestDispatcher();
  std::vector<Assignment> out;
  near->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].driver_index, 1);
}

TEST_F(DispatchTest, LtgPicksHighestRevenue) {
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.705, -74.00}));   // short
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.90, -73.78}));    // long
  ctx_.AddDriver(MakeDriver(0, origin));
  FinalizeSnapshots();
  auto ltg = MakeLongTripGreedyDispatcher();
  std::vector<Assignment> out;
  ltg->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].rider_index, 1);
}

TEST_F(DispatchTest, UpperAssignsTopRevenueRiders) {
  LatLon origin{40.70, -74.00};
  ctx_.AddRider(MakeRider(0, origin, LatLon{40.705, -74.00}));
  ctx_.AddRider(MakeRider(1, origin, LatLon{40.90, -73.78}));
  ctx_.AddRider(MakeRider(2, origin, LatLon{40.80, -73.90}));
  ctx_.AddDriver(MakeDriver(0, LatLon{40.60, -74.02}));
  ctx_.AddDriver(MakeDriver(1, LatLon{40.61, -74.02}));
  FinalizeSnapshots();
  auto upper = MakeUpperBoundDispatcher();
  std::vector<Assignment> out;
  upper->Dispatch(ctx_, &out);
  ASSERT_EQ(out.size(), 2u);  // min(3 riders, 2 drivers)
  // The two most expensive riders (1 then 2) are selected.
  EXPECT_EQ(out[0].rider_index, 1);
  EXPECT_EQ(out[1].rider_index, 2);
}

TEST_F(DispatchTest, LocalSearchNeverWorseThanIrgObjective) {
  // Compare the summed idle ratios of LS vs IRG on a contended scenario.
  std::vector<LatLon> pickups = {
      {40.70, -74.00}, {40.703, -74.002}, {40.706, -73.998}};
  std::vector<LatLon> dests = {
      {40.88, -73.80}, {40.62, -74.01}, {40.75, -73.92}};
  for (int i = 0; i < 3; ++i) {
    ctx_.AddRider(MakeRider(i, pickups[static_cast<size_t>(i)],
                            dests[static_cast<size_t>(i)], 400.0));
  }
  ctx_.AddDriver(MakeDriver(0, LatLon{40.701, -74.0}));
  ctx_.AddDriver(MakeDriver(1, LatLon{40.704, -74.0}));
  FinalizeSnapshots({{grid_.RegionOf(dests[0]), 100.0}});

  auto score_sum = [&](const std::vector<Assignment>& as) {
    double s = 0;
    for (const auto& a : as) {
      s += ScorePair(ctx_, ctx_.riders()[static_cast<size_t>(a.rider_index)],
                     GreedyObjective::kIdleRatio, 0);
    }
    return s;
  };

  auto irg = MakeIrgDispatcher();
  auto ls = MakeLocalSearchDispatcher();
  std::vector<Assignment> irg_out, ls_out;
  irg->Dispatch(ctx_, &irg_out);
  ls->Dispatch(ctx_, &ls_out);
  EXPECT_TRUE(AssignmentsValid(ctx_, ls_out));
  EXPECT_EQ(ls_out.size(), irg_out.size());
  EXPECT_LE(score_sum(ls_out), score_sum(irg_out) + 1e-9);
}

TEST_F(DispatchTest, EmptyBatchYieldsNoAssignments) {
  FinalizeSnapshots();
  std::vector<std::unique_ptr<Dispatcher>> dispatchers;
  dispatchers.push_back(MakeIrgDispatcher());
  dispatchers.push_back(MakeLocalSearchDispatcher());
  dispatchers.push_back(MakeShortDispatcher());
  dispatchers.push_back(MakePolarDispatcher());
  dispatchers.push_back(MakeNearestDispatcher());
  dispatchers.push_back(MakeUpperBoundDispatcher());
  for (auto& d : dispatchers) {
    std::vector<Assignment> out;
    d->Dispatch(ctx_, &out);
    EXPECT_TRUE(out.empty()) << d->name();
  }
}

}  // namespace
}  // namespace mrvd
