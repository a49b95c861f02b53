// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
//  * the birth-death chain's invariants over a (λ, μ, β, K) grid,
//  * end-to-end dispatcher invariants over every approach.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "api/dispatcher_registry.h"
#include "geo/travel.h"
#include "queueing/birth_death.h"
#include "registry_test_helpers.h"
#include "sim/engine.h"
#include "workload/generator.h"

namespace mrvd {
namespace {

// ---------------------------------------------------------------------
// Chain invariants over the full parameter grid.

using ChainParams = std::tuple<double, double, double, int64_t>;

class ChainSweepTest : public ::testing::TestWithParam<ChainParams> {
 protected:
  QueueParams Params() const {
    auto [lambda, mu, beta, cap] = GetParam();
    return {lambda, mu, beta, cap};
  }
};

TEST_P(ChainSweepTest, ProbabilitiesNormalize) {
  auto chain = BirthDeathChain::Solve(Params());
  ASSERT_TRUE(chain.ok());
  // Negative support: exactly K states when λ <= μ (mass grows toward -K),
  // unbounded geometric decay when λ > μ (sum until terms vanish, Eq. 7).
  const QueueParams params = Params();
  double total = 0.0;
  for (int64_t n = chain->positive_tail_length(); n >= -100000; --n) {
    double p = chain->StateProbability(n);
    total += p;
    if (params.lambda <= params.mu && n <= -params.max_drivers) break;
    if (params.lambda > params.mu && n < 0 && p < 1e-15) break;
  }
  EXPECT_NEAR(total, 1.0, 1e-6);
}

TEST_P(ChainSweepTest, FlowBalanceEverywhere) {
  QueueParams params = Params();
  auto chain = BirthDeathChain::Solve(params);
  ASSERT_TRUE(chain.ok());
  RenegingFunction pi(params.beta, params.mu);
  for (int64_t n = -std::min<int64_t>(params.max_drivers - 1, 20); n <= 10;
       ++n) {
    double mu_n = n <= 0 ? params.mu : params.mu + pi(n);
    double lhs = mu_n * chain->StateProbability(n);
    double rhs = params.lambda * chain->StateProbability(n - 1);
    EXPECT_NEAR(lhs, rhs, 1e-9 * (1.0 + lhs)) << "n=" << n;
  }
}

TEST_P(ChainSweepTest, IdleTimeEqualsDirectSum) {
  QueueParams params = Params();
  auto chain = BirthDeathChain::Solve(params);
  ASSERT_TRUE(chain.ok());
  double direct = 0.0;
  for (int64_t n = 0; n >= -100000; --n) {
    double p = chain->StateProbability(n);
    direct += (static_cast<double>(-n) + 1.0) / params.lambda * p;
    // λ <= μ: support ends at -K (mass grows toward it). λ > μ: unbounded
    // geometric tail (Eq. 7) — stop once the terms vanish.
    if (params.lambda <= params.mu && n <= -params.max_drivers) break;
    if (params.lambda > params.mu && n < 0 && p < 1e-18) break;
  }
  EXPECT_NEAR(chain->ExpectedIdleSeconds(), direct, 1e-6 * (1.0 + direct));
}

TEST_P(ChainSweepTest, IdleTimeFiniteAndNonNegative) {
  auto chain = BirthDeathChain::Solve(Params());
  ASSERT_TRUE(chain.ok());
  EXPECT_TRUE(std::isfinite(chain->ExpectedIdleSeconds()));
  EXPECT_GE(chain->ExpectedIdleSeconds(), 0.0);
  EXPECT_GE(chain->p0(), 0.0);
  EXPECT_LE(chain->p0(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ChainSweepTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),     // lambda
                       ::testing::Values(0.5, 1.0, 2.0),     // mu
                       ::testing::Values(0.01, 0.1),         // beta
                       ::testing::Values<int64_t>(5, 50)),   // K
    [](const ::testing::TestParamInfo<ChainParams>& info) {
      // Note: no structured bindings here — the commas inside `[a, b]`
      // would split the INSTANTIATE_TEST_SUITE_P macro arguments.
      double l = std::get<0>(info.param);
      double m = std::get<1>(info.param);
      double b = std::get<2>(info.param);
      int64_t k = std::get<3>(info.param);
      // Appended piecewise: GCC 12 reports a false -Wrestrict on the
      // inlined `const char* + std::string` operator chain.
      std::string name = "l";
      name += std::to_string(static_cast<int>(l * 10));
      name += "_m";
      name += std::to_string(static_cast<int>(m * 10));
      name += "_b";
      name += std::to_string(static_cast<int>(b * 100));
      name += "_k";
      name += std::to_string(k);
      return name;
    });

// ---------------------------------------------------------------------
// Dispatcher invariants over every approach, end to end.

class DispatcherSweepTest : public ::testing::TestWithParam<std::string> {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig cfg;
    cfg.grid_rows = 8;
    cfg.grid_cols = 8;
    cfg.orders_per_day = 5000;
    generator_ = new NycLikeGenerator(cfg);
    workload_ = new Workload(generator_->GenerateDay(4, 60));
    cost_ = new StraightLineCostModel(11.0, 1.3);
  }
  static void TearDownTestSuite() {
    delete cost_;
    delete workload_;
    delete generator_;
  }

  static std::unique_ptr<Dispatcher> Make(const std::string& name) {
    return test::MakeSeeded(name, /*seed=*/9);
  }

  static SimResult Run(const std::string& name) {
    SimConfig cfg;
    cfg.batch_interval = 10.0;
    auto d = Make(name);
    Simulator sim(cfg, *workload_, generator_->grid(), *cost_, nullptr);
    return sim.Run(*d);
  }

  static NycLikeGenerator* generator_;
  static Workload* workload_;
  static StraightLineCostModel* cost_;
};

NycLikeGenerator* DispatcherSweepTest::generator_ = nullptr;
Workload* DispatcherSweepTest::workload_ = nullptr;
StraightLineCostModel* DispatcherSweepTest::cost_ = nullptr;

TEST_P(DispatcherSweepTest, ConservesOrders) {
  SimResult r = Run(GetParam());
  EXPECT_EQ(r.served_orders + r.reneged_orders, r.total_orders);
  EXPECT_GE(r.served_orders, 0);
}

TEST_P(DispatcherSweepTest, RevenueConsistentWithService) {
  SimResult r = Run(GetParam());
  EXPECT_GT(r.served_orders, 0) << "nothing served at all";
  EXPECT_GT(r.total_revenue, 0.0);
  // Revenue per served order must be a plausible trip time (10 s .. 2 h).
  double per_order = r.total_revenue / static_cast<double>(r.served_orders);
  EXPECT_GT(per_order, 10.0);
  EXPECT_LT(per_order, 7200.0);
}

TEST_P(DispatcherSweepTest, DeterministicRerun) {
  SimResult a = Run(GetParam());
  SimResult b = Run(GetParam());
  EXPECT_EQ(a.served_orders, b.served_orders);
  EXPECT_DOUBLE_EQ(a.total_revenue, b.total_revenue);
}

TEST_P(DispatcherSweepTest, BatchTimeBounded) {
  SimResult r = Run(GetParam());
  EXPECT_LT(r.batch_seconds.max(), 2.0);  // the paper's feasibility bar
}

// Every registered dispatcher that runs under the standard config (the
// registry's trait filters UPPER) — a newly registered approach joins the
// sweep automatically.
INSTANTIATE_TEST_SUITE_P(AllApproaches, DispatcherSweepTest,
                         ::testing::ValuesIn(test::RosterWithoutZeroPickup()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace mrvd
