// Experiment API layer (src/api/): SimulationBuilder validation,
// DispatcherRegistry spec parsing and self-registration, ObserverChain
// event-forwarding order, and ExperimentRunner determinism across runner
// thread counts — the equivalence-suite guarantee extended to the sweep
// layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "dispatch/dispatchers.h"
#include "scenario/script.h"

namespace mrvd {
namespace {

// ------------------------------------------------------ SimConfig::Validate

TEST(SimConfigValidateTest, DefaultConfigIsValid) {
  EXPECT_TRUE(SimConfig{}.Validate().ok());
}

TEST(SimConfigValidateTest, RejectsNonPositiveCoreIntervals) {
  SimConfig cfg;
  cfg.batch_interval = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("batch_interval"), std::string::npos);

  cfg = SimConfig{};
  cfg.window_seconds = -1.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("window_seconds"), std::string::npos);

  cfg = SimConfig{};
  cfg.horizon_seconds = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());
  EXPECT_NE(cfg.Validate().message().find("horizon_seconds"),
            std::string::npos);
}

TEST(SimConfigValidateTest, RejectsNonFiniteValues) {
  // ParseDouble accepts "inf"/"nan", so a config delta can smuggle them
  // in; an infinite horizon (or batch interval) would hang the batch loop
  // forever and NaN comparisons silently misbehave — Validate() is the
  // gate.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double bad : {inf, nan}) {
    SimConfig cfg;
    cfg.horizon_seconds = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.batch_interval = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.window_seconds = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.alpha = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;

    cfg = SimConfig{};
    cfg.reneging_beta = bad;
    EXPECT_FALSE(cfg.Validate().ok()) << bad;
  }
}

TEST(SimConfigValidateTest, RejectsNegativeParallelism) {
  SimConfig cfg;
  cfg.num_threads = -1;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SimConfig{};
  cfg.num_threads = 0;
  EXPECT_TRUE(cfg.Validate().ok());
}

TEST(SimConfigValidateTest, RejectsBadRates) {
  SimConfig cfg;
  cfg.alpha = 0.0;
  EXPECT_FALSE(cfg.Validate().ok());

  cfg = SimConfig{};
  cfg.reneging_beta = -0.1;
  EXPECT_FALSE(cfg.Validate().ok());
}

TEST(SimConfigValidateDeathTest, SimulatorConstructorAbortsOnInvalidConfig) {
  GeneratorConfig gcfg;
  gcfg.grid_rows = 4;
  gcfg.grid_cols = 4;
  gcfg.orders_per_day = 50;
  NycLikeGenerator gen(gcfg);
  Workload day = gen.GenerateDay(0, 5);
  StraightLineCostModel cost(11.0, 1.3);
  SimConfig bad;
  bad.batch_interval = -3.0;
  EXPECT_DEATH_IF_SUPPORTED(
      { Simulator sim(bad, day, gen.grid(), cost, nullptr); },
      "invalid SimConfig");
}

// ------------------------------------------------------- DispatcherRegistry

TEST(DispatcherRegistryTest, RosterContainsEveryBuiltin) {
  std::vector<std::string> names = DispatcherRegistry::Global().Names();
  for (const char* expected :
       {"IRG", "LS", "LTG", "NEAR", "POLAR", "RAND", "SHORT", "UPPER"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
}

TEST(DispatcherRegistryTest, CreatesFromPlainAndParameterisedSpecs) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  auto irg = registry.Create("IRG");
  ASSERT_TRUE(irg.ok()) << irg.status();
  EXPECT_EQ((*irg)->name(), "IRG");

  auto ls = registry.Create("LS:max_sweeps=8");
  ASSERT_TRUE(ls.ok()) << ls.status();
  EXPECT_EQ((*ls)->name(), "LS");

  auto rand = registry.Create("RAND:seed=42");
  ASSERT_TRUE(rand.ok()) << rand.status();
  EXPECT_EQ((*rand)->name(), "RAND");

  // Whitespace around the name, keys and values is tolerated.
  auto spaced = registry.Create("  LS : max_sweeps = 4 ");
  ASSERT_TRUE(spaced.ok()) << spaced.status();
  EXPECT_EQ((*spaced)->name(), "LS");
}

TEST(DispatcherRegistryTest, UnknownNameFailsListingTheRoster) {
  auto d = DispatcherRegistry::Global().Create("NOPE");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kNotFound);
  // The error names the known roster so a typo is a one-glance fix.
  EXPECT_NE(d.status().message().find("IRG"), std::string::npos);
  EXPECT_NE(d.status().message().find("UPPER"), std::string::npos);
}

TEST(DispatcherRegistryTest, BadParametersFailWithDeclaredNames) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();

  auto unknown_param = registry.Create("LS:bogus=1");
  ASSERT_FALSE(unknown_param.ok());
  EXPECT_NE(unknown_param.status().message().find("max_sweeps"),
            std::string::npos);

  auto param_on_paramless = registry.Create("IRG:seed=1");
  ASSERT_FALSE(param_on_paramless.ok());
  EXPECT_NE(param_on_paramless.status().message().find("no parameter"),
            std::string::npos);

  auto bad_value = registry.Create("LS:max_sweeps=abc");
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  auto duplicate = registry.Create("LS:max_sweeps=2,max_sweeps=3");
  ASSERT_FALSE(duplicate.ok());
  EXPECT_NE(duplicate.status().message().find("duplicate"), std::string::npos);

  auto malformed = registry.Create("LS:max_sweeps");
  ASSERT_FALSE(malformed.ok());

  auto empty_name = registry.Create("  ");
  ASSERT_FALSE(empty_name.ok());
}

TEST(DispatcherRegistryTest, Int64ParamsKeepFullFidelity) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  // Above 2^53: would be corrupted by a double round-trip.
  auto big = registry.Create("RAND:seed=9007199254740993");
  EXPECT_TRUE(big.ok()) << big.status();

  // Beyond int64: rejected loudly, never clamped to LLONG_MAX.
  auto overflow = registry.Create("RAND:seed=99999999999999999999");
  ASSERT_FALSE(overflow.ok());
}

TEST(DispatcherRegistryTest, TraitsAndSeedDomain) {
  const DispatcherRegistry& registry = DispatcherRegistry::Global();
  EXPECT_TRUE(registry.RequiresZeroPickupTravel("UPPER"));
  EXPECT_FALSE(registry.RequiresZeroPickupTravel("IRG"));
  EXPECT_TRUE(registry.HasParam("RAND", "seed"));
  EXPECT_FALSE(registry.HasParam("RAND", "max_sweeps"));

  // A uint64 seed above int64 max travels as its two's-complement int64.
  EXPECT_TRUE(registry.Create("LS", {{"max_sweeps", "4"}}).ok());
  EXPECT_TRUE(registry
                  .Create("RAND", {{"seed", std::to_string(static_cast<int64_t>(
                                                0x8000000000000001ull))}})
                  .ok());
  EXPECT_FALSE(registry.Create("NOPE").ok());
}

/// Minimal dispatcher for the self-registration test.
class NullDispatcher final : public Dispatcher {
 public:
  std::string name() const override { return "NULL_TEST"; }
  void Dispatch(const BatchContext&, std::vector<Assignment>*) override {}
};

TEST(DispatcherRegistryTest, SelfRegistrationAndDuplicateRejection) {
  DispatcherRegistry& registry = DispatcherRegistry::Global();
  Status first = registry.Register(
      "NULL_TEST", {}, [](const DispatcherParams&) {
        return std::make_unique<NullDispatcher>();
      });
  ASSERT_TRUE(first.ok()) << first;
  EXPECT_TRUE(registry.Known("NULL_TEST"));

  auto d = registry.Create("NULL_TEST");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ((*d)->name(), "NULL_TEST");

  // First registration wins; a duplicate is rejected, not overwritten.
  Status dup = registry.Register(
      "NULL_TEST", {}, [](const DispatcherParams&) {
        return MakeIrgDispatcher();
      });
  EXPECT_EQ(dup.code(), StatusCode::kFailedPrecondition);
  auto still = registry.Create("NULL_TEST");
  ASSERT_TRUE(still.ok());
  EXPECT_EQ((*still)->name(), "NULL_TEST");
}

// ------------------------------------------------------------- tiny fixture

/// One small generated day shared by the builder/chain/runner tests.
class ApiTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    GeneratorConfig gcfg;
    gcfg.grid_rows = 8;
    gcfg.grid_cols = 8;
    gcfg.orders_per_day = 3000;
    gcfg.seed = 20190417;
    builder_ = new SimulationBuilder();
    builder_->GenerateNycDay(/*day_index=*/1, /*num_drivers=*/40, gcfg)
        .WithOracleForecast()
        .BatchInterval(30.0)
        .HorizonSeconds(4 * 3600.0);
  }
  static void TearDownTestSuite() {
    delete builder_;
    builder_ = nullptr;
  }

  static SimulationBuilder* builder_;
};

SimulationBuilder* ApiTest::builder_ = nullptr;

void ExpectSameAggregates(const SimResult& want, const SimResult& got,
                          const std::string& label) {
  EXPECT_EQ(want.served_orders, got.served_orders) << label;
  EXPECT_EQ(want.reneged_orders, got.reneged_orders) << label;
  EXPECT_EQ(want.cancelled_orders, got.cancelled_orders) << label;
  EXPECT_EQ(want.total_orders, got.total_orders) << label;
  EXPECT_EQ(want.num_batches, got.num_batches) << label;
  EXPECT_EQ(want.total_revenue, got.total_revenue) << label;
  EXPECT_EQ(want.served_wait_seconds.count(), got.served_wait_seconds.count())
      << label;
  EXPECT_EQ(want.served_wait_seconds.mean(), got.served_wait_seconds.mean())
      << label;
  EXPECT_EQ(want.served_wait_seconds.variance(),
            got.served_wait_seconds.variance())
      << label;
  EXPECT_EQ(want.driver_idle_seconds.mean(), got.driver_idle_seconds.mean())
      << label;
  EXPECT_EQ(want.idle_error.count(), got.idle_error.count()) << label;
  EXPECT_EQ(want.idle_error.Mae(), got.idle_error.Mae()) << label;
}

// --------------------------------------------------------- SimulationBuilder

TEST_F(ApiTest, BuildWithoutWorkloadFails) {
  StatusOr<Simulation> sim = SimulationBuilder().Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sim.status().message().find("workload"), std::string::npos);
}

TEST_F(ApiTest, BuildRejectsInvalidConfig) {
  SimulationBuilder bad = *builder_;
  bad.BatchInterval(0.0);
  StatusOr<Simulation> sim = bad.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("batch_interval"), std::string::npos);
}

TEST_F(ApiTest, BuildRejectsForecastGridMismatch) {
  // An oracle forecast for a 4x4 grid day cannot drive an 8x8 simulation.
  GeneratorConfig small;
  small.grid_rows = 4;
  small.grid_cols = 4;
  small.orders_per_day = 200;
  StatusOr<Simulation> tiny = SimulationBuilder()
                                  .GenerateNycDay(0, 5, small)
                                  .WithOracleForecast()
                                  .Build();
  ASSERT_TRUE(tiny.ok()) << tiny.status();

  SimulationBuilder mismatched = *builder_;
  mismatched.WithForecast(*tiny->forecast());
  StatusOr<Simulation> sim = mismatched.Build();
  ASSERT_FALSE(sim.ok());
  EXPECT_NE(sim.status().message().find("regions"), std::string::npos);
}

TEST_F(ApiTest, RunBySpecMatchesDirectEngineRun) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok()) << sim.status();

  StatusOr<SimResult> through_api = sim->Run("LS:max_sweeps=16");
  ASSERT_TRUE(through_api.ok()) << through_api.status();
  ASSERT_GT(through_api->served_orders, 0);

  // The same run hand-wired through the engine — the API is assembly only.
  SimConfig cfg = sim->config();
  Simulator engine(cfg, sim->workload(), sim->grid(), sim->travel_model(),
                   sim->forecast());
  auto ls = MakeLocalSearchDispatcher(16);
  SimResult direct = engine.Run(*ls);
  ExpectSameAggregates(direct, *through_api, "LS builder vs direct");
}

TEST_F(ApiTest, RunUnknownSpecFailsListingRoster) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  StatusOr<SimResult> r = sim->Run("TYPO:seed=1");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("known dispatchers"), std::string::npos);
}

TEST_F(ApiTest, UpperRunsWithZeroPickupTraitApplied) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  // The caller never touches zero_pickup_travel; the registry trait does.
  StatusOr<SimResult> upper = sim->Run("UPPER");
  ASSERT_TRUE(upper.ok()) << upper.status();
  EXPECT_GT(upper->served_orders, 0);
}

// ------------------------------------------------------------ ObserverChain

/// Appends (observer_id, hook_tag) to a shared log on every hook.
class RecordingObserver final : public SimObserver {
 public:
  RecordingObserver(int id, std::vector<std::pair<int, char>>* log)
      : id_(id), log_(log) {}

  void OnBatchBuilt(double, double, const BatchContext&) override {
    log_->push_back({id_, 'b'});
  }
  void OnDispatchDone(double, double,
                      const std::vector<Assignment>&) override {
    log_->push_back({id_, 'd'});
  }
  void OnAssignmentApplied(double, const AssignmentEvent&) override {
    log_->push_back({id_, 'a'});
  }
  void OnRiderReneged(double, const Order&) override {
    log_->push_back({id_, 'r'});
  }
  void OnBatchEnd(double) override { log_->push_back({id_, 'e'}); }
  void OnRunEnd(double, int64_t) override { log_->push_back({id_, 'z'}); }

 private:
  int id_;
  std::vector<std::pair<int, char>>* log_;
};

TEST_F(ApiTest, ObserverChainForwardsEveryEventInRegistrationOrder) {
  std::vector<std::pair<int, char>> log;
  RecordingObserver first(1, &log);
  auto second = std::make_unique<RecordingObserver>(2, &log);

  ObserverChain chain;
  chain.Add(&first).Own(std::move(second)).Add(nullptr);  // null ignored

  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  StatusOr<SimResult> r = sim->Run("NEAR", &chain);
  ASSERT_TRUE(r.ok()) << r.status();

  // Both links saw every event, pairwise: for each engine event the first
  // link fires before the second, and the hook tags agree.
  ASSERT_FALSE(log.empty());
  ASSERT_EQ(log.size() % 2, 0u);
  for (size_t i = 0; i < log.size(); i += 2) {
    EXPECT_EQ(log[i].first, 1) << "event " << i;
    EXPECT_EQ(log[i + 1].first, 2) << "event " << i;
    EXPECT_EQ(log[i].second, log[i + 1].second) << "event " << i;
  }
  // The log ends with OnRunEnd and contains batch/dispatch/apply events.
  EXPECT_EQ(log.back().second, 'z');
  EXPECT_NE(log[0].second, 'z');
}

// --------------------------------------------------------- ExperimentRunner

std::vector<RunSpec> DeterminismSpecs() {
  std::vector<RunSpec> specs;
  specs.emplace_back("IRG");
  specs.emplace_back("RAND:seed=7");
  specs.emplace_back("LS:max_sweeps=2", "LS-shallow");
  specs.emplace_back("NEAR");
  RunSpec seeded("RAND", "RAND-replicated");
  seeded.replication_seed = 7;
  specs.push_back(seeded);
  return specs;
}

TEST_F(ApiTest, RunnerIsBitIdenticalAcrossRunnerThreadCounts) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());

  ExperimentRunner serial(*sim, /*num_threads=*/1);
  StatusOr<std::vector<RunResult>> want = serial.RunAll(DeterminismSpecs());
  ASSERT_TRUE(want.ok()) << want.status();
  ASSERT_EQ(want->size(), 5u);
  for (const RunResult& r : *want) {
    EXPECT_GT(r.result.served_orders, 0) << r.label;
  }

  ExperimentRunner threaded(*sim, /*num_threads=*/4);
  StatusOr<std::vector<RunResult>> got = threaded.RunAll(DeterminismSpecs());
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    EXPECT_EQ((*want)[i].label, (*got)[i].label);
    ExpectSameAggregates((*want)[i].result, (*got)[i].result,
                         (*want)[i].label + " @4 runner threads");
  }

  // replication_seed=7 on a bare "RAND" spec equals the explicit
  // "RAND:seed=7" spec, bit for bit.
  ExpectSameAggregates((*want)[1].result, (*want)[4].result,
                       "replication seed vs explicit seed");
}

TEST_F(ApiTest, RunnerFailsFastOnUnknownSpec) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  ExperimentRunner runner(*sim);
  StatusOr<std::vector<RunResult>> results =
      runner.RunAll({RunSpec("IRG"), RunSpec("TYPO")});
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("known dispatchers"),
            std::string::npos);
}

TEST_F(ApiTest, RunnerAppliesConfigOverridesAndScenarioChoice) {
  // A script that cancels a handful of early orders.
  ScenarioScript script;
  for (OrderId id = 0; id < 40; ++id) script.Cancel(600.0 + id, id);
  SimulationBuilder with_scenario = *builder_;
  with_scenario.WithScenario(std::move(script));
  StatusOr<Simulation> sim = with_scenario.Build();
  ASSERT_TRUE(sim.ok());

  RunSpec scripted("NEAR", "scripted");
  RunSpec unscripted("NEAR", "unscripted");
  unscripted.use_scenario = false;
  RunSpec half_horizon("NEAR", "half");
  SimConfig half_cfg = sim->config();
  half_cfg.horizon_seconds /= 2;
  half_horizon.config = half_cfg;

  ExperimentRunner runner(*sim);
  StatusOr<std::vector<RunResult>> results =
      runner.RunAll({scripted, unscripted, half_horizon});
  ASSERT_TRUE(results.ok()) << results.status();
  EXPECT_GT((*results)[0].result.cancelled_orders, 0);
  EXPECT_EQ((*results)[1].result.cancelled_orders, 0);
  EXPECT_LT((*results)[2].result.num_batches,
            (*results)[0].result.num_batches);

  // An invalid per-spec config is caught before anything runs.
  RunSpec bad("IRG");
  SimConfig bad_cfg = sim->config();
  bad_cfg.window_seconds = -5.0;
  bad.config = bad_cfg;
  StatusOr<std::vector<RunResult>> invalid = runner.RunAll({bad});
  ASSERT_FALSE(invalid.ok());
  EXPECT_NE(invalid.status().message().find("window_seconds"),
            std::string::npos);
}

TEST_F(ApiTest, RunResultsSerialiseToJson) {
  StatusOr<Simulation> sim = builder_->Build();
  ASSERT_TRUE(sim.ok());
  ExperimentRunner runner(*sim);
  StatusOr<std::vector<RunResult>> results =
      runner.RunAll({RunSpec("NEAR", "baseline")});
  ASSERT_TRUE(results.ok());
  std::string json = RunResultsToJson(*results);
  EXPECT_NE(json.find("\"runs\""), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"baseline\""), std::string::npos);
  EXPECT_NE(json.find("\"dispatcher\": \"NEAR\""), std::string::npos);
  EXPECT_NE(json.find("\"served\""), std::string::npos);
}

}  // namespace
}  // namespace mrvd
