// Identities the benchmark relies on, checked on a short horizon:
//   * idle-fleet at 4 engine threads gives the same SimResult as its
//     inputs at 1 thread (so threads.*_speedup compare equal work);
//   * the benchmark's direct generate + oracle-forecast set-up gives the
//     same SimResult as SimulationBuilder::WithOracleForecast();
//   * the traced run (TimedDispatcher + probes) changes no result, and the
//     probe's tallies pass their own checks;
//   * an untraced run scales every batch to reference seconds.
#include <gtest/gtest.h>

#include <cmath>

#include "harness.h"

namespace perfbench {
namespace {

constexpr uint64_t kSeed = 3;

DayWorkload Short(DayWorkload w) {
  w.horizon_seconds = 1800.0;
  return w;
}

DayRun MustRun(const mrvd::Simulation& sim, const mrvd::SimConfig& config,
               const std::string& dispatcher, bool traced) {
  mrvd::StatusOr<DayRun> run = RunDay(sim, config, dispatcher, traced);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<std::string> failures;
  run->probe->CheckResult(run->result, &failures);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_EQ(run->probe->deadline_violations, 0);
  EXPECT_EQ(run->probe->mismatched_batches, 0);
  return std::move(run).value();
}

TEST(PerfbenchIdentity, IdleFleetFourThreadsMatchesOneThread) {
  const DayWorkload w = Short(kIdleFleet);
  mrvd::StatusOr<DaySetup> setup = SetUpDay(w, kSeed);
  ASSERT_TRUE(setup.ok()) << setup.status().ToString();
  const mrvd::Simulation& sim = *setup->sim;
  ASSERT_EQ(sim.config().num_threads, 1);
  mrvd::SimConfig four = sim.config();
  four.num_threads = w.compare_threads;
  ASSERT_EQ(four.num_threads, 4);

  DayRun threaded = MustRun(sim, four, w.dispatcher, false);
  DayRun one = MustRun(sim, sim.config(), w.dispatcher, false);
  EXPECT_GT(threaded.result.served_orders, 0);
  EXPECT_EQ(DiffResults(threaded.result, one.result), "");
}

TEST(PerfbenchIdentity, DirectSetUpMatchesOracleBuilder) {
  const DayWorkload w = Short(kPaperDay);
  mrvd::StatusOr<DaySetup> direct = SetUpDay(w, kSeed);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  mrvd::StatusOr<mrvd::Simulation> oracle =
      mrvd::SimulationBuilder()
          .GenerateNycDay(SeededDay(kBaseDay, kSeed), w.num_drivers)
          .WithOracleForecast()
          .BatchInterval(w.batch_interval)
          .HorizonSeconds(w.horizon_seconds)
          .Build();
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

  mrvd::StatusOr<mrvd::SimResult> expected = oracle->Run(w.dispatcher);
  ASSERT_TRUE(expected.ok());
  DayRun got =
      MustRun(*direct->sim, direct->sim->config(), w.dispatcher, false);
  EXPECT_GT(got.result.served_orders, 0);
  EXPECT_EQ(DiffResults(*expected, got.result), "");
}

TEST(PerfbenchIdentity, TracingChangesNoResult) {
  const DayWorkload w = Short(kPaperDay);
  mrvd::StatusOr<DaySetup> setup = SetUpDay(w, kSeed);
  ASSERT_TRUE(setup.ok());
  const mrvd::Simulation& sim = *setup->sim;
  DayRun untraced = MustRun(sim, sim.config(), w.dispatcher, false);
  DayRun traced = MustRun(sim, sim.config(), w.dispatcher, true);
  EXPECT_EQ(DiffResults(untraced.result, traced.result), "");
  ASSERT_EQ(traced.probe->stamps.size(), traced.probe->batch_seconds.size());
  for (const BatchStamps& s : traced.probe->stamps) {
    ASSERT_LE(s.start, s.built);
    ASSERT_LE(s.built, s.entry);
    ASSERT_LE(s.entry, s.exit);
    ASSERT_LE(s.exit, s.candidates_end);
    ASSERT_LE(s.candidates_end, s.et_end);
    ASSERT_LE(s.et_end, s.done);
    ASSERT_LE(s.done, s.end);
  }
  SpanLog log;
  traced.probe->ExportSpans(&log);
  EXPECT_EQ(log.spans().size(), 1 + 8 * traced.probe->stamps.size());
}

TEST(PerfbenchSpeed, UntracedRunScalesEveryBatch) {
  const DayWorkload w = Short(kPaperDay);
  mrvd::StatusOr<DaySetup> setup = SetUpDay(w, kSeed);
  ASSERT_TRUE(setup.ok());
  const mrvd::Simulation& sim = *setup->sim;
  DayRun run = MustRun(sim, sim.config(), w.dispatcher, false);
  const DayProbe& p = *run.probe;
  ASSERT_EQ(p.reference_batch_seconds.size(), p.batch_seconds.size());
  double batches = 0.0;
  for (double b : p.reference_batch_seconds) {
    ASSERT_GT(b, 0.0);
    batches += b;
  }
  EXPECT_LE(batches, p.ReferenceWallSeconds());

  SpeedSampler sampler;
  const double factor = sampler.Stop();  // before its first interval
  EXPECT_GT(factor, 0.0);
  EXPECT_TRUE(std::isfinite(factor));
}

TEST(PerfbenchIdentity, RosterGridHasSixtyFourCells) {
  mrvd::StatusOr<std::vector<mrvd::CampaignCell>> cells =
      mrvd::ExpandGrid(RosterSpec(kSeed));
  ASSERT_TRUE(cells.ok()) << cells.status().ToString();
  EXPECT_EQ(cells->size(), 64u);
}

TEST(PerfbenchQuantile, InterpolatesLinearly) {
  EXPECT_EQ(Quantile({}, 0.5), 0.0);
  EXPECT_EQ(Quantile({3.0, 1.0, 2.0}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Quantile({0.0, 10.0}, 0.99), 9.9);
}

}  // namespace
}  // namespace perfbench
