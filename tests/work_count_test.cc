// Work-count golden test: a fixed-seed small day replayed under NEAR and LS
// with a telemetry session must report exactly the deterministic work
// counters checked into tests/data/work_counts.txt. A complexity regression
// (more regions visited, more drivers scanned, more ET solves) then fails
// here on any runner, with no timing involved.
//
// The expectations are exact. A change that alters the algorithmic work on
// purpose updates the file and says why; on a mismatch the test prints the
// full table of actual values in the file's format.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "api/api.h"
#include "telemetry/session.h"

namespace mrvd {
namespace {

using telemetry::MetricsRegistry;
using telemetry::TelemetryConfig;
using telemetry::TelemetrySession;

constexpr const char* kDispatchers[] = {"NEAR", "LS"};
constexpr const char* kCounters[] = {
    "engine.batches",
    "engine.assignments",
    "candidates.regions_visited",
    "candidates.drivers_scanned",
    "candidates.pairs",
    "batch.drivers_materialised",
    "batch.drivers_patched",
    "batch.et_solves",
};

using CountTable = std::map<std::pair<std::string, std::string>, int64_t>;

/// Parses "<dispatcher> <counter> <value>" lines; '#' starts a comment.
CountTable ReadExpected(const std::string& path) {
  CountTable table;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    line = line.substr(0, line.find('#'));
    std::istringstream fields(line);
    std::string dispatcher, counter;
    int64_t value = 0;
    if (fields >> dispatcher >> counter >> value) {
      table[{dispatcher, counter}] = value;
    }
  }
  return table;
}

/// Quickstart's city (16x16 grid, 250 drivers, 20k orders a day) over the
/// first twelve hours at Δ = 3 s. Over shorter mornings demand is so thin
/// that LS selects exactly NEAR's pairs, and the two rows would coincide.
CountTable Replay() {
  CountTable table;
  for (const char* dispatcher : kDispatchers) {
    TelemetryConfig config;
    config.tracing = false;
    config.async_drain = false;
    TelemetrySession session(config);
    GeneratorConfig city;
    city.orders_per_day = 20000;
    SimulationBuilder builder;
    builder.GenerateNycDay(/*day_index=*/7, /*num_drivers=*/250, city)
        .WithOracleForecast()
        .HorizonSeconds(12.0 * 3600.0)
        .WithTelemetry(&session);
    StatusOr<Simulation> sim = builder.Build();
    EXPECT_TRUE(sim.ok()) << sim.status();
    if (!sim.ok()) continue;
    StatusOr<SimResult> run = sim->Run(dispatcher);
    EXPECT_TRUE(run.ok()) << run.status();
    session.Finish();
    const MetricsRegistry& reg = session.metrics();
    for (const char* name : kCounters) {
      const telemetry::Counter* c = reg.FindCounter(name);
      table[{dispatcher, name}] = c == nullptr ? -1 : c->value();
    }
  }
  return table;
}

std::string Format(const CountTable& table) {
  std::ostringstream out;
  for (const char* dispatcher : kDispatchers) {
    for (const char* name : kCounters) {
      auto it = table.find({dispatcher, name});
      out << dispatcher << ' ' << name << ' '
          << (it == table.end() ? -1 : it->second) << '\n';
    }
  }
  return out.str();
}

TEST(WorkCountTest, SmallDayMatchesCheckedInCounts) {
  const CountTable expected =
      ReadExpected(std::string(MRVD_TEST_DATA_DIR) + "/work_counts.txt");
  const CountTable actual = Replay();
  for (const char* dispatcher : kDispatchers) {
    for (const char* name : kCounters) {
      auto it = expected.find({dispatcher, name});
      if (it == expected.end()) {
        ADD_FAILURE() << "work_counts.txt has no entry for " << dispatcher
                      << ' ' << name;
        continue;
      }
      EXPECT_EQ(actual.at({dispatcher, name}), it->second)
          << dispatcher << ' ' << name;
    }
  }
  if (HasFailure()) ADD_FAILURE() << "actual counts:\n" << Format(actual);
}

}  // namespace
}  // namespace mrvd
