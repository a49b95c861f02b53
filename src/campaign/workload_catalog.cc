#include "campaign/workload_catalog.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

#include "geo/grid.h"
#include "scenario/generator.h"
#include "util/logging.h"
#include "util/strings.h"
#include "workload/generator.h"
#include "workload/order_stream.h"
#include "workload/tlc_parser.h"

namespace mrvd {

namespace {

/// "NAME" / "NAME:key=value,..." split — dispatcher spec syntax, parsed by
/// the same shared ParseKeyValueList (values therefore cannot contain ',' —
/// true of every catalog parameter, including sensible artifact paths).
struct ParsedCatalogSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

StatusOr<ParsedCatalogSpec> ParseCatalogSpec(const std::string& kind,
                                             const std::string& spec) {
  ParsedCatalogSpec out;
  std::string_view rest = StripAsciiWhitespace(spec);
  size_t colon = rest.find(':');
  out.name = std::string(StripAsciiWhitespace(rest.substr(0, colon)));
  if (out.name.empty()) {
    return Status::InvalidArgument("empty " + kind + " name in spec '" + spec +
                                   "'");
  }
  if (colon == std::string_view::npos) return out;
  MRVD_RETURN_NOT_OK(ParseKeyValueList(rest.substr(colon + 1),
                                       kind + " spec '" + spec + "'",
                                       &out.params));
  return out;
}

std::string DeclaredParamList(const std::vector<CatalogParam>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += ", ";
    out += p.name;
  }
  return out;
}

/// Canonical text for a validated raw value: numerics are re-formatted
/// ("007" -> "7", "1e1" -> "10") so spelling differences cannot fork run
/// keys; strings stay verbatim (already whitespace-trimmed).
StatusOr<std::string> CanonicalValue(const CatalogParam& decl,
                                     const std::string& raw) {
  switch (decl.type) {
    case CatalogParam::Type::kInt64: {
      StatusOr<int64_t> v = ParseInt64(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "': not an int64: '" + raw + "'");
      }
      return std::to_string(*v);
    }
    case CatalogParam::Type::kDouble: {
      StatusOr<double> v = ParseDouble(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "': not a number: '" + raw + "'");
      }
      return FormatDouble(*v);
    }
    case CatalogParam::Type::kString:
      return raw;
  }
  return Status::Internal("unhandled catalog parameter type");
}

}  // namespace

int64_t CatalogParams::GetInt(const std::string& name) const {
  return values_.at(name).i;
}

double CatalogParams::GetDouble(const std::string& name) const {
  return values_.at(name).d;
}

const std::string& CatalogParams::GetString(const std::string& name) const {
  return values_.at(name).s;
}

// ---------------------------------------------------------------------
// Catalog<FactoryT>

template <typename FactoryT>
Status Catalog<FactoryT>::Register(std::string name,
                                   std::vector<CatalogParam> params,
                                   FactoryT factory) {
  if (name.empty()) {
    return Status::InvalidArgument(kind_ + " name must not be empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument(kind_ + " '" + name +
                                   "' registered without a factory");
  }
  for (const CatalogParam& p : params) {
    StatusOr<std::string> canonical = CanonicalValue(p, p.default_value);
    if (!canonical.ok()) {
      return Status::InvalidArgument(kind_ + " '" + name +
                                     "': bad default: " +
                                     canonical.status().message());
    }
  }
  auto [it, inserted] = entries_.try_emplace(
      std::move(name), Entry{std::move(params), std::move(factory)});
  if (!inserted) {
    return Status::FailedPrecondition(kind_ + " '" + it->first +
                                      "' is already registered");
  }
  return Status::OK();
}

template <typename FactoryT>
std::vector<std::string> Catalog<FactoryT>::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, unused] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

template <typename FactoryT>
std::string Catalog<FactoryT>::RosterString() const {
  std::string out;
  for (const auto& [name, unused] : entries_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

template <typename FactoryT>
StatusOr<std::pair<const typename Catalog<FactoryT>::Entry*, CatalogParams>>
Catalog<FactoryT>::Resolve(const std::string& spec) const {
  StatusOr<ParsedCatalogSpec> parsed = ParseCatalogSpec(kind_, spec);
  if (!parsed.ok()) return parsed.status();
  auto it = entries_.find(parsed->name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown " + kind_ + " '" + parsed->name +
                            "'; known " + kind_ + "s: " + RosterString());
  }
  const Entry& entry = it->second;

  CatalogParams params;
  for (const CatalogParam& p : entry.params) {
    CatalogParams::Value value;
    switch (p.type) {
      case CatalogParam::Type::kInt64:
        value.i = *ParseInt64(p.default_value);  // validated at Register()
        value.d = static_cast<double>(value.i);
        break;
      case CatalogParam::Type::kDouble:
        value.d = *ParseDouble(p.default_value);
        break;
      case CatalogParam::Type::kString:
        value.s = p.default_value;
        break;
    }
    params.values_[p.name] = std::move(value);
  }
  for (const auto& [key, raw] : parsed->params) {
    const CatalogParam* decl = nullptr;
    for (const CatalogParam& p : entry.params) {
      if (p.name == key) {
        decl = &p;
        break;
      }
    }
    if (decl == nullptr) {
      return Status::InvalidArgument(
          kind_ + " '" + parsed->name + "' has no parameter '" + key + "'" +
          (entry.params.empty()
               ? "; it takes no parameters"
               : "; declared parameters: " + DeclaredParamList(entry.params)));
    }
    CatalogParams::Value value;
    switch (decl->type) {
      case CatalogParam::Type::kInt64: {
        StatusOr<int64_t> v = ParseInt64(raw);
        if (!v.ok()) {
          return Status::InvalidArgument(kind_ + " '" + parsed->name +
                                         "' parameter '" + key +
                                         "': not an int64: '" + raw + "'");
        }
        value.i = *v;
        value.d = static_cast<double>(*v);
        break;
      }
      case CatalogParam::Type::kDouble: {
        StatusOr<double> v = ParseDouble(raw);
        if (!v.ok()) {
          return Status::InvalidArgument(kind_ + " '" + parsed->name +
                                         "' parameter '" + key +
                                         "': not a number: '" + raw + "'");
        }
        value.d = *v;
        break;
      }
      case CatalogParam::Type::kString:
        value.s = raw;
        break;
    }
    params.values_[key] = std::move(value);
  }
  return std::make_pair(&entry, std::move(params));
}

template <typename FactoryT>
StatusOr<std::string> Catalog<FactoryT>::Canonicalize(
    const std::string& spec) const {
  StatusOr<ParsedCatalogSpec> parsed = ParseCatalogSpec(kind_, spec);
  if (!parsed.ok()) return parsed.status();
  auto it = entries_.find(parsed->name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown " + kind_ + " '" + parsed->name +
                            "'; known " + kind_ + "s: " + RosterString());
  }
  const Entry& entry = it->second;

  // Full resolved parameter list — declared defaults with the spec's
  // overrides applied, every value re-formatted at its declared type. The
  // canonical form is therefore a pure function of what the factory will
  // actually build ("nyc" == "nyc:day=1" while 1 is the default), which is
  // what the campaign layer's content keys hash.
  std::vector<std::pair<std::string, std::string>> canonical;
  canonical.reserve(entry.params.size());
  for (const CatalogParam& decl : entry.params) {
    const std::string* raw = nullptr;
    for (const auto& [key, value] : parsed->params) {
      if (key == decl.name) {
        raw = &value;
        break;
      }
    }
    StatusOr<std::string> value =
        CanonicalValue(decl, raw != nullptr ? *raw : decl.default_value);
    if (!value.ok()) {
      return Status::InvalidArgument(kind_ + " '" + parsed->name + "' " +
                                     value.status().message());
    }
    // Empty string values (e.g. tlc's default path) cannot round-trip
    // through spec syntax; omit them — absent and empty are the same.
    if (value->empty()) continue;
    canonical.emplace_back(decl.name, std::move(value).value());
  }
  for (const auto& [key, unused] : parsed->params) {
    bool declared = false;
    for (const CatalogParam& decl : entry.params) {
      if (decl.name == key) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      return Status::InvalidArgument(
          kind_ + " '" + parsed->name + "' has no parameter '" + key + "'" +
          (entry.params.empty()
               ? "; it takes no parameters"
               : "; declared parameters: " + DeclaredParamList(entry.params)));
    }
  }
  std::sort(canonical.begin(), canonical.end());

  std::string out = parsed->name;
  for (size_t i = 0; i < canonical.size(); ++i) {
    out += i == 0 ? ':' : ',';
    out += canonical[i].first;
    out += '=';
    out += canonical[i].second;
  }
  return out;
}

template class Catalog<WorkloadFactory>;
template class Catalog<ScenarioFactory>;

// ---------------------------------------------------------------------
// Built-in workloads

namespace {

void RegisterBuiltinWorkloads(WorkloadCatalog* c) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in workload registration failed: " << st;
    }
  };
  using T = CatalogParam::Type;
  must(c->Register(
      "nyc",
      {
          {"day", T::kInt64, "1", "day index (day-of-week = day % 7)"},
          {"drivers", T::kInt64, "40", "fleet size"},
          {"orders", T::kInt64, "3000", "orders per day"},
          {"grid_rows", T::kInt64, "8", "grid rows"},
          {"grid_cols", T::kInt64, "8", "grid columns"},
          {"seed", T::kInt64, "20190417", "generator master seed"},
          {"oracle", T::kInt64, "1",
           "1 = derive the realized-counts oracle forecast"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "30", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "4", "default horizon (hours)"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        GeneratorConfig gcfg;
        gcfg.grid_rows = static_cast<int>(p.GetInt("grid_rows"));
        gcfg.grid_cols = static_cast<int>(p.GetInt("grid_cols"));
        gcfg.orders_per_day = static_cast<double>(p.GetInt("orders"));
        gcfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        SimulationBuilder builder;
        builder
            .GenerateNycDay(static_cast<int>(p.GetInt("day")),
                            static_cast<int>(p.GetInt("drivers")), gcfg)
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        if (p.GetInt("oracle") != 0) builder.WithOracleForecast();
        return builder.Build();
      }));
  must(c->Register(
      "nyc-skew",
      {
          {"day", T::kInt64, "1", "day index (day-of-week = day % 7)"},
          {"drivers", T::kInt64, "40", "fleet size"},
          {"orders", T::kInt64, "3000", "orders per day"},
          {"grid_rows", T::kInt64, "16", "grid rows"},
          {"grid_cols", T::kInt64, "16", "grid columns"},
          {"seed", T::kInt64, "20190417", "generator master seed"},
          {"oracle", T::kInt64, "1",
           "1 = derive the realized-counts oracle forecast"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "30", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "4", "default horizon (hours)"},
          {"surge_start_hour", T::kDouble, "0.5", "skew window start (hours)"},
          {"surge_end_hour", T::kDouble, "2.5", "skew window end (hours)"},
          {"share", T::kDouble, "0.7",
           "share of window arrivals relocated into the hot rows"},
          {"row_lo", T::kInt64, "0", "first hot grid row"},
          {"row_hi", T::kInt64, "2", "last hot grid row"},
          {"multiplier", T::kDouble, "2",
           "surge demand multiplier over the hot rows"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        // The nyc day with a rush hour funnelling `share` of the window's
        // arrivals into rows [row_lo, row_hi], plus a row-band surge window
        // over the same rows so the forecast layer sees the concentration
        // too — a spatially skewed demand day.
        GeneratorConfig gcfg;
        gcfg.grid_rows = static_cast<int>(p.GetInt("grid_rows"));
        gcfg.grid_cols = static_cast<int>(p.GetInt("grid_cols"));
        gcfg.orders_per_day = static_cast<double>(p.GetInt("orders"));
        gcfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        NycLikeGenerator generator(gcfg);
        Workload day = generator.GenerateDay(
            static_cast<int>(p.GetInt("day")),
            static_cast<int>(p.GetInt("drivers")));
        const double start = p.GetDouble("surge_start_hour") * 3600.0;
        const double end = p.GetDouble("surge_end_hour") * 3600.0;
        const int row_lo = static_cast<int>(p.GetInt("row_lo"));
        const int row_hi = static_cast<int>(p.GetInt("row_hi"));
        Workload skewed = SkewWorkloadRows(day, generator.grid(), start, end,
                                           p.GetDouble("share"), row_lo,
                                           row_hi, gcfg.seed ^ 0x5EEDULL);
        ScenarioDayConfig scfg;
        scfg.surges.push_back(RowBandSurge(generator.grid(), row_lo, row_hi,
                                           start, end,
                                           p.GetDouble("multiplier")));
        ScenarioScript script = BuildScenarioDay(skewed, scfg);
        SimulationBuilder builder;
        builder.WithWorkload(std::move(skewed), generator.grid())
            .WithScenario(std::move(script))
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        if (p.GetInt("oracle") != 0) builder.WithOracleForecast();
        return builder.Build();
      }));
  must(c->Register(
      "tlc",
      {
          {"path", T::kString, "",
           "trip CSV path (empty = $MRVD_TLC_CSV)"},
          {"drivers", T::kInt64, "3000", "fleet size"},
          {"day", T::kInt64, "-1", "day filter (-1 = keep all)"},
          {"max_orders", T::kInt64, "0", "order cap (0 = unlimited)"},
          {"seed", T::kInt64, "20190417", "deadline-noise seed"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "3", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "24", "default horizon (hours)"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        std::string path = p.GetString("path");
        if (path.empty()) {
          const char* env = std::getenv("MRVD_TLC_CSV");
          if (env != nullptr) path = env;
        }
        if (path.empty()) {
          return Status::InvalidArgument(
              "workload 'tlc' needs a CSV: pass path=... or set "
              "MRVD_TLC_CSV");
        }
        TlcParseOptions options;
        options.day_filter = static_cast<int>(p.GetInt("day"));
        options.max_orders = p.GetInt("max_orders");
        options.seed = static_cast<uint64_t>(p.GetInt("seed"));
        StatusOr<Workload> workload = ParseTlcCsv(
            path, static_cast<int>(p.GetInt("drivers")), options);
        if (!workload.ok()) return workload.status();
        SimulationBuilder builder;
        builder
            .WithWorkload(std::move(workload).value(), MakeNycGrid16x16())
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(p.GetDouble("horizon_hours") * 3600.0);
        return builder.Build();
      }));
  must(c->Register(
      "trace",
      {
          {"path", T::kString, "",
           "binary order-trace path (empty = $MRVD_TRACE_BIN)"},
          {"max_orders", T::kInt64, "0", "order cap (0 = the whole trace)"},
          {"speed_mps", T::kDouble, "11", "straight-line travel speed"},
          {"detour", T::kDouble, "1.3", "straight-line detour factor"},
          {"batch_interval", T::kDouble, "3", "default batch interval (s)"},
          {"horizon_hours", T::kDouble, "0",
           "horizon (hours); 0 = the trace header's horizon"},
      },
      [](const CatalogParams& p) -> StatusOr<Simulation> {
        // The streamed city-scale workload: orders pull straight from the
        // binary trace with O(batch) memory. MRVD_TRACE_MATERIALIZE=1
        // switches the factory to loading the whole trace up front — an
        // env toggle, NOT a spec parameter, so the canonical spec (and
        // therefore every campaign cell key and manifest) is identical
        // either way; CI exploits that to byte-compare the two manifests.
        std::string path = p.GetString("path");
        if (path.empty()) {
          const char* env = std::getenv("MRVD_TRACE_BIN");
          if (env != nullptr) path = env;
        }
        if (path.empty()) {
          return Status::InvalidArgument(
              "workload 'trace' needs a binary order trace: pass path=... "
              "or set MRVD_TRACE_BIN (convert CSVs with `campaign "
              "convert`)");
        }
        StatusOr<OrderTraceInfo> info = ReadOrderTraceInfo(path);
        if (!info.ok()) return info.status();
        const double horizon_hours = p.GetDouble("horizon_hours");
        const double horizon = horizon_hours > 0.0
                                   ? horizon_hours * 3600.0
                                   : info->horizon_seconds;
        const char* materialize = std::getenv("MRVD_TRACE_MATERIALIZE");
        SimulationBuilder builder;
        if (materialize != nullptr && materialize[0] != '\0' &&
            std::string(materialize) != "0") {
          StatusOr<Workload> workload =
              ReadOrderTrace(path, p.GetInt("max_orders"));
          if (!workload.ok()) return workload.status();
          builder.WithWorkload(std::move(workload).value(),
                               MakeNycGrid16x16());
        } else {
          builder.StreamTrace(path, MakeNycGrid16x16(),
                              p.GetInt("max_orders"));
        }
        builder
            .WithStraightLineTravel(p.GetDouble("speed_mps"),
                                    p.GetDouble("detour"))
            .BatchInterval(p.GetDouble("batch_interval"))
            .HorizonSeconds(horizon);
        return builder.Build();
      }));
}

// ---------------------------------------------------------------------
// Built-in scenarios (the BuildScenarioDay variants)

void RegisterBuiltinScenarios(ScenarioCatalog* c) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in scenario registration failed: " << st;
    }
  };
  using T = CatalogParam::Type;
  must(c->Register("none", {},
                   [](const Workload&,
                      const CatalogParams&) -> StatusOr<ScenarioScript> {
                     return ScenarioScript();
                   }));
  must(c->Register(
      "two-shift",
      {
          {"shift_hour", T::kDouble, "12", "shift-change time (hours)"},
          {"overlap_minutes", T::kDouble, "30", "shift overlap (minutes)"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.two_shift_fleet = true;
        cfg.shift_change_seconds = p.GetDouble("shift_hour") * 3600.0;
        cfg.shift_overlap_seconds = p.GetDouble("overlap_minutes") * 60.0;
        return BuildScenarioDay(workload, cfg);
      }));
  must(c->Register(
      "cancel-hazard",
      {
          {"probability", T::kDouble, "0.05", "per-order cancel probability"},
          {"fraction_lo", T::kDouble, "0.2",
           "earliest cancel point (fraction of patience window)"},
          {"fraction_hi", T::kDouble, "0.9", "latest cancel point"},
          {"seed", T::kInt64, "20190417", "cancellation-draw seed"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.cancel_probability = p.GetDouble("probability");
        cfg.cancel_fraction_lo = p.GetDouble("fraction_lo");
        cfg.cancel_fraction_hi = p.GetDouble("fraction_hi");
        cfg.seed = static_cast<uint64_t>(p.GetInt("seed"));
        return BuildScenarioDay(workload, cfg);
      }));
  must(c->Register(
      "rush-hour",
      {
          {"start_hour", T::kDouble, "7", "surge start (hours)"},
          {"end_hour", T::kDouble, "9", "surge end (hours)"},
          {"multiplier", T::kDouble, "1.5", "demand multiplier"},
      },
      [](const Workload& workload,
         const CatalogParams& p) -> StatusOr<ScenarioScript> {
        ScenarioDayConfig cfg;
        cfg.surges.push_back(RushHourSurge(p.GetDouble("start_hour") * 3600.0,
                                           p.GetDouble("end_hour") * 3600.0,
                                           p.GetDouble("multiplier")));
        return BuildScenarioDay(workload, cfg);
      }));
}

}  // namespace

WorkloadCatalog& WorkloadCatalog::Global() {
  static WorkloadCatalog* catalog = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; avoids
    // static-destruction order hazards for late registry lookups
    auto* c = new WorkloadCatalog();
    RegisterBuiltinWorkloads(c);
    return c;
  }();
  return *catalog;
}

StatusOr<Simulation> WorkloadCatalog::Build(const std::string& spec) const {
  auto resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  return resolved->first->factory(resolved->second);
}

ScenarioCatalog& ScenarioCatalog::Global() {
  static ScenarioCatalog* catalog = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; avoids
    // static-destruction order hazards for late registry lookups
    auto* c = new ScenarioCatalog();
    RegisterBuiltinScenarios(c);
    return c;
  }();
  return *catalog;
}

StatusOr<ScenarioScript> ScenarioCatalog::Build(
    const std::string& spec, const Workload& workload) const {
  auto resolved = Resolve(spec);
  if (!resolved.ok()) return resolved.status();
  return resolved->first->factory(workload, resolved->second);
}

WorkloadRegistrar::WorkloadRegistrar(std::string name,
                                     std::vector<CatalogParam> params,
                                     WorkloadFactory factory) {
  Status st = WorkloadCatalog::Global().Register(
      std::move(name), std::move(params), std::move(factory));
  if (!st.ok()) {
    MRVD_LOG(Warn) << "workload self-registration ignored: " << st;
  }
}

ScenarioRegistrar::ScenarioRegistrar(std::string name,
                                     std::vector<CatalogParam> params,
                                     ScenarioFactory factory) {
  Status st = ScenarioCatalog::Global().Register(
      std::move(name), std::move(params), std::move(factory));
  if (!st.ok()) {
    MRVD_LOG(Warn) << "scenario self-registration ignored: " << st;
  }
}

}  // namespace mrvd
