#include "api/dispatcher_registry.h"

#include <algorithm>
#include <utility>

#include "dispatch/dispatchers.h"
#include "util/logging.h"
#include "util/strings.h"

namespace mrvd {

namespace {

/// Declares the built-in roster (§6.3's eight approaches). Each entry is
/// self-contained: the factory lambda owns its parameter interpretation, so
/// adding an approach never touches a shared if/else chain.
void RegisterBuiltins(DispatcherRegistry* r) {
  auto must = [](Status st) {
    if (!st.ok()) {
      MRVD_LOG(Error) << "built-in dispatcher registration failed: " << st;
    }
  };
  must(r->Register(
      "RAND",
      {{"seed", DispatcherParam::Type::kInt64, 1.0, "RNG seed"}},
      [](const DispatcherParams& p) {
        return MakeRandomDispatcher(static_cast<uint64_t>(p.GetInt("seed")));
      }));
  must(r->Register("NEAR", {}, [](const DispatcherParams&) {
    return MakeNearestDispatcher();
  }));
  must(r->Register("LTG", {}, [](const DispatcherParams&) {
    return MakeLongTripGreedyDispatcher();
  }));
  must(r->Register("IRG", {}, [](const DispatcherParams&) {
    return MakeIrgDispatcher();
  }));
  must(r->Register(
      "LS",
      {{"max_sweeps", DispatcherParam::Type::kInt64, 16.0,
        "local-search pass cap (L_max)"}},
      [](const DispatcherParams& p) {
        return MakeLocalSearchDispatcher(
            static_cast<int>(p.GetInt("max_sweeps")));
      }));
  must(r->Register("SHORT", {}, [](const DispatcherParams&) {
    return MakeShortDispatcher();
  }));
  must(r->Register("POLAR", {}, [](const DispatcherParams&) {
    return MakePolarDispatcher();
  }));
  must(r->Register(
      "UPPER", {},
      [](const DispatcherParams&) { return MakeUpperBoundDispatcher(); },
      /*requires_zero_pickup_travel=*/true));
}

std::string DeclaredParamList(const std::vector<DispatcherParam>& params) {
  std::string out;
  for (const auto& p : params) {
    if (!out.empty()) out += ", ";
    out += p.name;
  }
  return out;
}

}  // namespace

DispatcherRegistry& DispatcherRegistry::Global() {
  static DispatcherRegistry* registry = [] {
    // mrvd-lint: allow(naked-new) — deliberately leaked singleton; a static
    // object would be destroyed at exit while worker threads may still read it
    auto* r = new DispatcherRegistry();
    RegisterBuiltins(r);
    return r;
  }();
  return *registry;
}

Status DispatcherRegistry::Register(std::string name,
                                    std::vector<DispatcherParam> params,
                                    DispatcherFactory factory,
                                    bool requires_zero_pickup_travel) {
  if (name.empty()) {
    return Status::InvalidArgument("dispatcher name must not be empty");
  }
  if (factory == nullptr) {
    return Status::InvalidArgument("dispatcher '" + name +
                                   "' registered without a factory");
  }
  auto [it, inserted] = entries_.try_emplace(
      std::move(name),
      Entry{std::move(params), std::move(factory), requires_zero_pickup_travel});
  if (!inserted) {
    return Status::FailedPrecondition("dispatcher '" + it->first +
                                      "' is already registered");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<Dispatcher>> DispatcherRegistry::Create(
    const std::string& spec) const {
  StatusOr<ParsedDispatcherSpec> parsed = ParseSpec(spec);
  if (!parsed.ok()) return parsed.status();
  return Create(parsed->name, parsed->params);
}

StatusOr<std::unique_ptr<Dispatcher>> DispatcherRegistry::Create(
    const std::string& name,
    const std::vector<std::pair<std::string, std::string>>& overrides) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown dispatcher '" + name +
                            "'; known dispatchers: " + RosterString());
  }
  const Entry& entry = it->second;

  DispatcherParams params;
  for (const DispatcherParam& p : entry.params) {
    DispatcherParams::Value value;
    value.d = p.default_value;
    if (p.type == DispatcherParam::Type::kInt64) {
      value.i = static_cast<int64_t>(p.default_value);
    }
    params.values_[p.name] = value;
  }
  for (const auto& [key, raw] : overrides) {
    const DispatcherParam* decl = nullptr;
    for (const DispatcherParam& p : entry.params) {
      if (p.name == key) {
        decl = &p;
        break;
      }
    }
    if (decl == nullptr) {
      return Status::InvalidArgument(
          "dispatcher '" + name + "' has no parameter '" + key + "'" +
          (entry.params.empty()
               ? "; it takes no parameters"
               : "; declared parameters: " + DeclaredParamList(entry.params)));
    }
    if (decl->type == DispatcherParam::Type::kInt64) {
      // Full int64 fidelity (and ParseInt64 rejects overflowing digit
      // strings) — a seed must reach the factory bit-exact or fail loudly.
      StatusOr<int64_t> v = ParseInt64(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("dispatcher '" + name + "' parameter '" +
                                       key + "': not an int64: '" + raw + "'");
      }
      params.values_[key] = {*v, static_cast<double>(*v)};
    } else {
      StatusOr<double> v = ParseDouble(raw);
      if (!v.ok()) {
        return Status::InvalidArgument("dispatcher '" + name + "' parameter '" +
                                       key + "': not a number: '" + raw + "'");
      }
      // .i stays 0: GetInt on a kDouble-declared parameter is a factory
      // bug, and casting an arbitrary double to int64 would be UB.
      params.values_[key] = {0, *v};
    }
  }
  std::unique_ptr<Dispatcher> dispatcher = entry.factory(params);
  if (dispatcher == nullptr) {
    return Status::Internal("factory for dispatcher '" + name +
                            "' returned null");
  }
  return dispatcher;
}

StatusOr<ParsedDispatcherSpec> DispatcherRegistry::ParseSpec(
    const std::string& spec) {
  ParsedDispatcherSpec out;
  std::string_view rest = StripAsciiWhitespace(spec);
  size_t colon = rest.find(':');
  out.name = std::string(StripAsciiWhitespace(rest.substr(0, colon)));
  if (out.name.empty()) {
    return Status::InvalidArgument("empty dispatcher name in spec '" + spec +
                                   "'");
  }
  if (colon == std::string_view::npos) return out;
  MRVD_RETURN_NOT_OK(ParseKeyValueList(rest.substr(colon + 1),
                                       "spec '" + spec + "'", &out.params));
  return out;
}

StatusOr<std::string> DispatcherRegistry::CanonicalizeSpec(
    const std::string& spec) const {
  StatusOr<ParsedDispatcherSpec> parsed = ParseSpec(spec);
  if (!parsed.ok()) return parsed.status();
  auto it = entries_.find(parsed->name);
  if (it == entries_.end()) {
    return Status::NotFound("unknown dispatcher '" + parsed->name +
                            "'; known dispatchers: " + RosterString());
  }
  const Entry& entry = it->second;

  auto format_value = [](const DispatcherParam& decl,
                         const std::string* raw) -> StatusOr<std::string> {
    if (decl.type == DispatcherParam::Type::kInt64) {
      int64_t value = static_cast<int64_t>(decl.default_value);
      if (raw != nullptr) {
        StatusOr<int64_t> v = ParseInt64(*raw);
        if (!v.ok()) {
          return Status::InvalidArgument("parameter '" + decl.name +
                                         "': not an int64: '" + *raw + "'");
        }
        value = *v;
      }
      return std::to_string(value);
    }
    double value = decl.default_value;
    if (raw != nullptr) {
      StatusOr<double> v = ParseDouble(*raw);
      if (!v.ok()) {
        return Status::InvalidArgument("parameter '" + decl.name +
                                       "': not a number: '" + *raw + "'");
      }
      value = *v;
    }
    return FormatDouble(value);
  };

  std::vector<std::pair<std::string, std::string>> canonical;
  canonical.reserve(entry.params.size());
  for (const DispatcherParam& decl : entry.params) {
    const std::string* raw = nullptr;
    for (const auto& [key, value] : parsed->params) {
      if (key == decl.name) {
        raw = &value;
        break;
      }
    }
    StatusOr<std::string> value = format_value(decl, raw);
    if (!value.ok()) {
      return Status::InvalidArgument("dispatcher '" + parsed->name + "' " +
                                     value.status().message());
    }
    canonical.emplace_back(decl.name, std::move(value).value());
  }
  // Unknown override keys fail with the declared list, mirroring Create's
  // diagnostics (typed value validation already happened above).
  for (const auto& [key, unused] : parsed->params) {
    bool declared = false;
    for (const DispatcherParam& decl : entry.params) {
      if (decl.name == key) {
        declared = true;
        break;
      }
    }
    if (!declared) {
      return Status::InvalidArgument(
          "dispatcher '" + parsed->name + "' has no parameter '" + key + "'" +
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

bool DispatcherRegistry::Known(const std::string& name) const {
  return entries_.count(name) != 0;
}

bool DispatcherRegistry::HasParam(const std::string& name,
                                  const std::string& param) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  for (const DispatcherParam& p : it->second.params) {
    if (p.name == param) return true;
  }
  return false;
}

bool DispatcherRegistry::RequiresZeroPickupTravel(
    const std::string& name) const {
  auto it = entries_.find(name);
  return it != entries_.end() && it->second.requires_zero_pickup_travel;
}

std::vector<std::string> DispatcherRegistry::Names() const {
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [name, unused] : entries_) names.push_back(name);
  return names;  // std::map iteration is already sorted
}

std::string DispatcherRegistry::RosterString() const {
  std::string out;
  for (const auto& [name, unused] : entries_) {
    if (!out.empty()) out += ", ";
    out += name;
  }
  return out;
}

DispatcherRegistrar::DispatcherRegistrar(std::string name,
                                         std::vector<DispatcherParam> params,
                                         DispatcherFactory factory,
                                         bool requires_zero_pickup_travel) {
  Status st = DispatcherRegistry::Global().Register(
      std::move(name), std::move(params), std::move(factory),
      requires_zero_pickup_travel);
  if (!st.ok()) {
    MRVD_LOG(Warn) << "dispatcher self-registration ignored: " << st;
  }
}

}  // namespace mrvd
