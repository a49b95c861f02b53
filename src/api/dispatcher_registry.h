// Self-registering dispatcher factory registry — the experiment API's
// replacement for a hand-written if/else chain over dispatcher names.
//
// Every dispatcher registers a factory keyed by its display name together
// with the typed parameters it accepts, so callers assemble dispatchers
// from declarative spec strings:
//
//   "IRG"                 the prediction-guided greedy, no parameters
//   "LS:max_sweeps=8"     local search capped at 8 sweeps
//   "RAND:seed=42"        the random baseline with an explicit seed
//
// Unknown names and malformed parameters fail with a Status naming the
// known roster / the declared parameters — never a silent nullptr.
//
// The built-in roster (IRG, LS, SHORT, RAND, NEAR, LTG, POLAR, UPPER)
// registers itself when the global registry is first touched; out-of-tree
// dispatchers self-register from their own translation unit with a static
// DispatcherRegistrar (see examples/custom_dispatcher.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/batch.h"
#include "util/status.h"

namespace mrvd {

/// One typed parameter a registered dispatcher accepts in its spec string.
struct DispatcherParam {
  enum class Type { kInt64, kDouble };

  std::string name;
  Type type = Type::kInt64;
  /// Default for the declared type (int64 defaults must round-trip through
  /// double exactly, i.e. |value| < 2^53 — parsed overrides are NOT bound
  /// by this: they are stored at full int64 fidelity).
  double default_value = 0.0;
  std::string help;
};

/// Parsed parameter values handed to a factory: every declared parameter is
/// present (spec overrides on top of the declared defaults). Int64 values
/// are stored exactly — never squeezed through a double.
class DispatcherParams {
 public:
  int64_t GetInt(const std::string& name) const { return values_.at(name).i; }
  double GetDouble(const std::string& name) const { return values_.at(name).d; }

 private:
  friend class DispatcherRegistry;
  struct Value {
    int64_t i = 0;
    double d = 0.0;
  };
  std::map<std::string, Value> values_;
};

using DispatcherFactory =
    std::function<std::unique_ptr<Dispatcher>(const DispatcherParams&)>;

/// A dispatcher spec split into its name and raw key=value overrides.
struct ParsedDispatcherSpec {
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;
};

class DispatcherRegistry {
 public:
  /// The process-wide registry, with the built-in roster pre-registered.
  static DispatcherRegistry& Global();

  /// Registers `factory` under `name`. `params` declares the accepted spec
  /// parameters with their defaults; `requires_zero_pickup_travel` marks
  /// dispatchers (UPPER) that are only meaningful when the engine waives
  /// pickup travel — Simulation::Run applies the flag automatically.
  /// Duplicate names fail with FailedPrecondition (first registration wins).
  Status Register(std::string name, std::vector<DispatcherParam> params,
                  DispatcherFactory factory,
                  bool requires_zero_pickup_travel = false);

  /// Builds a dispatcher from a "NAME" or "NAME:key=value,key=value" spec.
  StatusOr<std::unique_ptr<Dispatcher>> Create(const std::string& spec) const;

  /// Builds from a pre-split name + override list (values still parsed and
  /// type-checked against the declaration).
  StatusOr<std::unique_ptr<Dispatcher>> Create(
      const std::string& name,
      const std::vector<std::pair<std::string, std::string>>& overrides) const;

  /// Splits "NAME:key=value,..." without resolving the name (syntax-only).
  static StatusOr<ParsedDispatcherSpec> ParseSpec(const std::string& spec);

  /// Validates `spec` and returns its canonical form: the name plus the
  /// FULL resolved parameter list (declared defaults with the spec's
  /// overrides applied), sorted by key, values re-formatted at the
  /// declared type ("seed=07" -> "seed=7"). Numerically identical specs —
  /// including ones relying on defaults ("RAND" vs "RAND:seed=1") — map to
  /// one string; the campaign layer hashes this into content keys, so the
  /// key tracks what the dispatcher actually runs with.
  StatusOr<std::string> CanonicalizeSpec(const std::string& spec) const;

  bool Known(const std::string& name) const;
  bool HasParam(const std::string& name, const std::string& param) const;
  /// True for dispatchers that require SimConfig::zero_pickup_travel.
  bool RequiresZeroPickupTravel(const std::string& name) const;

  /// Registered names, sorted — THE roster; tests and benches sweep this
  /// instead of carrying their own name lists.
  std::vector<std::string> Names() const;
  /// "IRG, LS, LTG, ..." for error messages.
  std::string RosterString() const;

 private:
  struct Entry {
    std::vector<DispatcherParam> params;
    DispatcherFactory factory;
    bool requires_zero_pickup_travel = false;
  };

  std::map<std::string, Entry> entries_;
};

/// Self-registration handle: a static DispatcherRegistrar in the dispatcher's
/// translation unit adds it to the global roster before main() runs. A
/// duplicate name logs and keeps the first registration.
class DispatcherRegistrar {
 public:
  DispatcherRegistrar(std::string name, std::vector<DispatcherParam> params,
                      DispatcherFactory factory,
                      bool requires_zero_pickup_travel = false);
};

}  // namespace mrvd
