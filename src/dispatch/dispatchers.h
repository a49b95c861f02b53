// Factories for every dispatching approach in the evaluation (§5, §6.3,
// Appendix C):
//   IRG    — idle-ratio-oriented greedy (Algorithm 2)
//   LS     — local search refinement of IRG (Algorithm 3)
//   SHORT  — minimum (travel cost + idle time), maximizes served orders
//   RAND   — random valid assignment
//   NEAR   — nearest-order greedy
//   LTG    — long-trip (highest revenue) greedy
//   POLAR  — prediction-guided offline-blueprint matching baseline [28]
//   UPPER  — per-batch revenue upper bound (requires
//            SimConfig::zero_pickup_travel)
//
// Every dispatcher runs its batch on the calling thread.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "sim/batch.h"

namespace mrvd {

std::unique_ptr<Dispatcher> MakeRandomDispatcher(uint64_t seed = 1);
std::unique_ptr<Dispatcher> MakeNearestDispatcher();
std::unique_ptr<Dispatcher> MakeLongTripGreedyDispatcher();
std::unique_ptr<Dispatcher> MakeIrgDispatcher();

/// `max_sweeps` caps local-search passes (L_max in the complexity analysis;
/// convergence is guaranteed by Lemma 5.1 but bounded here defensively).
/// LS sweeps by snapshot propose + in-order commit with exact revalidation.
/// `reference_sweep` is for equivalence tests only: it selects the textbook
/// sequential sweep, which gives bit-identical assignments more slowly.
std::unique_ptr<Dispatcher> MakeLocalSearchDispatcher(
    int max_sweeps = 16, bool reference_sweep = false);

std::unique_ptr<Dispatcher> MakeShortDispatcher();
std::unique_ptr<Dispatcher> MakePolarDispatcher();
std::unique_ptr<Dispatcher> MakeUpperBoundDispatcher();

/// Legacy factory by display name ("IRG", "LS", "SHORT", "RAND", "NEAR",
/// "LTG", "POLAR", "UPPER"); nullptr for unknown names. `seed` feeds RAND,
/// `max_sweeps` feeds LS. Implemented as a thin shim over the
/// DispatcherRegistry (api/dispatcher_registry.h) — prefer the registry,
/// whose Create() parses "LS:max_sweeps=8"-style specs and reports unknown
/// names with a Status listing the known roster instead of nullptr.
std::unique_ptr<Dispatcher> MakeDispatcherByName(const std::string& name,
                                                 uint64_t seed = 1,
                                                 int max_sweeps = 16);

}  // namespace mrvd
