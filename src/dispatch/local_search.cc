// LS (Algorithm 3): obtains the IRG assignment, then keeps replacing a
// driver's rider with a lower-idle-ratio valid alternative until no swap
// improves (convergence proved in Lemma 5.1; bounded by max_sweeps here).
//
// Every swap shifts the tentative supply (`extra_drivers`) its successors
// price against, so the textbook loop re-queries the shared ET memo for
// every candidate of every slot. The sweep used here splits it by conflict
// footprint (dispatch/conflict_partition.h):
//
//   1. Snapshot: dense ET tables for every candidate dropoff region at the
//      sweep-start supply (plus the "current rider released" extra-1 table
//      where a slot can need it), read through the shared memo so later
//      sweeps and the exact recompute path reuse them.
//   2. Propose: every slot's best swap is evaluated against the sweep-start
//      state — a pure scan over the plan's SoA candidate arrays and the
//      dense ET tables, no memo lookups, no pointer chasing.
//   3. Commit, in slot order: a proposal is applied directly iff no earlier
//      commit this sweep dirtied the slot's footprint (level-0 slots are
//      clean by construction and skip the check); otherwise it is
//      recomputed inline with the exact textbook scan before applying.
//
// A clean footprint means the sweep-start state and the textbook mid-sweep
// state agree on everything the slot reads, so the snapshot proposal *is*
// the textbook decision; a dirty footprint falls back to the textbook
// computation itself. Commits replay in the textbook order either way, so
// the refined assignment is bit-identical to the sequential sweep, which
// stays as RunSerialSweeps for tests/engine_equivalence_test.cc and
// tests/local_search_test.cc to compare against.
#include <algorithm>
#include <optional>
#include <vector>

#include "dispatch/conflict_partition.h"
#include "dispatch/dispatchers.h"
#include "dispatch/irg_core.h"
#include "telemetry/session.h"
#include "telemetry/trace.h"
#include "util/stopwatch.h"

namespace mrvd {

namespace {

/// The textbook sequential sweep: the reference the equivalence tests pin
/// the snapshot sweep to.
void RunSerialSweeps(const BatchContext& ctx,
                     const std::vector<CandidatePair>& pairs, int max_sweeps,
                     IrgState* state, DispatchCounters* counters) {
  // Per-driver candidate lists R_j: valid riders for each matched driver.
  std::vector<std::vector<const CandidatePair*>> by_driver(
      ctx.drivers().size());
  for (const auto& cp : pairs) {
    by_driver[static_cast<size_t>(cp.driver_index)].push_back(&cp);
  }

  auto ir = [&](int rider_index) {
    const WaitingRider& r = ctx.riders()[static_cast<size_t>(rider_index)];
    return ScorePair(
        ctx, r, GreedyObjective::kIdleRatio,
        state->extra_drivers[static_cast<size_t>(r.dropoff_region)]);
  };

  bool changed = true;
  for (int sweep = 0; sweep < max_sweeps && changed; ++sweep) {
    ++counters->sweeps;
    counters->proposals += static_cast<int64_t>(state->assignments.size());
    changed = false;
    for (auto& a : state->assignments) {
      double current_ir = ir(a.rider_index);
      int best_rider = -1;
      double best_ir = current_ir;
      for (const CandidatePair* cp :
           by_driver[static_cast<size_t>(a.driver_index)]) {
        if (cp->rider_index == a.rider_index) continue;
        if (state->rider_used[static_cast<size_t>(cp->rider_index)]) continue;
        // Score the replacement as if the current rider were released:
        // if both end in the same region the net supply change is zero.
        const WaitingRider& cand =
            ctx.riders()[static_cast<size_t>(cp->rider_index)];
        const WaitingRider& cur =
            ctx.riders()[static_cast<size_t>(a.rider_index)];
        int extra =
            state->extra_drivers[static_cast<size_t>(cand.dropoff_region)];
        if (cand.dropoff_region == cur.dropoff_region) extra -= 1;
        double cand_ir = ScorePair(ctx, cand, GreedyObjective::kIdleRatio,
                                   extra < 0 ? 0 : extra);
        if (cand_ir < best_ir) {
          best_ir = cand_ir;
          best_rider = cp->rider_index;
        }
      }
      if (best_rider >= 0) {
        const WaitingRider& old_r =
            ctx.riders()[static_cast<size_t>(a.rider_index)];
        const WaitingRider& new_r =
            ctx.riders()[static_cast<size_t>(best_rider)];
        state->rider_used[static_cast<size_t>(a.rider_index)] = false;
        state->rider_used[static_cast<size_t>(best_rider)] = true;
        --state->extra_drivers[static_cast<size_t>(old_r.dropoff_region)];
        ++state->extra_drivers[static_cast<size_t>(new_r.dropoff_region)];
        a.rider_index = best_rider;
        changed = true;
        ++counters->swaps_applied;
      }
    }
  }
}

/// Exact serial best-swap for one slot against the *live* mid-sweep state
/// — the recompute path for proposals an earlier commit invalidated.
/// Identical scan to RunSerialSweeps' inner loop (shared-memo ET included).
int RecomputeBestSwap(const BatchContext& ctx, const LsSwapPlan& plan,
                      const IrgState& state, int slot) {
  const auto& riders = ctx.riders();
  const Assignment& a = state.assignments[static_cast<size_t>(slot)];
  const WaitingRider& cur = riders[static_cast<size_t>(a.rider_index)];
  double best_ir =
      ScorePair(ctx, cur, GreedyObjective::kIdleRatio,
                state.extra_drivers[static_cast<size_t>(cur.dropoff_region)]);
  int best_rider = -1;
  for (int c = plan.cand_offsets[static_cast<size_t>(slot)];
       c < plan.cand_offsets[static_cast<size_t>(slot) + 1]; ++c) {
    const int r = plan.cand_rider[static_cast<size_t>(c)];
    if (r == a.rider_index) continue;
    if (state.rider_used[static_cast<size_t>(r)]) continue;
    const WaitingRider& cand = riders[static_cast<size_t>(r)];
    int extra =
        state.extra_drivers[static_cast<size_t>(cand.dropoff_region)];
    if (cand.dropoff_region == cur.dropoff_region) extra -= 1;
    double cand_ir = ScorePair(ctx, cand, GreedyObjective::kIdleRatio,
                               extra < 0 ? 0 : extra);
    if (cand_ir < best_ir) {
      best_ir = cand_ir;
      best_rider = r;
    }
  }
  return best_rider;
}

/// Conflict-decomposed sweep: snapshot propose against the sweep-start
/// state, then in-order commit with exact revalidation.
void RunConflictDecomposedSweeps(const BatchContext& ctx,
                                 const std::vector<CandidatePair>& pairs,
                                 int max_sweeps, IrgState* state,
                                 DispatchCounters* counters) {
  // Telemetry (optional): the propose/commit/revalidate wall-time split of
  // every sweep. Execution metadata — wall times — so all three histograms
  // are kExecution scope.
  telemetry::TelemetrySession* tele = ctx.telemetry();
  telemetry::LogHistogram* propose_hist = nullptr;
  telemetry::LogHistogram* commit_hist = nullptr;
  telemetry::LogHistogram* revalidate_hist = nullptr;
  if (tele != nullptr) {
    telemetry::MetricsRegistry& reg = tele->metrics();
    propose_hist = reg.histogram("ls.propose_seconds");
    commit_hist = reg.histogram("ls.commit_seconds");
    revalidate_hist = reg.histogram("ls.revalidate_seconds");
  }

  const LsSwapPlan plan = BuildLsSwapPlan(ctx, pairs, state->assignments);
  const int n = plan.num_slots;
  if (n == 0) {
    // The sequential loop still runs (and counts) one trivial sweep over an
    // empty assignment vector; keep the counters bit-identical too.
    ++counters->sweeps;
    return;
  }

  const auto& riders = ctx.riders();
  const auto num_regions = static_cast<size_t>(ctx.grid().num_regions());
  std::vector<double> et_cur(num_regions, 0.0);
  std::vector<double> et_minus(num_regions, 0.0);
  std::vector<int> proposed(static_cast<size_t>(n), -1);
  // Last sweep that committed a write into the region's supply cell (or
  // the used-flag of a rider dropping off there) — the dirty epoch.
  std::vector<int> region_dirty(num_regions, -1);

  bool changed = true;
  for (int sweep = 0; sweep < max_sweeps && changed; ++sweep) {
    ++counters->sweeps;
    changed = false;

    // Propose phase span covers the ET snapshot + the proposal scan;
    // optional<> sequences the two phase spans without re-scoping the
    // sweep body. Null session keeps all of this at two pointer checks.
    std::optional<telemetry::TraceSpan> phase_span;
    int64_t phase_ns = 0;
    if (tele != nullptr) {
      phase_ns = Stopwatch::NowNanos();
      phase_span.emplace(tele, "ls_propose");
    }

    // 1. Dense ET snapshot at the sweep-start supply. Serial, through the
    // shared memo: a pure value per (region, extra) key, so warming here
    // cannot change what any later exact recompute reads.
    for (RegionId k : plan.regions) {
      const int extra = state->extra_drivers[static_cast<size_t>(k)];
      et_cur[static_cast<size_t>(k)] = ctx.ExpectedIdleSeconds(k, extra);
      if (plan.needs_minus1[static_cast<size_t>(k)]) {
        et_minus[static_cast<size_t>(k)] =
            ctx.ExpectedIdleSeconds(k, extra > 0 ? extra - 1 : 0);
      }
    }

    // 2. Propose vs the sweep-start state: pure per-slot scans over the SoA
    // candidate arrays and the dense ET tables.
    for (int i = 0; i < n; ++i) {
      const int cur = state->assignments[static_cast<size_t>(i)].rider_index;
      const RegionId cur_d = riders[static_cast<size_t>(cur)].dropoff_region;
      double best_ir =
          ScoreFromIdleTrip(et_cur[static_cast<size_t>(cur_d)],
                            riders[static_cast<size_t>(cur)].trip_seconds,
                            GreedyObjective::kIdleRatio);
      int best_rider = -1;
      for (int c = plan.cand_offsets[static_cast<size_t>(i)];
           c < plan.cand_offsets[static_cast<size_t>(i) + 1]; ++c) {
        const int r = plan.cand_rider[static_cast<size_t>(c)];
        if (r == cur || state->rider_used[static_cast<size_t>(r)]) continue;
        const RegionId k = plan.cand_dropoff[static_cast<size_t>(c)];
        const double et = k == cur_d ? et_minus[static_cast<size_t>(k)]
                                     : et_cur[static_cast<size_t>(k)];
        const double cand_ir = ScoreFromIdleTrip(
            et, plan.cand_trip[static_cast<size_t>(c)],
            GreedyObjective::kIdleRatio);
        if (cand_ir < best_ir) {
          best_ir = cand_ir;
          best_rider = r;
        }
      }
      proposed[static_cast<size_t>(i)] = best_rider;
    }
    counters->proposals += n;

    double revalidate_seconds = 0.0;
    if (tele != nullptr) {
      phase_span.reset();
      const int64_t now_ns = Stopwatch::NowNanos();
      propose_hist->Add(static_cast<double>(now_ns - phase_ns) * 1e-9);
      phase_ns = now_ns;
      phase_span.emplace(tele, "ls_commit");
    }

    // 3. Serial commit in slot order. A slot whose footprint no earlier
    // commit dirtied sees exactly the sweep-start state on everything it
    // read, so its snapshot proposal is the textbook decision; otherwise
    // recompute it against the live state before applying.
    for (int i = 0; i < n; ++i) {
      int best_rider = proposed[static_cast<size_t>(i)];
      if (plan.level[static_cast<size_t>(i)] > 0) {
        bool dirty = false;
        for (int c = plan.region_offsets[static_cast<size_t>(i)];
             !dirty && c < plan.region_offsets[static_cast<size_t>(i) + 1];
             ++c) {
          dirty = region_dirty[static_cast<size_t>(
                      plan.slot_regions[static_cast<size_t>(c)])] == sweep;
        }
        if (dirty) {
          ++counters->proposals_recomputed;
          if (tele != nullptr) {
            const int64_t reval_ns = Stopwatch::NowNanos();
            best_rider = RecomputeBestSwap(ctx, plan, *state, i);
            revalidate_seconds += static_cast<double>(Stopwatch::NowNanos() -
                                                      reval_ns) *
                                  1e-9;
          } else {
            best_rider = RecomputeBestSwap(ctx, plan, *state, i);
          }
        }
      }
      if (best_rider < 0) continue;
      Assignment& a = state->assignments[static_cast<size_t>(i)];
      const RegionId old_d =
          riders[static_cast<size_t>(a.rider_index)].dropoff_region;
      const RegionId new_d =
          riders[static_cast<size_t>(best_rider)].dropoff_region;
      state->rider_used[static_cast<size_t>(a.rider_index)] = false;
      state->rider_used[static_cast<size_t>(best_rider)] = true;
      --state->extra_drivers[static_cast<size_t>(old_d)];
      ++state->extra_drivers[static_cast<size_t>(new_d)];
      a.rider_index = best_rider;
      region_dirty[static_cast<size_t>(old_d)] = sweep;
      region_dirty[static_cast<size_t>(new_d)] = sweep;
      changed = true;
      ++counters->swaps_applied;
    }

    if (tele != nullptr) {
      phase_span.reset();
      commit_hist->Add(
          static_cast<double>(Stopwatch::NowNanos() - phase_ns) * 1e-9);
      // The revalidate share is carved out of the commit phase: the sweep's
      // exact recomputes of proposals an earlier commit invalidated.
      revalidate_hist->Add(revalidate_seconds);
    }
  }
}

class LocalSearchDispatcher final : public Dispatcher {
 public:
  LocalSearchDispatcher(int max_sweeps, bool reference_sweep)
      : max_sweeps_(max_sweeps), reference_sweep_(reference_sweep) {}

  std::string name() const override { return "LS"; }

  const DispatchCounters* counters() const override { return &counters_; }

  void Dispatch(const BatchContext& ctx, std::vector<Assignment>* out) override {
    counters_ = {};
    const std::vector<CandidatePair> pairs = GenerateValidPairs(ctx);
    IrgState state =
        RunGreedySelection(ctx, pairs, GreedyObjective::kIdleRatio);
    if (reference_sweep_) {
      RunSerialSweeps(ctx, pairs, max_sweeps_, &state, &counters_);
    } else {
      RunConflictDecomposedSweeps(ctx, pairs, max_sweeps_, &state,
                                  &counters_);
    }
    *out = std::move(state.assignments);
  }

 private:
  int max_sweeps_;
  bool reference_sweep_;
  DispatchCounters counters_;
};

}  // namespace

std::unique_ptr<Dispatcher> MakeLocalSearchDispatcher(int max_sweeps,
                                                      bool reference_sweep) {
  return std::make_unique<LocalSearchDispatcher>(max_sweeps, reference_sweep);
}

}  // namespace mrvd
