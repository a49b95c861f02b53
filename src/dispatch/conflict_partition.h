// Conflict decomposition of the local-search sweep (Algorithm 3).
//
// A sweep visits every matched driver ("slot") in a fixed order and may
// swap its rider for a better-scoring candidate. Each slot's read/write
// footprint is *static*: it only ever touches the used-flags of its
// candidate riders and the `extra_drivers` cells of their dropoff regions
// (the slot's current rider is always one of its own candidates, so the
// footprint covers it at every point of the sweep). Two slots conflict iff
// those footprints intersect — they compete for the same rider or touch
// the same `extra_drivers` region cell. Since a rider's used-flag is only
// ever read/written together with its dropoff region's supply cell,
// sharing a rider implies sharing that region, and the conflict test
// reduces to region-set overlap.
//
// BuildLsSwapPlan precomputes, once per Dispatch (the candidate lists do
// not change across sweeps):
//
//   * SoA candidate arrays in CSR form — rider index, dropoff region and
//     trip seconds per candidate — so the sweep's hot scoring loop reads
//     three dense arrays instead of chasing CandidatePair pointers into
//     80-byte WaitingRider records;
//   * the per-slot distinct-region footprint (the conflict read set);
//   * ordered independence levels: level(i) = 0 if no earlier slot
//     conflicts with i, else 1 + max level among conflicting earlier
//     slots. Slots sharing a level are mutually independent, and a
//     level-0 slot can never be invalidated by an earlier commit;
//   * which regions need the "current rider released" ET table
//     (ET(k, extra-1) is only ever queried when a slot holds two
//     candidates with the same dropoff region k).
//
// local_search.cc uses the plan to propose best-swaps for all slots
// against the sweep-start state and then commit them in slot order,
// recomputing exactly the proposals whose footprint an earlier commit
// dirtied — bit-identical to the textbook sequential sweep.
#pragma once

#include <vector>

#include "dispatch/candidates.h"
#include "sim/batch.h"

namespace mrvd {

/// Precomputed sweep layout for one LS dispatch; see file comment.
struct LsSwapPlan {
  int num_slots = 0;

  /// Candidate swaps per slot (CSR over [cand_offsets[i], cand_offsets[i+1])),
  /// in the canonical pair order the serial sweep scans.
  std::vector<int> cand_offsets;
  std::vector<int> cand_rider;         ///< context rider index
  std::vector<RegionId> cand_dropoff;  ///< rider dropoff region
  std::vector<double> cand_trip;       ///< rider trip seconds (score input)

  /// Distinct candidate dropoff regions per slot (CSR) — the conflict
  /// footprint used for dirty checks.
  std::vector<int> region_offsets;
  std::vector<RegionId> slot_regions;

  /// Ordered independence level per slot; two conflicting slots never share
  /// a level, and level-0 slots have no earlier conflicting slot at all.
  std::vector<int> level;
  int num_levels = 0;

  /// All distinct candidate dropoff regions, ascending — the regions whose
  /// ET values a sweep snapshot must cover.
  std::vector<RegionId> regions;
  /// By region id: some slot holds >= 2 candidates with this dropoff
  /// region, so the sweep also needs ET(k, extra-1) ("current rider
  /// released" scoring, local_search.cc).
  std::vector<char> needs_minus1;
};

/// Builds the plan for `assignments` (the greedy result LS refines) over
/// the canonical pair list. Slots index `assignments`; candidate order
/// within a slot matches the serial sweep's per-driver scan order.
LsSwapPlan BuildLsSwapPlan(const BatchContext& ctx,
                           const std::vector<CandidatePair>& pairs,
                           const std::vector<Assignment>& assignments);

/// True iff slots `a` and `b` conflict (footprint overlap — same candidate
/// rider or same dropoff-region supply cell). O(|regions(a)|·|regions(b)|);
/// meant for tests and diagnostics, not the hot path.
bool SlotsConflict(const LsSwapPlan& plan, int a, int b);

}  // namespace mrvd
