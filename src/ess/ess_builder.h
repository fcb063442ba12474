// The one code path that fills an ESS's cost and plan surfaces, in every
// build mode. kExhaustive is a single sweep: one optimizer call per grid
// location (Section 2.2). kExact and kRecost refine the grid (the
// compile-time path of Section 7): instead of one optimizer call per grid
// location, optimize only at the corners of coarse cells, recost the
// corner plans at interior locations, and recurse into a cell only when
// its corner plans disagree (kExact) or the PCM certification bound fails
// (kRecost). Exact optimizer results always take precedence over recosted
// fills, so refinement never degrades a location that was optimized.
// Every optimizer call of every mode goes through EnsureExactBatch, so the
// exhaustive sweep, the refinement corners and the fallback sweep share
// one parallel, fault-aware, deterministic driver.
//
// Certificates:
//  * Corner agreement (kExact and kRecost): all 2^D corners of a cell are
//    optimal under the same plan P. Every operator cost formula except the
//    sort term is linear in its input/output cardinalities, and each epp
//    selectivity appears at most once in any cardinality product, so
//    Cost(P', q) - Cost(P, q) is multilinear in q for sort-free plans and
//    attains its extrema at cell corners: P being optimal at every corner
//    makes it optimal throughout the cell. Sort-merge nodes add convex
//    n*log2(n) terms for which the corner argument is heuristic; the
//    golden tests verify bit-identical surfaces on the seed suite, and
//    any already-optimized interior witness that disagrees with the
//    corners forces a refinement regardless.
//  * PCM bound (kRecost only): by plan cost monotonicity the true optimum
//    anywhere in a cell lies between the optimal costs of the cell's
//    bottom and top corners, and so does the recosted minimum (it is
//    sandwiched by the same two surfaces). If OptCost(top) <= lambda *
//    OptCost(bottom), every recosted value is within factor lambda of the
//    true optimum. The realized per-location bound recost(q) /
//    OptCost(bottom corner) is accumulated into
//    BuildStats::max_deviation_bound.
//  * Leaf-cell recost + neighbourhood relaxation (both modes): a cell no
//    wider than a few grid steps whose corners disagree is not refined
//    further; its interior is filled with the minimum over the recosted
//    surfaces of the corner (and in-cell witness) plans. Afterwards a
//    zero-optimizer-cost relaxation sweeps the grid to a fixpoint,
//    letting every recosted location adopt any neighbour's plan that
//    strictly lowers its cost; it runs as a dirty worklist that reaches
//    the same values pass for pass as full sweeps (see Relax).
//    Plan-diagram regions are connected in practice, and every region
//    wide enough to matter is discovered at some refinement corner, so
//    relaxation floods each region's plan across its true extent —
//    repairing the rare interior points whose optimal plan region misses
//    the local cell's corner set. Every relaxed value is a genuine plan
//    cost, so the surface only ever moves down towards (never past) the
//    true optimum, and already-optimal locations are immune. Unlike
//    corner tracing down to unit cells, whose optimizer-call count is
//    proportional to the total length of the region boundaries, leaf
//    cells keep the call count proportional to the coarse lattice.
//  * Junction repair (kExact only): plan regions too small to reach any
//    refinement corner (single-point slivers exist even on 24x24 seed
//    grids) are invisible to every fill above. Such slivers sit where
//    several recosted surfaces cross, so after relaxation every recosted
//    location whose neighbourhood carries three or more distinct plans is
//    re-optimized exactly, and relaxation reruns to flood any newly
//    discovered region; this repeats until no suspect remains. A
//    certificate that the result is *provably* exact is not attainable at
//    sub-exhaustive call counts: near-optimal plans are dense (a k-best
//    plan enumeration, run offline on the seed suite, found even the
//    24th-best plan often within 1% of optimal), so any sound plan-gap
//    bound fails on a log-spaced grid where one step moves costs by ~25%.
//    Exactness of kExact is instead validated bit-for-bit against the
//    exhaustive sweep by golden and fuzz tests.
//  * Level-parallel corner optimization: refinement proceeds
//    breadth-first — all cells of one refinement level batch their
//    not-yet-optimized corners, the batch is optimized in parallel on a
//    thread pool (optimizer calls are pure), and results are interned
//    sequentially in ascending grid order, so the surface, the plan pool,
//    and every certification decision are identical at any thread count.
//  * Exhaustive fallback: when the call count crosses
//    Config::refine_fallback_fraction of the grid, the remaining
//    locations are optimized by the kExhaustive build's own sweep
//    (recorded in BuildStats::fell_back). A fallen-back build makes the
//    exhaustive build's optimizer calls plus the serial fill, relaxation
//    and junction passes that came before the fallback: BM_EssBuild on
//    4D_Q91 at 10 points (Release, 4-vCPU VM) measures Exact at
//    1.1-1.2x Exhaustive with --threads 1 and about 1.5x with
//    --threads 4, where those passes do not parallelize.

#ifndef ROBUSTQP_ESS_ESS_BUILDER_H_
#define ROBUSTQP_ESS_ESS_BUILDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "ess/ess.h"

namespace robustqp {

class ThreadPool;

/// One-shot builder that fills an Ess's cost_/plan_ surfaces. Ess::TryBuild
/// runs it for every build mode: a full sweep for kExhaustive, grid
/// refinement for kExact / kRecost.
class EssBuilder {
 public:
  /// `ess` must have query/config/axis/strides/optimizer set and the
  /// cost_/plan_ arrays allocated (zero / nullptr filled).
  explicit EssBuilder(Ess* ess);
  ~EssBuilder();  // out of line: ThreadPool is incomplete here

  /// Fills the surfaces per the build mode; on OK return every grid
  /// location has a cost and plan and ess->build_stats_ is populated.
  /// With an armed FaultInjector a fault drawn at the ess.corner_opt site
  /// degrades refinement to the exhaustive sweep (reusing the fell_back
  /// path), and an unrecoverable optimizer fault surfaces as a non-OK
  /// Status.
  Status Run();

 private:
  /// A refinement cell: inclusive per-dimension index bounds.
  struct Box {
    GridLoc lo;
    GridLoc hi;
  };

  /// An accepted cell awaiting interior recosting: the distinct candidate
  /// plans (first-seen order) and the bottom-corner optimal cost used for
  /// the PCM deviation bound.
  struct FillJob {
    Box box;
    std::vector<const Plan*> plans;
    double bottom_cost;
  };

  /// Optimizes every listed location (callers pass sorted, deduplicated,
  /// not-yet-exact lins): optimizer calls run in parallel on pool_, then
  /// plans are interned sequentially in list (= ascending grid) order so
  /// the pool and surfaces are deterministic at any thread count.
  Status EnsureExactBatch(const std::vector<int64_t>& lins);
  /// Linear indices of the cell's corners (deduplicated).
  std::vector<int64_t> Corners(const Box& box) const;
  /// Certification step of one cell whose corners are already exact:
  /// either accepts it (queueing a FillJob) or appends its children to
  /// `next` for the following refinement level. No optimizer calls.
  void CertifyOrSplit(const Box& box, std::vector<Box>* next);
  /// Optimizes every location that is not yet exact in one parallel batch
  /// with ess.corner_opt draws suppressed: the whole kExhaustive build,
  /// and the finish of a refinement that fell back.
  Status Sweep();
  /// kExact / kRecost: breadth-first refinement, fills, relaxation and
  /// (kExact) junction repair; sets stats_.fell_back and finishes by
  /// Sweep() once the call budget is crossed or a corner faults.
  Status Refine();
  /// Recosts the cell's not-yet-assigned locations.
  void Fill(int job_index);
  /// Fixpoint sweep: recosted locations adopt any neighbouring plan (full
  /// 3^D - 1 stencil) that strictly lowers their cost. Visits only dirty
  /// locations (see the .cc). No optimizer calls.
  void Relax();
  /// Records that lin's plan changed: stamps changed_at_ and marks its
  /// stencil neighbours dirty for Relax.
  void MarkChanged(int64_t lin);
  /// Recosted locations whose neighbourhood (self + 3^D - 1 stencil)
  /// carries three or more distinct plans — plan-diagram junctions, where
  /// sliver regions too small to reach any refinement corner live.
  std::vector<int64_t> JunctionSuspects();
  /// Sizes the per-location state of Fill and Relax, builds the stencil
  /// and sizes the loc_/q_ scratch (refinement builds only: the stencil
  /// has 3^D - 1 entries).
  void InitGridPasses();
  /// Decodes lin into loc_, at_low_ and at_high_; true iff no coordinate
  /// is on a grid face, so every stencil neighbour is in the grid.
  bool Decode(int64_t lin);
  /// Sets q_ to the selectivities at loc_.
  void LoadSel();
  /// Invokes fn(nlin) for every in-grid neighbour of lin, in stencil
  /// order; lin must be the location last decoded.
  template <typename Fn>
  void ForEachNeighbour(int64_t lin, Fn fn) const;
  /// Invokes fn(lin) for every location in the box (row-major order).
  template <typename Fn>
  void ForEachPoint(const Box& box, Fn fn) const;

  Ess* ess_;
  int dims_;
  /// Pool for every EnsureExactBatch: sweeps and per-level corner batches
  /// (null when single-threaded or the grid is tiny).
  std::unique_ptr<ThreadPool> pool_;
  /// Maximum per-dimension width of a leaf cell: a disagreeing cell at
  /// most this wide is recost-filled instead of refined further.
  int leaf_span_ = 4;
  /// Per location: 0 = unassigned, 1 = exact (optimizer), 2 = recosted.
  std::vector<uint8_t> state_;
  /// Per recosted location: the fills_ index that filled it (-1 = none).
  std::vector<int> filled_by_;
  /// Relax worklist: 1 where a location's neighbourhood (or its own fill)
  /// changed since Relax last visited it.
  std::vector<uint8_t> dirty_;
  /// Plan changes counted in order: the event at which each location's
  /// plan last changed (0 = not since its fill or optimization), and the
  /// count as of each location's last Relax visit (-1 = never visited).
  int64_t events_ = 0;
  std::vector<int64_t> changed_at_;
  std::vector<int64_t> visited_at_;
  /// One of the 3^D - 1 neighbour offsets: its linear-index delta and the
  /// dimensions it steps down / up in, as bit masks.
  struct Neighbour {
    int64_t delta = 0;
    uint32_t down = 0;
    uint32_t up = 0;
  };
  /// The stencil in odometer order over {-1, 0, +1}^D, last dimension
  /// fastest.
  std::vector<Neighbour> stencil_;
  /// Reused scratch of the serial grid passes (Fill, Relax,
  /// JunctionSuspects): the decoded location, the dimensions in which it
  /// sits on the low / high grid face, and its selectivities.
  GridLoc loc_;
  uint32_t at_low_ = 0;
  uint32_t at_high_ = 0;
  EssPoint q_;
  /// Relax visits counted in order, and per pool plan (by pool_index) the
  /// last visit that costed or skipped it.
  int64_t visits_ = 0;
  std::vector<int64_t> seen_at_;
  /// Certified cells, recosted only after refinement finishes so exact
  /// results always win on shared faces.
  std::vector<FillJob> fills_;
  /// True while a sweep runs: corner-opt fault draws are suppressed there
  /// so a degradation cannot re-trigger itself.
  bool in_sweep_ = false;
  /// Set by any worker that draws an ess.corner_opt fault; checked after
  /// each corner batch to abandon refinement for the exhaustive sweep.
  std::atomic<bool> degrade_to_sweep_{false};
  Ess::BuildStats stats_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_ESS_ESS_BUILDER_H_
