// Exhaustive ESS evaluation harness (the methodology of Sections 6.2 and
// 6.4): every grid location is taken as the true location q_a; the
// discovery algorithm runs against a simulated oracle there, and its
// sub-optimality Eq. (3) is recorded. MSO is the maximum, ASO the mean
// (Eq. (8)); the per-location vector feeds the Fig. 12 histograms. Also
// provides the traditional-optimizer baselines of Eq. (1).
//
// The per-q_a runs are independent, so the sweep fans out as a
// ParallelFor on the shared pool: the blocks share the (thread-safe)
// algorithm, each builds its own SimulatedOracle per location, and the
// reduction to SuboptimalityStats is deterministic — results are
// bit-identical at any thread count.

#ifndef ROBUSTQP_HARNESS_EVALUATOR_H_
#define ROBUSTQP_HARNESS_EVALUATOR_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/discovery.h"
#include "ess/ess.h"
#include "feedback/feedback_store.h"
#include "server/request_options.h"

namespace robustqp {

/// Knobs for the exhaustive sweep.
struct EvalOptions {
  /// Cap on the blocks of the per-q_a fan-out on the shared pool
  /// (common/thread_pool.h); 0 = ThreadPool::DefaultThreads(), 1 = serial.
  /// Any value yields bit-identical SuboptimalityStats.
  int num_threads = 0;
  /// Chaos-sweep mode: when non-empty, the calling thread's FaultInjector
  /// is configured with this spec (see FaultInjector::Configure for the
  /// grammar, e.g. "exec.*:p=0.01;optimizer.dp:after=100") for the
  /// duration of the sweep, whose workers inherit it, and disarmed
  /// afterwards. Fault draws are keyed
  /// to the grid location, so the sweep stays bit-identical at any thread
  /// count.
  std::string fault_spec{};
  /// Seed for the deterministic fault draws of a chaos sweep.
  uint64_t fault_seed = 42;
  /// Sharded chaos mode: simulate every full execution as scattered over
  /// this many workers (SimulatedOracle::set_num_shards) and compose the
  /// algorithm's MSO guarantee across them into
  /// SuboptimalityStats::composed_mso. <= 1 means unsharded; clean
  /// (fault-free) sweeps are bit-identical at any value.
  int num_shards = 1;
};

/// The sweep view of the unified per-request knob struct: threads come
/// from ess_threads (the sweep is surface-shaped work, not per-query
/// chunk work), chaos fields map through unchanged.
EvalOptions MakeEvalOptions(const RequestOptions& request);

/// Sub-optimality profile of one algorithm over the whole ESS.
struct SuboptimalityStats {
  double mso = 0.0;
  double aso = 0.0;
  int64_t worst_location = -1;
  /// Largest replacement penalty any run reported (AlignedBound's
  /// Table 4 statistic; 1.0 for penalty-free algorithms).
  double max_penalty = 1.0;
  /// Aggregated fault/retry/degradation counters over every run of the
  /// sweep (all-zero outside chaos mode). mso_delta is the sweep-level
  /// MSO inflation attributable to injected faults: mso minus the maximum
  /// fault-free ("clean") sub-optimality, where each run's clean cost
  /// excludes the work lost to retries.
  RobustnessReport robustness;
  /// The algorithm's guarantee composed across EvalOptions::num_shards
  /// (shard/mso.h); num_shards == 1 outside sharded mode.
  shard::ComposedMso composed_mso;
  /// SubOpt per linear grid location.
  std::vector<double> subopt;

  /// Fraction of locations with sub-optimality <= bound.
  double FractionWithin(double bound) const;

  /// Sub-optimality at percentile p (0 < p <= 100), e.g. Percentile(95).
  double Percentile(double p) const;
};

/// Exhaustive evaluation of a discovery algorithm: every grid location is
/// the true location once. This is the single entry point for
/// PlanBouquet, SpillBound and AlignedBound alike.
SuboptimalityStats Evaluate(const DiscoveryAlgorithm& algo, const Ess& ess,
                            const EvalOptions& opts = EvalOptions{});

/// Traditional optimizer, worst case over estimate locations: for each
/// q_a, the worst Cost(P_qe, q_a)/Cost(P_qa, q_a) over all POSP plans
/// (every q_e in the ESS yields some POSP plan, so this is the exact
/// worst case of Eq. (2)).
SuboptimalityStats EvaluateNativeWorstCase(
    const Ess& ess, const EvalOptions& opts = EvalOptions{});

/// Traditional optimizer at its actual statistics-based estimate: the
/// plan is chosen once at the estimator's native q_e and executed at
/// every q_a.
SuboptimalityStats EvaluateNativeAtEstimate(
    const Ess& ess, const EvalOptions& opts = EvalOptions{});

/// Histogram of sub-optimalities in buckets of `width` (Fig. 12): entry k
/// counts locations with subopt in (k*width, (k+1)*width], entry 0
/// includes [1, width].
std::vector<int64_t> SuboptHistogram(const SuboptimalityStats& stats,
                                     double width, int max_buckets = 20);

/// One run of a repeated-query (closed-loop) evaluation.
struct RepeatedRunStats {
  bool completed = false;
  double total_cost = 0.0;
  /// total_cost / OptimalCost(q_a) — must stay within the cold MSO
  /// guarantee on every run, warm-started or not.
  double suboptimality = 0.0;
  /// Oracle executions (budgeted probes + spills + the completing run).
  int num_executions = 0;
  /// The store held a valid calibration going into this run.
  bool feedback_hit = false;
  /// Discovery opened with warm-start probes / completed inside them /
  /// exhausted them and restarted the full cold schedule.
  bool warm_started = false;
  bool warm_completed = false;
  bool warm_fell_back = false;
  /// This run's observation tripped the drift monitor.
  bool drifted = false;
};

/// Repeated-query evaluation — the closed loop the one-shot sweeps cannot
/// see: the same true location q_a is queried `repeats` times against one
/// FeedbackStore; each completed run feeds its observed selectivities
/// back, so run 0 pays the cold discovery cost and later runs warm-start
/// from the accumulated calibration. Serial by design (run i+1 depends on
/// run i's observations). Chaos fields of `opts` apply, with fault draws
/// keyed to (fault_seed + run index) so each run's draw sequence is
/// deterministic. The store key is FeedbackStore::Key(query_id,
/// ess.dims()); pass a fresh store to start cold, or a null store to
/// disable feedback entirely — every run then repeats the cold discovery
/// (the baseline the warm runs are measured against), through the exact
/// same code path.
std::vector<RepeatedRunStats> EvaluateRepeated(
    const DiscoveryAlgorithm& algo, const Ess& ess, const GridLoc& qa,
    const std::string& query_id, feedback::FeedbackStore* store, int repeats,
    const EvalOptions& opts = EvalOptions{});

}  // namespace robustqp

#endif  // ROBUSTQP_HARNESS_EVALUATOR_H_
