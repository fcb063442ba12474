// Shared result/trace types for the discovery algorithms, and the
// DiscoveryAlgorithm interface they all implement.

#ifndef ROBUSTQP_CORE_DISCOVERY_H_
#define ROBUSTQP_CORE_DISCOVERY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "shard/mso.h"

namespace robustqp {

class ExecutionOracle;
class Plan;

/// A feedback-derived head start for one discovery run (built by
/// feedback/warm_start.h; core only consumes it). The hint names one
/// probe plan — the optimal plan at the upper corner of the observed
/// confidence region — and the UNCHANGED cold contour budgets to try it
/// under. Run executes the probes in full (non-spill) mode before the
/// algorithm's own doubling sequence:
///  * a completion inside the probes ends the run there (the common
///    repeated-query case: one execution near the optimal cost);
///  * if every probe fails, the true location crossed the region
///    boundary and Run falls back to the complete cold sequence from
///    contour 0 — the cold MSO analysis applies verbatim, the abandoned
///    probe spend is an additive tax bounded by twice the largest probe
///    budget (geometric schedule), and the guarantee is never weakened.
/// An invalid hint is treated exactly as an absent one, so
/// empty-store == store-disabled holds bitwise.
struct WarmStartHint {
  bool valid = false;
  /// Optimal plan at the (grid-snapped) upper corner of the confidence
  /// region; borrowed from the Ess's POSP pool, never owned.
  const Plan* probe_plan = nullptr;
  /// Cold-schedule budgets ContourCost(first_contour..last_contour).
  std::vector<double> probe_budgets;
  /// Contour indices the probes correspond to (display/accounting).
  int first_contour = 0;
  int last_contour = 0;
};

/// One budgeted execution performed during discovery (a row of the
/// paper's Table 3 drill-down, a segment of Fig. 7's Manhattan profile).
struct ExecutionStep {
  /// 0-based contour index the execution belongs to.
  int contour = 0;
  /// Display name of the executed plan ("P7"); spill-mode executions are
  /// conventionally lower-cased by the printers ("p7").
  std::string plan_name;
  /// ESS dimension spilled on, or -1 for a full (non-spill) execution.
  int spill_dim = -1;
  double budget = 0.0;
  double cost_charged = 0.0;
  bool completed = false;
  /// Exact selectivity learnt (spill completions), or the certified lower
  /// bound reached (aborted spills).
  double learned_sel = 0.0;
  /// Selectivity knowledge after the step: exact value for learnt dims,
  /// current lower bound for the rest (the running location q_run).
  std::vector<double> qrun;
};

/// Outcome of one full discovery run for one true location.
struct DiscoveryResult {
  bool completed = false;
  /// Sum of cost charged over all executions — the numerator of
  /// SubOpt(Seq, q_a) in Eq. (3).
  double total_cost = 0.0;
  /// Contour at which the query finally completed.
  int final_contour = -1;
  /// Largest plan-replacement penalty among the partitions this run
  /// actually executed (AlignedBound's Table 4 statistic; 1.0 for
  /// algorithms without induced alignment).
  double max_replacement_penalty = 1.0;
  std::vector<ExecutionStep> steps;
  /// Fault accounting aggregated over the run's executions (all zeros
  /// unless the calling thread's FaultInjector is armed).
  RobustnessReport robustness;
  /// The algorithm's MSO guarantee composed across the oracle's shards
  /// (shard/mso.h). Because cost is additive over the chunk partition and
  /// every shard runs the same discovery-issued budgets, the composed
  /// global bound equals the per-shard guarantee — surfaced here so
  /// callers see the guarantee that actually covers total_cost.
  shard::ComposedMso composed_mso;
  /// Warm-start accounting (all false/zero for cold runs and invalid
  /// hints — those runs are bit-identical to hint-less ones).
  bool warm_started = false;    // a valid hint's probes were executed
  bool warm_completed = false;  // the run completed inside the probes
  bool warm_fell_back = false;  // probes exhausted; full cold restart ran
  double warm_cost = 0.0;       // cost charged to the probe phase

  int num_executions() const { return static_cast<int>(steps.size()); }
};

/// The common face of PlanBouquet, SpillBound and AlignedBound: one
/// discovery run against an execution oracle, plus the metadata the
/// harness and reproduction surface need.
///
/// Concurrency contract. Run is const and thread-safe: one instance may
/// serve any number of concurrent runs. The contour-wise algorithms
/// memoize per-(contour, learnt-slice) choices in internally synchronized
/// memos (common/shared_memo.h) shared by every run; each memo value is a
/// pure function of the Ess and its key, and no memo fill reaches a fault
/// site, so a run's result never depends on which runs came before it.
class DiscoveryAlgorithm {
 public:
  virtual ~DiscoveryAlgorithm() = default;

  /// Runs discovery against `oracle` until the query completes. Resets
  /// the oracle's robustness report first and folds it into the result's,
  /// so each run's fault accounting is self-contained.
  DiscoveryResult Run(ExecutionOracle* oracle) const;

  /// As above, with an optional feedback warm start: a valid `warm` hint's
  /// probes run first; on boundary crossing the full cold sequence runs
  /// after them (see WarmStartHint). Null or invalid `warm` is
  /// bit-identical to the hint-less overload.
  DiscoveryResult Run(ExecutionOracle* oracle, const WarmStartHint* warm) const;

  /// Display name ("SpillBound").
  virtual std::string name() const = 0;

  /// The algorithm's MSO guarantee for its query/ESS instance: the
  /// platform-independent bound for SpillBound and AlignedBound, the
  /// behavioural 4(1+lambda)rho bound for PlanBouquet.
  virtual double MsoGuarantee() const = 0;

 protected:
  /// The algorithm body Run() wraps.
  virtual DiscoveryResult RunImpl(ExecutionOracle* oracle) const = 0;
};

}  // namespace robustqp

#endif  // ROBUSTQP_CORE_DISCOVERY_H_
