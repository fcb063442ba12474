// Deterministic fault-injection framework.
//
// FaultInjector exposes named fault *sites* (registered at compile time
// below) that hot paths evaluate with a single thread-local load when
// injection is disabled — the disarmed branch is the entire overhead.
// When armed via a spec string such as
//
//   --faults "exec.*:p=0.01;optimizer.dp:after=100,kind=permanent"
//
// each evaluation of a matching site can yield a transient error, a
// permanent error, a cost/latency spike, or a stat corruption.
//
// Arming is per thread. Configure arms the calling thread's own injector
// and Disarm disarms the calling thread only; every other thread keeps
// its own state, so two threads may run under different specs and seeds
// at the same time. Fan-outs carry the caller's arming to their workers:
// ParallelFor and ParallelMapReduce (common/thread_pool.h) run each block
// under the caller's injector and restore the worker's own afterwards.
// ThreadPool::Submit does not, so a task submitted from an armed thread
// runs disarmed unless it arms itself.
//
// Determinism model. Every draw is a pure hash of
// (seed, site, stream, per-stream-site counter): no global RNG state, no
// dependence on thread schedule. The *stream* is a thread-local id set via
// FaultStreamScope — parallel harnesses scope each unit of work (e.g. one
// evaluator grid location) to its own stream, so the fault sequence any
// unit observes is identical at any thread count and per-site totals are
// schedule-independent sums. Entering a scope also zeroes the per-site
// counters, making each unit's draw sequence self-contained.
//
// Degradation ladder (implemented by the consumers, reported here):
// batch engine -> tuple engine, chunk-parallel -> single-thread, spill
// binary search -> clamped linear scan. Transient faults are retried with
// the faulted attempt's lost work charged to cost_used, keeping the
// doubling-sequence MSO accounting of the discovery algorithms valid; the
// charges are surfaced per run in a RobustnessReport.

#ifndef ROBUSTQP_COMMON_FAULT_H_
#define ROBUSTQP_COMMON_FAULT_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"

namespace robustqp {

/// What one fault-site evaluation resolved to.
enum class FaultKind : uint8_t {
  kNone = 0,
  /// The operation fails partway through; retrying may succeed. The lost
  /// work (fraction `u` of the attempt) is charged to the caller.
  kTransient,
  /// The operation cannot succeed on this execution; no retry.
  kPermanent,
  /// The operation costs `magnitude` times its clean cost (latency/cost
  /// spike) — budgeted executions cover proportionally less work.
  kCostSpike,
  /// A statistic (cost-model output) is multiplied by `magnitude`; only
  /// sites that produce statistics interpret this kind.
  kCorrupt,
};

/// Outcome of evaluating a fault site once.
struct FaultAction {
  FaultKind kind = FaultKind::kNone;
  /// Severity draw in [0, 1): for transients, the fraction of the attempt
  /// completed (and therefore wasted) before the fault struck.
  double u = 0.0;
  /// Spike multiplier (>= 1) or corruption factor (log-uniform around 1).
  double magnitude = 1.0;

  explicit operator bool() const { return kind != FaultKind::kNone; }
};

/// Compile-time registry of fault sites. Names mirror the subsystem paths
/// they instrument; specs address them exactly or by '*' suffix wildcard.
namespace fault_site {
enum Site : int {
  kExecScanRead = 0,    // exec.scan.read
  kExecHashJoinBuild,   // exec.hashjoin.build
  kExecNlJoinPair,      // exec.nljoin.pair
  kExecSortMerge,       // exec.sort.merge
  kStorageIndexProbe,   // storage.index.probe (index-NL join probes)
  kExecBatchPipeline,   // exec.batch.pipeline (fault => degrade to tuple)
  kExecMorselScan,      // exec.morsel.scan (fault => degrade to serial)
  kExecSpillRun,        // exec.spill.run (spill-mode executions)
  kOptimizerDp,         // optimizer.dp
  kRetiredSite,         // names no site; holds its number so every later
                        // site keeps the number Evaluate hashes into draws
  kIoEssLoad,           // io.ess_load
  kOracleCostModel,     // oracle.cost_model (kCorrupt perturbs costs)
  kShardStraggler,      // shard.straggler (speculative re-dispatch of a shard)
  kShardLostChunk,      // shard.lost_chunk (chunk re-executed on a replica)
  kFeedbackStoreLoad,   // feedback.store_load (fault => cold-start degradation)
  kStoragePageFault,    // storage.page_fault (mmap block read fault =>
                        // block degrades to the resident decode path)
  kNumSites,
};
}  // namespace fault_site

/// Registry name of a site ("exec.scan.read").
const char* FaultSiteName(int site);

/// Cumulative per-site observation counters (order-independent sums, so
/// they are deterministic at any thread count).
struct FaultSiteStats {
  int64_t evaluations = 0;
  int64_t transients = 0;
  int64_t permanents = 0;
  int64_t spikes = 0;
  int64_t corruptions = 0;
};

/// Per-run robustness accounting surfaced by executors, oracles, discovery
/// algorithms and the evaluation harness. All counters are additive.
struct RobustnessReport {
  /// Attempts lost to transient faults and retried.
  int64_t transient_retries = 0;
  /// Executions killed by a permanent fault.
  int64_t permanent_faults = 0;
  /// Cost/latency spikes applied to attempts.
  int64_t cost_spikes = 0;
  /// Cost-model corruptions applied.
  int64_t corruptions = 0;
  /// Batch-engine pipelines degraded to the tuple engine.
  int64_t engine_degradations = 0;
  /// Chunk-parallel scans degraded to single-thread.
  int64_t serial_degradations = 0;
  /// Budget doublings past the last contour needed to reach completion.
  int64_t escalations = 0;
  /// PCM violations detected (non-monotone spill costs) and clamped.
  int64_t pcm_violations = 0;
  /// Non-monotone contour budgets detected and clamped.
  int64_t contour_clamps = 0;
  /// Executions that hit the transient-retry cap.
  int64_t retries_exhausted = 0;
  /// Sharded runs: straggling shards speculatively re-dispatched.
  int64_t shard_stragglers = 0;
  /// Sharded runs: chunks lost mid-scan and re-executed on a replica.
  int64_t shard_lost_chunks = 0;
  /// Feedback-store loads that failed (feedback.store_load fault) and
  /// degraded the request to a cold start.
  int64_t feedback_degradations = 0;
  /// Mapped-storage blocks whose page read faulted (storage.page_fault)
  /// and were scanned via the resident decode path instead of the fused
  /// kernels. Purely physical: counts and cost_used are unchanged.
  int64_t page_fault_degradations = 0;
  /// Cost units charged for work lost to faulted attempts.
  double retried_cost = 0.0;
  /// Extra cost units charged by spikes on surviving attempts.
  double spike_cost = 0.0;
  /// Evaluator only: MSO minus the MSO recomputed without the per-run
  /// retried_cost — the suboptimality attributable to charged retries.
  double mso_delta = 0.0;

  void Merge(const RobustnessReport& o);
  /// True iff any counter is non-zero.
  bool Any() const;
  /// One-line human summary of the non-zero fields ("" when !Any()).
  std::string Summary() const;
};

/// One thread's fault injector. Evaluate() is safe from any thread that
/// draws from it (the thread that armed it, and the workers of its
/// fan-outs); Configure and Disarm act on the calling thread only.
class FaultInjector {
 public:
  /// One thread-local load; the only cost injection adds to disarmed paths.
  static bool Armed() { return armed_ != nullptr; }

  /// The injector the calling thread draws from: the one it armed or
  /// inherited from a fan-out, else its own (disarmed) injector, whose
  /// stats still read the last Configure on this thread.
  static FaultInjector& Current();

  /// Parses `spec` ("clause;clause;..." with clause
  /// "pattern:param,param,..."; params p=<prob>, after=<n>,
  /// kind=transient|permanent|spike|corrupt, mult=<spike factor>,
  /// scale=<corruption spread>; pattern is a site name or a '*'-suffixed
  /// prefix; later clauses override earlier ones per site), installs it
  /// with `seed` in the calling thread's own injector, resets its stats,
  /// and arms the calling thread. An empty spec disarms it. Returns
  /// InvalidArgument on malformed input (state is then unchanged).
  static Status Configure(const std::string& spec, uint64_t seed);

  /// The check Configure makes of `spec`, without arming anything: OK iff
  /// Configure would accept it.
  static Status ValidateSpec(const std::string& spec);

  /// Disables injection on the calling thread; Armed() becomes false there.
  static void Disarm();

  /// Draws the action for one evaluation of `site` in the calling
  /// thread's stream, advancing that stream's per-site counter.
  FaultAction Evaluate(int site);

  /// Per-site cumulative stats since the last Configure.
  std::vector<FaultSiteStats> Snapshot() const;
  /// Multi-line "site: evaluations/fired-by-kind" rendering of Snapshot
  /// (sites with zero evaluations omitted).
  std::string StatsSummary() const;

  uint64_t seed() const { return seed_; }
  const std::string& spec() const { return spec_; }

 private:
  struct Clause {
    bool active = false;
    double p = 0.0;
    int64_t after = -1;  // >= 0: fire exactly on the after-th evaluation
    FaultKind kind = FaultKind::kTransient;
    double mult = 4.0;   // spike multiplier
    double scale = 4.0;  // corruption spread: factor in [1/scale, scale]
  };
  struct SiteCounters {
    std::atomic<int64_t> evaluations{0};
    std::atomic<int64_t> transients{0};
    std::atomic<int64_t> permanents{0};
    std::atomic<int64_t> spikes{0};
    std::atomic<int64_t> corruptions{0};
  };

  FaultInjector() = default;

  /// The calling thread's own injector, the one Configure arms.
  static FaultInjector& Own();

  /// Resolves `spec` into one clause per site (the parser behind
  /// Configure and ValidateSpec).
  static Status ParseSpec(const std::string& spec,
                          Clause (&resolved)[fault_site::kNumSites]);

  /// The injector the calling thread draws from; null = disarmed.
  static inline constinit thread_local FaultInjector* armed_ = nullptr;

  uint64_t seed_ = 0;
  std::string spec_;
  Clause clauses_[fault_site::kNumSites];
  SiteCounters counters_[fault_site::kNumSites];

  friend class FaultStreamScope;
  friend class FaultArmingScope;
};

/// RAII scope running the calling thread under another thread's arming:
/// construct it on a worker with Captured() taken on the thread whose work
/// it runs, and the worker draws from that thread's injector (or runs
/// disarmed, for null) until the scope ends, when its own arming returns.
/// The captured injector must outlive the scope; fan-outs that wait for
/// their workers guarantee that.
class FaultArmingScope {
 public:
  /// The calling thread's armed injector; null when it is disarmed.
  static FaultInjector* Captured() { return FaultInjector::armed_; }

  explicit FaultArmingScope(FaultInjector* injector)
      : saved_(FaultInjector::armed_) {
    FaultInjector::armed_ = injector;
  }
  ~FaultArmingScope() { FaultInjector::armed_ = saved_; }

  FaultArmingScope(const FaultArmingScope&) = delete;
  FaultArmingScope& operator=(const FaultArmingScope&) = delete;

 private:
  FaultInjector* saved_;
};

/// RAII scope pinning the calling thread's fault stream to `stream` and
/// zeroing its per-site counters, so the draw sequence inside the scope
/// depends only on (seed, spec, stream) — never on the thread or on what
/// ran before. Restores the previous stream state on destruction.
class FaultStreamScope {
 public:
  explicit FaultStreamScope(uint64_t stream);
  ~FaultStreamScope();

  FaultStreamScope(const FaultStreamScope&) = delete;
  FaultStreamScope& operator=(const FaultStreamScope&) = delete;

 private:
  uint64_t saved_stream_;
  uint64_t saved_counters_[fault_site::kNumSites];
};

/// One attempt of a faulted execution (see RunWithFaultRetries).
struct FaultAttempt {
  /// Non-OK aborts the whole faulted run with this status.
  Status status;
  bool completed = false;
  /// Cost the attempt charged under its effective budget (pre-spike).
  double cost = 0.0;
};

/// Degradations accumulated across the attempts of one faulted run; the
/// attempt callback routes execution accordingly.
struct FaultRunState {
  bool degrade_engine = false;  // batch -> tuple
  bool degrade_serial = false;  // chunk-parallel -> single-thread
  int attempt = 0;
};

/// Outcome of a faulted run.
struct FaultedRunOutcome {
  /// Non-OK: a permanent fault, a hard attempt error, or retry exhaustion
  /// on an unbudgeted run.
  Status status;
  bool completed = false;
  /// Total cost charged: the surviving attempt (spike-scaled) plus all
  /// work lost to retried attempts. Exactly `budget` when a budgeted run
  /// failed to complete.
  double cost_used = 0.0;
  /// True iff the last attempt ran clean and its payload (stats, learned
  /// values) stands.
  bool final_attempt_valid = false;
  RobustnessReport report;
};

/// Shared retry/degradation loop for budgeted executions under faults.
///
/// Per attempt, every site in `sites` is evaluated once *before* the
/// attempt runs — so the draw sequence is independent of the execution
/// engine, the thread count, and the attempt's internals. Semantics:
///  * degradation sites (exec.batch.pipeline, exec.morsel.scan) flip the
///    corresponding FaultRunState flag instead of failing the attempt;
///  * spikes multiply into a factor s: the attempt runs with effective
///    budget remaining/s and its cost is charged as s * cost;
///  * a transient fault wastes fraction u of the attempt's (spiked) cost,
///    which is charged against the remaining budget, and retries — capped
///    exponential backoff with the budget itself as the cap: once retries
///    exhaust the budget the run reports non-completion with cost_used ==
///    budget, which is exactly the accounting a failed contour execution
///    has anyway, so MSO bounds are preserved;
///  * a permanent fault aborts with only the already-wasted work charged.
/// `budget` < 0 means unlimited (retry exhaustion is then an error).
FaultedRunOutcome RunWithFaultRetries(
    FaultInjector& inj, const std::vector<int>& sites, double budget,
    const std::function<FaultAttempt(double eff_budget,
                                     const FaultRunState& state)>& attempt);

/// Retry cap of RunWithFaultRetries (and of callers that hand-roll
/// retries, e.g. the ESS sweep around optimizer.dp).
constexpr int kMaxFaultAttempts = 8;

}  // namespace robustqp

#endif  // ROBUSTQP_COMMON_FAULT_H_
