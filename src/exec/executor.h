// Execution engine with the two engine extensions the paper adds to
// PostgreSQL (Section 6.1):
//
//  * cost-budgeted execution — the engine charges cost units per tuple
//    using the same constants as the optimizer's cost model and aborts the
//    moment the assigned budget is exhausted (the "time-limited execution"
//    primitive);
//  * spill-mode execution — only the subtree rooted at a chosen node is
//    executed and its output discarded, devoting the whole budget to
//    learning that node's selectivity (Section 3.1.2);
//
// plus run-time selectivity monitoring: every join operator counts its
// input and output tuples, so a completed (sub)tree yields the exact
// observed selectivity of its predicates.
//
// Two engines implement these semantics:
//
//  * the tuple engine — a Volcano-style demand-driven iterator, one
//    virtual Next() per row, one budget check per cost event, reading
//    storage a block at a time (a scan decodes each column's 4096-row
//    block once, when the first row it reads there enters it); and
//  * the batch engine (default) — push-based pipelines over batches of
//    up to 1024 row ids, with filters as tight column loops, hash-join
//    probe split from output emission, and unbudgeted table scans driven
//    one zone-pruned chunk at a time (chunk-parallel on the shared pool for
//    full runs). A budgeted run counts whole morsels in bulk, sizing
//    them from the remaining budget slack (16 rows doubling to 1024,
//    capped at half the rows the slack pays for), and replays only the
//    morsel that crosses the budget — usually one source row —
//    tuple-at-a-time. Aborting runs therefore run at bulk speed up to
//    their abort point.
//
// Both engines count cost events into the same integer ledger
// (exec/cost_ledger.h) and reduce it through one canonical fixed-order
// sum, so `cost_used`, every NodeStats counter, and the exact tuple at
// which a budget aborts are bit-identical between them — the batch
// engine is pure speed, with no change to the paper's learning
// semantics. Differential fuzz tests (tests/exec_batch_test.cc) enforce
// this.

#ifndef ROBUSTQP_EXEC_EXECUTOR_H_
#define ROBUSTQP_EXEC_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "catalog/catalog.h"
#include "common/fault.h"
#include "common/status.h"
#include "optimizer/cost_model.h"
#include "plan/plan.h"
#include "shard/chunking.h"

namespace robustqp {

/// Per-plan-node execution counters (indexed by PlanNode::id).
struct NodeStats {
  int64_t left_in = 0;   // tuples consumed from the left child (or scanned)
  int64_t right_in = 0;  // tuples consumed from the right child
  int64_t out = 0;       // tuples produced
  /// Scan nodes only: per filter (in filter_indices order), tuples that
  /// reached the filter and tuples that passed it — the run-time
  /// monitoring that lets a spill learn an error-prone *filter*'s
  /// selectivity.
  std::vector<int64_t> filter_in;
  std::vector<int64_t> filter_pass;
};

/// Outcome of one (possibly budget-limited, possibly spilled) execution.
struct ExecutionResult {
  /// True iff the (sub)tree ran to completion within budget.
  bool completed = false;
  /// Cost units charged (<= budget when budgeted).
  double cost_used = 0.0;
  /// Rows produced by the executed root (discarded in spill mode).
  int64_t output_rows = 0;
  /// Counters per plan-node id (zeros for nodes outside a spilled subtree).
  std::vector<NodeStats> node_stats;
  /// Fault accounting for this run: all zeros unless the calling
  /// thread's FaultInjector is armed and a fault actually fired.
  RobustnessReport robustness;
  /// Chunk and shard accounting (shard/chunking.h): chunk counts and
  /// whole-chunk prunes of every unbudgeted batch scan, plus shard-fault
  /// recoveries and the per-shard cost decomposition when the run
  /// scattered (num_shards > 1).
  shard::ShardReport shard;

  /// Observed selectivity of the join at `node_id`:
  /// out / (left_in * right_in). Only exact once the subtree completed.
  ///
  /// Convention: returns 0.0 when there is no evidence — either input
  /// side empty (denominator <= 0) or the product overflowing to
  /// non-finite — and clamps the ratio to [0, 1], since a selectivity
  /// cannot exceed 1 and callers feed the value into log-space grids.
  ///
  /// Committed-attempt guarantee: under transient-fault retries the
  /// node_stats these ratios read are the surviving attempt's alone —
  /// RunFaulted overwrites per-attempt counters and zeroes them when no
  /// attempt survived — so retried work never inflates an observation
  /// (the feedback store depends on this; regression-tested in
  /// feedback_test.cc).
  double ObservedJoinSelectivity(int node_id) const;

  /// Observed selectivity of the `k`-th filter (position within the scan
  /// node's filter_indices) at scan `node_id`: pass / reached.
  double ObservedFilterSelectivity(int node_id, int k) const;
};

/// Execution engine bound to a catalog and cost-model flavour.
class Executor {
 public:
  enum class Engine {
    kTuple,  // Volcano iterator, per-tuple budget checks
    kBatch,  // vectorized batches, slack-sized budgeted morsels
  };

  struct Options {
    /// kTuple is the Volcano reference model: the differential suites
    /// compare the batch engine against it, and the exec.batch.pipeline
    /// fault degrades to it.
    Engine engine = Engine::kBatch;
    /// Cap on the blocks of the batch engine's chunk-parallel scans, run
    /// by the calling thread and workers borrowed from the process-wide
    /// pool (common/thread_pool.h); an Executor starts no threads. Only
    /// full executions (budget < 0, not spilled) fan out; budgeted and
    /// spill executions run single-threaded so the learning primitive's
    /// abort semantics are untouched. 0 means
    /// ThreadPool::DefaultThreads(); 1 disables parallelism.
    int num_threads = 1;
    /// Batch engine only: let scans skip zone-map-pruned blocks and
    /// chunks — in full, budgeted, and replayed runs alike. Purely
    /// physical — results, cost_used, and every NodeStats counter are
    /// bit-identical either way (the differential suites run both
    /// settings).
    bool use_zone_maps = true;
    /// Batch engine only: let scans over encoded columns
    /// (storage/encoding.h) filter on compressed data — unsigned compares
    /// on frame-of-reference codes, per-dictionary-entry predicate rewrite
    /// — instead of decoding blocks first. Purely physical, same contract
    /// as use_zone_maps.
    bool use_compression = true;
    /// Simulated scatter-gather workers: full batch executions label
    /// their chunks round-robin with this many shards for shard fault
    /// draws and the per-shard cost split (ExecutionResult::shard).
    /// Results, cost_used, and every NodeStats counter are bit-identical
    /// at any shard count x thread count. <= 1 disables sharding.
    int num_shards = 1;
  };

  Executor(const Catalog* catalog, CostModel cost_model);
  Executor(const Catalog* catalog, CostModel cost_model, Options options);

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// Runs the full plan. `budget` < 0 means unlimited. Returns a result
  /// with completed=false when the budget ran out (not an error).
  Result<ExecutionResult> Execute(const Plan& plan, double budget) const;

  /// Runs only the subtree rooted at `spill_node_id`, discarding output.
  Result<ExecutionResult> ExecuteSpill(const Plan& plan, int spill_node_id,
                                       double budget) const;

  const CostModel& cost_model() const { return cost_model_; }
  const Options& options() const { return options_; }

  /// Parses "tuple" / "batch"; returns false on anything else.
  static bool ParseEngine(const std::string& name, Engine* out);

 private:
  Result<ExecutionResult> Run(const Plan& plan, const PlanNode& root,
                              double budget, bool spill) const;
  /// One clean attempt with an explicit engine / parallelism choice (the
  /// fault path degrades these across retries).
  Result<ExecutionResult> RunOnce(const Plan& plan, const PlanNode& root,
                                  double budget, bool spill, Engine engine,
                                  bool allow_parallel) const;
  /// Armed-injector path: per-operator fault draws, transient retries with
  /// lost work charged, batch->tuple and parallel->serial degradations.
  Result<ExecutionResult> RunFaulted(const Plan& plan, const PlanNode& root,
                                     double budget, bool spill) const;

  const Catalog* catalog_;
  CostModel cost_model_;
  Options options_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_EXEC_EXECUTOR_H_
