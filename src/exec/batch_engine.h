// Internal entry point of the vectorized batch execution engine; see
// executor.h for the engine contract and batch_engine.cc for the design.

#ifndef ROBUSTQP_EXEC_BATCH_ENGINE_H_
#define ROBUSTQP_EXEC_BATCH_ENGINE_H_

#include "catalog/catalog.h"
#include "common/status.h"
#include "exec/executor.h"
#include "optimizer/cost_model.h"
#include "plan/plan.h"

namespace robustqp {

/// Executes the subtree rooted at `root` with the batch engine.
/// Unbudgeted scan pipelines run through the chunk driver (see
/// batch_engine.cc); `num_threads` > 1 fans their chunks out on the shared
/// pool (common/thread_pool.h) as at most that many blocks, and the caller
/// passes more than 1 only for full runs (budget < 0, not spill).
/// `use_zone_maps` enables physical-only block and chunk pruning —
/// including block-exact pruned replay of budgeted aborts — and
/// `use_compression` enables the fused filter-on-compressed kernels on
/// encoded columns (results and every count are identical either way;
/// the flags exist for differential testing). `num_shards` > 1 labels
/// chunks round-robin with simulated workers for shard fault draws and
/// the per-shard cost split (the caller only passes it for full runs,
/// same contract as `num_threads`); ExecutionResult::shard carries the
/// accounting.
Result<ExecutionResult> RunBatchEngine(const Catalog& catalog,
                                       const Plan& plan, const PlanNode& root,
                                       const CostModel& cost_model,
                                       double budget, int num_threads,
                                       bool use_zone_maps = true,
                                       bool use_compression = true,
                                       int num_shards = 1);

}  // namespace robustqp

#endif  // ROBUSTQP_EXEC_BATCH_ENGINE_H_
