// Chunked table partitioning: the unit of the batch engine's chunk
// driver (exec/batch_engine.cc) and of simulated shards.
//
// A table is partitioned into fixed row-range *chunks* of
// kShardChunkRows rows (storage/table.h), a whole multiple of the
// 4096-row zone-map block so chunk boundaries never split a block:
// per-chunk zone summaries are exact folds of the block zone maps, and
// chunk-local scans reuse the batch engine's block-aligned morsel grid
// unchanged. A shard is only a label: chunks map to the N simulated
// workers round-robin by chunk index, a pure function of
// (chunk, num_shards) with no scheduler state. The driver merges
// per-chunk partials in ascending chunk order, which reproduces the
// sequential row order bit-for-bit at any shard or thread count.
//
// ClassifyChunk answers what a chunk's zone summary proves about
// `col OP value` over the *whole* chunk, with the same conservative
// semantics as the per-block classifier (exec/kernels.h): kNone / kAll
// only when provable, kSome otherwise, NaN data rows veto kAll, a NaN
// literal satisfies nothing. Because the chunk summary is a fold, its
// verdicts are equal-or-weaker than per-block classification — a chunk
// kAll implies every block kAll, a chunk kNone implies every block
// kNone — which is exactly what whole-chunk pruning needs to charge
// counts identical to per-batch evaluation without touching a row.

#ifndef ROBUSTQP_SHARD_CHUNKING_H_
#define ROBUSTQP_SHARD_CHUNKING_H_

#include <cstdint>
#include <vector>

#include "query/query.h"
#include "storage/table.h"

namespace robustqp {
namespace shard {

/// Number of chunks covering `num_rows` rows (0 for an empty table).
int64_t ChunkCount(int64_t num_rows);

/// First row of `chunk`.
int64_t ChunkBegin(int64_t chunk);

/// One past the last row of `chunk` (clamped to `num_rows`).
int64_t ChunkEnd(int64_t chunk, int64_t num_rows);

/// The shard (simulated worker) that owns `chunk`: round-robin by chunk
/// index, so the map is schedule-independent and every shard's chunk set
/// is an ascending arithmetic sequence.
int ShardOfChunk(int64_t chunk, int num_shards);

/// What a chunk zone summary proves about `col OP value` over the chunk.
enum class ChunkMatch {
  kNone,  // no row in the chunk can satisfy the predicate
  kAll,   // every row in the chunk satisfies the predicate
  kSome,  // undecided: scan the chunk
};

/// Classifies the whole chunk against the predicate using the column's
/// chunk-granularity zone summary (ColumnData::chunk_zones). Returns
/// kSome when the summary is absent (table not finalized) or the chunk
/// index is out of its range.
ChunkMatch ClassifyChunk(const ColumnData& col, CompareOp op, double value,
                         int64_t chunk);

/// Per-run chunk and shard accounting, carried in ExecutionResult. The
/// chunk counters describe every chunk-driven run (every unbudgeted scan
/// pipeline of the batch engine); `num_shards == 1` (the default) means
/// the chunks were not split over simulated workers, so the fault and
/// per-shard fields stay zero/empty. Counters are additive across the
/// scan pipelines of one run.
///
/// Exactness note: the *binding* cost aggregation across shards is the
/// integer event-count merge of the per-chunk cost ledgers — the merged
/// ledger reduces through the canonical CostLedger::Total to a cost_used
/// bit-identical to the unsharded run. `shard_cost` is the per-shard
/// decomposition of that total (each shard's chunk ledgers reduced
/// separately), reported for the per-shard MSO statement (shard/mso.h);
/// its floating-point sum may differ from cost_used in the last ulp.
struct ShardReport {
  int num_shards = 1;
  /// Chunks across all chunk-driven scan pipelines of the run.
  int64_t chunks_total = 0;
  /// Chunks whose rows were actually evaluated.
  int64_t chunks_scanned = 0;
  /// Chunks skipped whole by the chunk zone summary (counts still
  /// charged exactly as if scanned — pruning is physical-only).
  int64_t chunks_pruned = 0;
  /// shard.straggler faults: shards speculatively re-dispatched.
  int64_t straggler_retries = 0;
  /// shard.lost_chunk faults: chunks re-executed on a replica.
  int64_t lost_chunks = 0;
  /// Cost units charged into cost_used for work lost to shard faults
  /// (doomed primary attempts and speculative duplicates).
  double retried_cost = 0.0;
  /// Per-shard cost decomposition (diagnostic; see exactness note).
  std::vector<double> shard_cost;

  void Merge(const ShardReport& o);
  /// True iff the run scattered at least one pipeline over more than
  /// one shard.
  bool Any() const { return num_shards > 1 && chunks_total > 0; }
};

}  // namespace shard
}  // namespace robustqp

#endif  // ROBUSTQP_SHARD_CHUNKING_H_
