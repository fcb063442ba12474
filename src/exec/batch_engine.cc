// Vectorized batch execution engine.
//
// The plan tree is compiled into push-based *pipelines* in the exact
// order the tuple engine's Open() recursion visits blocking phases:
// a hash join emits its build subtree's pipelines and a build-drain
// pipeline before the probe side compiles; a nested-loop join
// materializes its inner first; a sort-merge join drains and sorts both
// inputs and then becomes a merge *source*. Each pipeline is
//
//   pre-ops  →  source (table scan | SMJ merge)  →  streaming stages
//            (hash probe / index-NL probe / NLJ pair loop)  →  sink
//            (root counter / hash build / NLJ materialize / sort buffer)
//
// and is driven in morsels of at most kBatchRows source rows.
// Filters run as tight column loops producing selection vectors; batches
// are column-major and carry only the columns later stages actually
// consume (join keys and sink payloads — the root pipeline usually
// carries zero columns and reduces to counting).
//
// Each streaming stage has one vectorized path, budgeted or not. The
// hash probe resolves a batch's row-major keys with one FindBatch and
// emits column-major. The index-NL probe lists (probe row, inner row)
// pairs from the index, filters them column-at-a-time over values the
// kernels gather a block run at a time, and gathers its outputs the same
// way. The NLJ compares keys by branch-free compaction. Budgeted runs
// drive the same code over sub-ranges of the batch with a budget check
// between them.
//
// Budget accounting (bit-identical to the tuple engine): both engines
// count cost events into the shared CostLedger and reduce it through the
// canonical fixed-order CostLedger::Total, which is independent of the
// order events were counted in and monotone event-by-event. A budgeted
// run therefore processes each morsel optimistically under a snapshot
// (ledger + touched NodeStats + merge cursors), bulk-counting whole
// batches; if the batch's end-of-morsel total exceeds the budget, the
// snapshot is rolled back and the morsel is *replayed* tuple-at-a-time
// in the tuple engine's exact event order to stop at the same tuple —
// carry-in is the committed prefix, carry-out is the replayed tail.
// Sink data effects (hash inserts, sort/materialize appends, output
// rows) are deferred until the morsel's budget check passes, so rollback
// never has to undo a data structure.
//
// Slack-sized morsels (MorselSizer) keep an aborting run at bulk speed up
// to its abort point. Budgeted morsels start at 16 rows and double up to
// kBatchRows, capped at half the rows the remaining slack pays for at the
// pipeline's observed cost per committed row, and never cross a
// kBatchRows-aligned position. The morsel that crosses the budget — the
// only one replayed — is then usually one source row.
//
// Unbudgeted scan pipelines run through the chunk driver described above
// RunPipelineChunked.

#include "exec/batch_engine.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "exec/cost_ledger.h"
#include "exec/kernels.h"
#include "shard/chunking.h"
#include "storage/hash_index.h"
#include "storage/table.h"

namespace robustqp {
namespace {

constexpr int64_t kBatchRows = 1024;
/// Width of the first morsel of a budgeted sequential pipeline.
constexpr int64_t kFirstMorselRows = 16;
/// Budgeted probe stages check the budget after every sub-range of this
/// many incoming rows (index-NL / hash probe / NLJ). Physical only: a
/// missed crossing is caught by the morsel's end-of-batch check.
constexpr int64_t kIndexCheckRows = 64;
constexpr int64_t kHashCheckRows = 256;
constexpr int64_t kNljCheckRows = 16;
/// The index-NL stage closes a sub-range once it has listed this many
/// (probe row, inner row) pairs, bounding its pair scratch.
constexpr int64_t kIndexPairRows = 4 * kBatchRows;

// ---------------------------------------------------------------------------
// Column references and resolved predicates
// ---------------------------------------------------------------------------

/// A column of one query table: (table index within the query, column
/// index within that table's schema).
struct ColRef {
  int table = -1;
  int col = -1;
  friend bool operator<(const ColRef& a, const ColRef& b) {
    return a.table != b.table ? a.table < b.table : a.col < b.col;
  }
  friend bool operator==(const ColRef& a, const ColRef& b) {
    return a.table == b.table && a.col == b.col;
  }
};

struct Filter {
  const ColumnData* col = nullptr;
  CompareOp op = CompareOp::kEq;
  double value = 0.0;
};

/// Same semantics as the tuple engine: compare GetNumeric(row) to the
/// literal.
bool EvalFilter(const Filter& f, int64_t row) {
  const double v = f.col->GetNumeric(row);
  switch (f.op) {
    case CompareOp::kLt: return v < f.value;
    case CompareOp::kLe: return v <= f.value;
    case CompareOp::kGt: return v > f.value;
    case CompareOp::kGe: return v >= f.value;
    case CompareOp::kEq: return v == f.value;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Batches
// ---------------------------------------------------------------------------

/// Column-major batch; `cols` holds only the live columns of the current
/// pipeline point.
struct Batch {
  int64_t n = 0;
  std::vector<std::vector<double>> cols;

  void Reset(size_t width) {
    n = 0;
    cols.resize(width);
    for (auto& c : cols) c.clear();
  }
};

// ---------------------------------------------------------------------------
// Join hash table: the kernels-layer flat open-addressing table (unique
// keys own insertion-ordered entry chains, matching the tuple engine's
// unordered_map<key, vector<Row>> emission order; payloads column-major).
// ---------------------------------------------------------------------------

using JoinHashTable = kernels::FlatJoinTable;

/// Materialized inner side of a block nested-loop join, in drain order.
struct NljBuffer {
  int64_t n = 0;
  std::vector<std::vector<double>> keys;  // one col per join key
  std::vector<std::vector<double>> pay;
};

/// Shared state of one sort-merge join: both sorted inputs plus the merge
/// cursors (a transcription of the tuple engine's SortMergeJoinOp).
struct SmjState {
  int node_id = -1;
  std::vector<std::vector<double>> lkeys, rkeys;  // key cols, sorted
  std::vector<std::vector<double>> lpay, rpay;    // payload cols, sorted
  size_t lsize = 0, rsize = 0;
  // Merge cursors.
  size_t li = 0, ri = 0;
  size_t group_li = 0, group_le = 0, group_re = 0, emit_ri = 0;
  bool in_group = false;
  bool eof = false;

  int Compare(size_t l, size_t r) const {
    for (size_t k = 0; k < lkeys.size(); ++k) {
      const double a = lkeys[k][l];
      const double b = rkeys[k][r];
      if (a < b) return -1;
      if (a > b) return 1;
    }
    return 0;
  }

  struct Cursor {
    size_t li, ri, group_li, group_le, group_re, emit_ri;
    bool in_group;
  };
  Cursor SaveCursor() const {
    return {li, ri, group_li, group_le, group_re, emit_ri, in_group};
  }
  void RestoreCursor(const Cursor& c) {
    li = c.li;
    ri = c.ri;
    group_li = c.group_li;
    group_le = c.group_le;
    group_re = c.group_re;
    emit_ri = c.emit_ri;
    in_group = c.in_group;
  }
};

// ---------------------------------------------------------------------------
// Compiled pipeline pieces
// ---------------------------------------------------------------------------

/// One output column of a streaming stage: either replicated from the
/// incoming batch or gathered from the stage's own (build/inner) side.
struct OutCol {
  bool from_input;
  int idx;  // batch col position, payload col position, or table col idx
};

struct Stage {
  enum class Kind { kHashProbe, kIndexProbe, kNlj };
  Kind kind;
  int node_id = -1;
  std::vector<int> in_keys;  // key col positions in the incoming batch
  std::vector<OutCol> out_cols;
  JoinHashTable* ht = nullptr;           // kHashProbe
  NljBuffer* nlj = nullptr;              // kNlj
  const HashIndex* index = nullptr;      // kIndexProbe
  const Table* inner_table = nullptr;    // kIndexProbe
  std::vector<Filter> inner_filters;     // kIndexProbe (uncharged, unmonitored)
};

struct Sink {
  enum class Kind { kRoot, kHashBuild, kNljMaterialize, kSort };
  Kind kind = Kind::kRoot;
  int node_id = -1;
  std::vector<int> key_cols;      // positions in the incoming batch
  std::vector<int> payload_cols;  // positions in the incoming batch
  JoinHashTable* ht = nullptr;
  NljBuffer* nlj = nullptr;
  SmjState* smj = nullptr;
  bool smj_left = false;
};

/// Uncharged work the tuple engine performs inside Open(), at the same
/// position relative to the pipeline's charges.
struct PreOp {
  enum class Kind { kScanFilterStats, kIndexMeta };
  Kind kind;
  int stat_node = -1;  // scan node whose filter vectors get assigned
  size_t num_filters = 0;
  // kIndexMeta only: the metadata-only inner pass of an index-NL join.
  int join_node = -1;
  const Table* table = nullptr;
  std::vector<Filter> filters;
};

struct ScanSource {
  int node_id = -1;
  const Table* table = nullptr;
  std::vector<Filter> filters;
  std::vector<const ColumnData*> out_cols;  // per live output column
};

/// Merge-source output column: (from left side, payload col position).
struct MergeOut {
  bool from_left;
  int idx;
};

struct Pipeline {
  std::vector<PreOp> pre_ops;
  bool is_scan = true;
  ScanSource scan;
  SmjState* merge = nullptr;
  std::vector<MergeOut> merge_out;
  std::vector<Stage> stages;
  Sink sink;
  /// Node ids whose NodeStats this pipeline mutates per batch (snapshot
  /// set for budgeted rollback).
  std::vector<int> touched;
};

// ---------------------------------------------------------------------------
// Plan compilation
// ---------------------------------------------------------------------------

class Compiler {
 public:
  Compiler(const Catalog& catalog, const Query& query, const PlanNode& root,
           int num_nodes)
      : catalog_(catalog), query_(query), root_(root) {
    meta_.resize(static_cast<size_t>(num_nodes));
    tables_.resize(query.tables().size());
    for (size_t t = 0; t < query.tables().size(); ++t) {
      tables_[t] = catalog.FindTable(query.tables()[t])->table.get();
    }
  }

  void Compile() {
    ComputeMask(root_);
    ComputeRefs(root_, {});
    Sink root_sink;
    root_sink.kind = Sink::Kind::kRoot;
    CompileInto(root_, root_sink);
    for (Pipeline& p : pipelines) FinishPipeline(&p);
  }

  std::vector<Pipeline> pipelines;
  // Deques: stable addresses for pointers held by stages/sinks.
  std::deque<JoinHashTable> hash_tables;
  std::deque<NljBuffer> nlj_buffers;
  std::deque<SmjState> smj_states;

 private:
  struct NodeMeta {
    uint64_t mask = 0;
    std::vector<ColRef> out_refs;
    std::vector<ColRef> left_keys, right_keys;  // join nodes only
  };

  NodeMeta& Meta(const PlanNode& n) {
    return meta_[static_cast<size_t>(n.id)];
  }

  uint64_t ComputeMask(const PlanNode& n) {
    NodeMeta& m = Meta(n);
    if (n.op == PlanOp::kSeqScan) {
      m.mask = 1ull << n.table_idx;
    } else if (n.op == PlanOp::kIndexNLJoin) {
      m.mask = ComputeMask(*n.left) | (1ull << n.right->table_idx);
    } else {
      m.mask = ComputeMask(*n.left) | ComputeMask(*n.right);
    }
    return m.mask;
  }

  ColRef Ref(const std::string& table, const std::string& column) const {
    const int t = query_.TableIndex(table);
    const int c = tables_[static_cast<size_t>(t)]->schema().FindColumn(column);
    RQP_CHECK(t >= 0 && c >= 0);
    return {t, c};
  }

  /// Resolves the ends of each join predicate to this node's child sides.
  void ResolveJoinKeys(const PlanNode& n, uint64_t left_mask) {
    NodeMeta& m = Meta(n);
    for (int j : n.join_indices) {
      const JoinPredicate& jp = query_.joins()[static_cast<size_t>(j)];
      const ColRef l = Ref(jp.left_table, jp.left_column);
      const ColRef r = Ref(jp.right_table, jp.right_column);
      const bool left_has_left = (left_mask >> l.table) & 1;
      m.left_keys.push_back(left_has_left ? l : r);
      m.right_keys.push_back(left_has_left ? r : l);
    }
  }

  void ComputeRefs(const PlanNode& n, std::vector<ColRef> needed) {
    std::sort(needed.begin(), needed.end());
    needed.erase(std::unique(needed.begin(), needed.end()), needed.end());
    NodeMeta& m = Meta(n);
    m.out_refs = needed;
    if (n.op == PlanOp::kSeqScan) return;
    if (n.op == PlanOp::kIndexNLJoin) {
      const int t = n.right->table_idx;
      ResolveJoinKeys(n, Meta(*n.left).mask);
      std::vector<ColRef> left_needed;
      for (const ColRef& r : m.out_refs) {
        if (r.table != t) left_needed.push_back(r);
      }
      // The outer end of the single join predicate.
      left_needed.push_back((Meta(*n.left).mask >> m.left_keys[0].table) & 1
                                ? m.left_keys[0]
                                : m.right_keys[0]);
      ComputeRefs(*n.left, std::move(left_needed));
      return;
    }
    const uint64_t lm = Meta(*n.left).mask;
    ResolveJoinKeys(n, lm);
    std::vector<ColRef> left_needed, right_needed;
    for (const ColRef& r : m.out_refs) {
      ((lm >> r.table) & 1 ? left_needed : right_needed).push_back(r);
    }
    for (const ColRef& r : m.left_keys) left_needed.push_back(r);
    for (const ColRef& r : m.right_keys) right_needed.push_back(r);
    ComputeRefs(*n.left, std::move(left_needed));
    ComputeRefs(*n.right, std::move(right_needed));
  }

  int PosOf(const PlanNode& n, const ColRef& r) const {
    const std::vector<ColRef>& refs =
        meta_[static_cast<size_t>(n.id)].out_refs;
    const auto it = std::lower_bound(refs.begin(), refs.end(), r);
    RQP_CHECK(it != refs.end() && *it == r);
    return static_cast<int>(it - refs.begin());
  }

  std::vector<Filter> ResolveFilters(const std::vector<int>& filter_indices,
                                     const Table* table) const {
    std::vector<Filter> out;
    for (int f : filter_indices) {
      const FilterPredicate& fp = query_.filters()[static_cast<size_t>(f)];
      const ColumnData* col =
          &table->column(table->schema().FindColumn(fp.column));
      CompareOp op = fp.op;
      double value = fp.value;
      if (fp.is_string) {
        kernels::MapStringPredicate(col->enc(), fp.op, fp.value_str, &op,
                                    &value);
      }
      out.push_back({col, op, value});
    }
    return out;
  }

  /// Splits this node's out_refs into streaming-side vs other-side,
  /// returning the other-side refs (payload list, in out_refs order) and
  /// filling `out_cols` with the stage emission mapping.
  std::vector<ColRef> SplitOutputs(const PlanNode& n,
                                   const PlanNode& stream_child,
                                   std::vector<OutCol>* out_cols) {
    const NodeMeta& m = Meta(n);
    const uint64_t sm = Meta(stream_child).mask;
    std::vector<ColRef> payload_refs;
    for (const ColRef& r : m.out_refs) {
      if ((sm >> r.table) & 1) {
        out_cols->push_back({true, PosOf(stream_child, r)});
      } else {
        out_cols->push_back({false, static_cast<int>(payload_refs.size())});
        payload_refs.push_back(r);
      }
    }
    return payload_refs;
  }

  void CompileInto(const PlanNode& n, Sink sink) {
    Pipeline p;
    p.sink = sink;
    SourceInfo src = Descend(n, &p.stages, &p.pre_ops);
    p.is_scan = src.is_scan;
    p.scan = std::move(src.scan);
    p.merge = src.merge;
    p.merge_out = std::move(src.merge_out);
    pipelines.push_back(std::move(p));
  }

  struct SourceInfo {
    bool is_scan = true;
    ScanSource scan;
    SmjState* merge = nullptr;
    std::vector<MergeOut> merge_out;
  };

  SourceInfo Descend(const PlanNode& n, std::vector<Stage>* stages,
                     std::vector<PreOp>* pre) {
    const NodeMeta& m = Meta(n);
    switch (n.op) {
      case PlanOp::kSeqScan: {
        const Table* table = tables_[static_cast<size_t>(n.table_idx)];
        PreOp po;
        po.kind = PreOp::Kind::kScanFilterStats;
        po.stat_node = n.id;
        po.num_filters = n.filter_indices.size();
        pre->push_back(std::move(po));
        SourceInfo src;
        src.is_scan = true;
        src.scan.node_id = n.id;
        src.scan.table = table;
        src.scan.filters = ResolveFilters(n.filter_indices, table);
        for (const ColRef& r : m.out_refs) {
          RQP_CHECK(r.table == n.table_idx);
          src.scan.out_cols.push_back(&table->column(r.col));
        }
        return src;
      }
      case PlanOp::kHashJoin: {
        // Build side first (its blocking pipelines, then the drain).
        Stage st;
        st.kind = Stage::Kind::kHashProbe;
        st.node_id = n.id;
        const std::vector<ColRef> payload_refs =
            SplitOutputs(n, *n.right, &st.out_cols);
        hash_tables.emplace_back();
        JoinHashTable* ht = &hash_tables.back();
        ht->Init(static_cast<int>(m.left_keys.size()),
                 static_cast<int>(payload_refs.size()));
        st.ht = ht;
        Sink bs;
        bs.kind = Sink::Kind::kHashBuild;
        bs.node_id = n.id;
        bs.ht = ht;
        for (const ColRef& r : m.left_keys) {
          bs.key_cols.push_back(PosOf(*n.left, r));
        }
        for (const ColRef& r : payload_refs) {
          bs.payload_cols.push_back(PosOf(*n.left, r));
        }
        CompileInto(*n.left, std::move(bs));
        // Probe side streams through this pipeline.
        SourceInfo src = Descend(*n.right, stages, pre);
        for (const ColRef& r : m.right_keys) {
          st.in_keys.push_back(PosOf(*n.right, r));
        }
        stages->push_back(std::move(st));
        return src;
      }
      case PlanOp::kNLJoin: {
        // Inner (right) side is materialized first.
        Stage st;
        st.kind = Stage::Kind::kNlj;
        st.node_id = n.id;
        const std::vector<ColRef> payload_refs =
            SplitOutputs(n, *n.left, &st.out_cols);
        nlj_buffers.emplace_back();
        NljBuffer* buf = &nlj_buffers.back();
        buf->keys.assign(m.right_keys.size(), {});
        buf->pay.assign(payload_refs.size(), {});
        st.nlj = buf;
        Sink ms;
        ms.kind = Sink::Kind::kNljMaterialize;
        ms.node_id = n.id;
        ms.nlj = buf;
        for (const ColRef& r : m.right_keys) {
          ms.key_cols.push_back(PosOf(*n.right, r));
        }
        for (const ColRef& r : payload_refs) {
          ms.payload_cols.push_back(PosOf(*n.right, r));
        }
        CompileInto(*n.right, std::move(ms));
        // Outer (left) side streams.
        SourceInfo src = Descend(*n.left, stages, pre);
        for (const ColRef& r : m.left_keys) {
          st.in_keys.push_back(PosOf(*n.left, r));
        }
        stages->push_back(std::move(st));
        return src;
      }
      case PlanOp::kSortMergeJoin: {
        smj_states.emplace_back();
        SmjState* smj = &smj_states.back();
        smj->node_id = n.id;
        smj->lkeys.assign(m.left_keys.size(), {});
        smj->rkeys.assign(m.right_keys.size(), {});
        // Payload split: out_refs on the left side vs the right side.
        SourceInfo src;
        src.is_scan = false;
        src.merge = smj;
        const uint64_t lm = Meta(*n.left).mask;
        std::vector<ColRef> lrefs, rrefs;
        for (const ColRef& r : m.out_refs) {
          if ((lm >> r.table) & 1) {
            src.merge_out.push_back({true, static_cast<int>(lrefs.size())});
            lrefs.push_back(r);
          } else {
            src.merge_out.push_back({false, static_cast<int>(rrefs.size())});
            rrefs.push_back(r);
          }
        }
        smj->lpay.assign(lrefs.size(), {});
        smj->rpay.assign(rrefs.size(), {});
        Sink ls;
        ls.kind = Sink::Kind::kSort;
        ls.node_id = n.id;
        ls.smj = smj;
        ls.smj_left = true;
        for (const ColRef& r : m.left_keys) {
          ls.key_cols.push_back(PosOf(*n.left, r));
        }
        for (const ColRef& r : lrefs) {
          ls.payload_cols.push_back(PosOf(*n.left, r));
        }
        CompileInto(*n.left, std::move(ls));
        Sink rs;
        rs.kind = Sink::Kind::kSort;
        rs.node_id = n.id;
        rs.smj = smj;
        rs.smj_left = false;
        for (const ColRef& r : m.right_keys) {
          rs.key_cols.push_back(PosOf(*n.right, r));
        }
        for (const ColRef& r : rrefs) {
          rs.payload_cols.push_back(PosOf(*n.right, r));
        }
        CompileInto(*n.right, std::move(rs));
        return src;
      }
      case PlanOp::kIndexNLJoin: {
        SourceInfo src = Descend(*n.left, stages, pre);
        const int t = n.right->table_idx;
        const Table* inner = tables_[static_cast<size_t>(t)];
        // The tuple engine runs the metadata-only inner pass inside this
        // node's Open(), i.e. after the outer child's Open() — hence
        // after the outer's pre-ops, before any streaming.
        PreOp po;
        po.kind = PreOp::Kind::kIndexMeta;
        po.stat_node = n.right->id;
        po.join_node = n.id;
        po.table = inner;
        po.filters = ResolveFilters(n.right->filter_indices, inner);
        pre->push_back(std::move(po));

        Stage st;
        st.kind = Stage::Kind::kIndexProbe;
        st.node_id = n.id;
        st.inner_table = inner;
        st.inner_filters = ResolveFilters(n.right->filter_indices, inner);
        const JoinPredicate& jp =
            query_.joins()[static_cast<size_t>(n.join_indices[0])];
        const bool inner_is_left = query_.TableIndex(jp.left_table) == t;
        const std::string& inner_col =
            inner_is_left ? jp.left_column : jp.right_column;
        st.index = catalog_.FindIndex(
            query_.tables()[static_cast<size_t>(t)], inner_col);
        RQP_CHECK(st.index != nullptr);
        const ColRef outer_key = (Meta(*n.left).mask >>
                                  Meta(n).left_keys[0].table) &
                                         1
                                     ? Meta(n).left_keys[0]
                                     : Meta(n).right_keys[0];
        st.in_keys.push_back(PosOf(*n.left, outer_key));
        for (const ColRef& r : Meta(n).out_refs) {
          if (r.table == t) {
            st.out_cols.push_back({false, r.col});  // gather from the table
          } else {
            st.out_cols.push_back({true, PosOf(*n.left, r)});
          }
        }
        stages->push_back(std::move(st));
        return src;
      }
    }
    RQP_CHECK(false);
    return {};
  }

  /// Collects the NodeStats ids a pipeline's batches mutate.
  static void FinishPipeline(Pipeline* p) {
    std::vector<int>& t = p->touched;
    t.push_back(p->is_scan ? p->scan.node_id : p->merge->node_id);
    for (const Stage& s : p->stages) t.push_back(s.node_id);
    if (p->sink.node_id >= 0) t.push_back(p->sink.node_id);
    std::sort(t.begin(), t.end());
    t.erase(std::unique(t.begin(), t.end()), t.end());
  }

  const Catalog& catalog_;
  const Query& query_;
  const PlanNode& root_;
  std::vector<NodeMeta> meta_;
  std::vector<const Table*> tables_;
};

// ---------------------------------------------------------------------------
// Execution state
// ---------------------------------------------------------------------------

/// Counting context a bulk step writes into — the main execution state,
/// or one chunk's private partial.
struct WorkCtx {
  CostLedger* ledger = nullptr;
  std::vector<NodeStats>* stats = nullptr;
  int64_t* output_rows = nullptr;
  bool budgeted = false;
  double budget = -1.0;
  const CostParams* params = nullptr;
  /// Physical-only scan pruning switch (Executor::Options::use_zone_maps);
  /// never affects results or counts, only which rows get *evaluated*.
  bool use_zone_maps = true;
  /// Fused filter-on-compressed switch (Executor::Options::use_compression);
  /// like zone maps, purely physical: encoded scans decode-then-filter
  /// when off, with identical survivors and counts.
  bool use_compression = true;
  /// Per-block storage.page_fault degradation bitmap for the current
  /// pipeline's scan table (null when disarmed or not mapped): a faulted
  /// block declines the fused kernels and scans via the resident decode
  /// path — survivors and counts are identical, so this is charged to the
  /// robustness report, never to cost_used. Drawn coordinator-side in
  /// RunBatchEngine and shared read-only by every worker.
  const std::vector<uint8_t>* pf_blocks = nullptr;

  NodeStats& St(int node_id) {
    return (*stats)[static_cast<size_t>(node_id)];
  }
  /// True once the ledger's canonical total exceeds the budget.
  bool Hazard() const {
    return budgeted && ledger->Total(*params) > budget;
  }
  /// Tuple-order charge used by the replay interpreter. Returns false on
  /// the first event whose inclusion makes Total exceed the budget — the
  /// tuple engine's abort event.
  bool Charge(EventCount CostLedger::*counter) {
    ++((*ledger).*counter);
    return !budgeted || ledger->Total(*params) <= budget;
  }
};

/// Per-pipeline-run scratch (one per worker in chunk-parallel mode).
struct Scratch {
  std::vector<int64_t> sel;
  Batch a, b;
  std::vector<double> key;
  std::vector<double> pay;
  kernels::FilterScratch fsc;
  std::vector<int64_t> probe_u;   // hash probe: resolved ordinals
  std::vector<uint64_t> hashes;   // hash probe: hash pass output
  std::vector<int64_t> match_i;   // probe stages: matched probe rows
  std::vector<int64_t> match_e;   // matched entries / inner rows / NLJ pos
  std::vector<double> vals;       // index-NL: gathered inner filter values
  /// Replay row values, one vector per pipeline level.
  std::vector<std::vector<double>> rows;
};

/// Grows `v` to at least `n` entries and never shrinks it, so a scratch
/// vector written by index is not refilled on every sub-range.
void GrowTo(std::vector<int64_t>* v, int64_t n) {
  if (static_cast<int64_t>(v->size()) < n) v->resize(static_cast<size_t>(n));
}

/// Snapshot for budgeted rollback: everything a bulk morsel mutates
/// besides deferred sink data.
struct MorselSnapshot {
  CostLedger ledger;
  std::vector<NodeStats> stats;  // parallel to Pipeline::touched
  SmjState::Cursor cursor{};
  bool merge_eof = false;
};

MorselSnapshot TakeSnapshot(const Pipeline& p, const WorkCtx& ctx) {
  MorselSnapshot s;
  s.ledger = *ctx.ledger;
  for (int id : p.touched) {
    s.stats.push_back((*ctx.stats)[static_cast<size_t>(id)]);
  }
  if (!p.is_scan) {
    s.cursor = p.merge->SaveCursor();
    s.merge_eof = p.merge->eof;
  }
  return s;
}

void RestoreSnapshot(const Pipeline& p, const MorselSnapshot& s, WorkCtx* ctx) {
  *ctx->ledger = s.ledger;
  for (size_t i = 0; i < p.touched.size(); ++i) {
    (*ctx->stats)[static_cast<size_t>(p.touched[i])] = s.stats[i];
  }
  if (!p.is_scan) {
    p.merge->RestoreCursor(s.cursor);
    p.merge->eof = s.merge_eof;
  }
}

// ---------------------------------------------------------------------------
// Pre-ops (uncharged Open()-time work)
// ---------------------------------------------------------------------------

int64_t FilterCascade(const std::vector<Filter>& filters, int64_t r0,
                      int64_t r1, bool use_zones, bool use_fused,
                      NodeStats* st, std::vector<int64_t>* sel,
                      kernels::FilterScratch* fsc, bool* dense);

void RunPreOps(const Pipeline& p, WorkCtx* ctx) {
  for (const PreOp& po : p.pre_ops) {
    NodeStats& st = ctx->St(po.stat_node);
    st.filter_in.assign(po.num_filters ? po.num_filters : po.filters.size(),
                        0);
    st.filter_pass.assign(st.filter_in.size(), 0);
    if (po.kind == PreOp::Kind::kScanFilterStats) continue;
    // kIndexMeta: count the filtered inner cardinality so a completed
    // spill learns the same denominator a hash join would (uncharged).
    // Runs the shared kernel cascade per zone block so clustered inner
    // filters prune without touching the counts.
    NodeStats& jst = ctx->St(po.join_node);
    jst.right_in = 0;
    const int64_t n = po.table->num_rows();
    std::vector<int64_t> sel;
    kernels::FilterScratch fsc;
    for (int64_t r0 = 0; r0 < n; r0 += kZoneBlockRows) {
      const int64_t r1 = std::min<int64_t>(n, r0 + kZoneBlockRows);
      bool dense = false;
      jst.right_in += FilterCascade(po.filters, r0, r1, ctx->use_zone_maps,
                                    ctx->use_compression, &st, &sel, &fsc,
                                    &dense);
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk source: scan morsel -> filter cascade -> gathered batch
// ---------------------------------------------------------------------------

/// Runs the filter cascade over rows [r0, r1) with zone-map block
/// classification and branch-free kernels, accumulating filter_in /
/// filter_pass into `st` exactly as the per-row early-exit loop would
/// (filter k sees the survivors of filters 0..k-1). On return `*dense`
/// means the whole range survived (no selection vector was materialized);
/// otherwise survivors are in `*sel`. Returns the survivor count.
///
/// Pruning never changes the accumulated counts: a kNone block bumps
/// filter_in by the incoming count and filter_pass by zero, a kAll block
/// bumps both by the incoming count — the same totals row-at-a-time
/// evaluation produces, just without touching the rows.
int64_t FilterCascade(const std::vector<Filter>& filters, int64_t r0,
                      int64_t r1, bool use_zones, bool use_fused,
                      NodeStats* st, std::vector<int64_t>* sel,
                      kernels::FilterScratch* fsc, bool* dense) {
  *dense = true;
  int64_t cur = r1 - r0;
  sel->clear();
  for (size_t k = 0; k < filters.size(); ++k) {
    const Filter& f = filters[k];
    // Observed pass rate so far picks the dense vs sparse kernel; it only
    // affects speed, never which rows survive.
    const double est =
        st->filter_in[k] > 0
            ? static_cast<double>(st->filter_pass[k]) /
                  static_cast<double>(st->filter_in[k])
            : 0.5;
    st->filter_in[k] += cur;
    kernels::ZoneMatch zm = kernels::ZoneMatch::kSome;
    if (use_zones && cur > 0) {
      zm = kernels::ClassifyZones(*f.col, f.op, f.value, r0, r1);
    }
    if (zm == kernels::ZoneMatch::kNone) {
      cur = 0;
      *dense = false;
      sel->clear();
    } else if (zm == kernels::ZoneMatch::kAll) {
      // Every row in [r0, r1) passes; the current selection is a subset.
    } else if (*dense) {
      cur = kernels::FilterRange(*f.col, f.op, f.value, r0, r1, est, sel, fsc,
                                 use_fused);
      *dense = false;
    } else {
      cur = kernels::FilterRefine(*f.col, f.op, f.value, sel);
    }
    st->filter_pass[k] += cur;
    if (cur == 0 && !*dense) break;  // later filters see zero inputs
  }
  return *dense ? (r1 - r0) : cur;
}

/// Scans rows [r0, r1), applying filters as kernel cascades; leaves the
/// surviving batch in `out`. Counts scan events and filter stats.
void ScanBulk(const ScanSource& s, int64_t r0, int64_t r1, WorkCtx* ctx,
              Scratch* sc, Batch* out) {
  const int64_t n = r1 - r0;
  NodeStats& st = ctx->St(s.node_id);
  st.left_in += n;
  ctx->ledger->scan_tuple += n;
  out->Reset(s.out_cols.size());
  bool dense = true;
  int64_t cur = n;
  if (!s.filters.empty()) {
    bool fused = ctx->use_compression;
    if (fused && ctx->pf_blocks != nullptr) {
      for (int64_t b = r0 / kZoneBlockRows; b <= (r1 - 1) / kZoneBlockRows;
           ++b) {
        if ((*ctx->pf_blocks)[static_cast<size_t>(b)] != 0) {
          fused = false;
          break;
        }
      }
    }
    cur = FilterCascade(s.filters, r0, r1, ctx->use_zone_maps, fused, &st,
                        &sc->sel, &sc->fsc, &dense);
  }
  st.out += cur;
  out->n = cur;
  for (size_t c = 0; c < s.out_cols.size(); ++c) {
    if (dense) {
      kernels::GatherRange(*s.out_cols[c], r0, r1, &out->cols[c]);
    } else {
      kernels::Gather(*s.out_cols[c], sc->sel.data(), cur, &out->cols[c]);
    }
  }
}

// ---------------------------------------------------------------------------
// Bulk source: SMJ merge stepping
// ---------------------------------------------------------------------------

/// One step of the merge state machine — an exact transcription of the
/// tuple engine's SortMergeJoinOp::Next. `charge` counts one event and
/// returns false on budget exhaustion (always true in bulk mode).
/// Returns 0 with an emitted (li, ri) pair, 1 on eof, 2 on budget abort.
template <typename Charger>
int StepMerge(SmjState* m, NodeStats* st, Charger&& charge, size_t* out_li,
              size_t* out_ri) {
  while (true) {
    if (m->in_group) {
      if (m->emit_ri < m->group_re) {
        if (!charge(&CostLedger::join_output_tuple)) return 2;
        *out_li = m->group_li;
        *out_ri = m->emit_ri++;
        ++st->out;
        return 0;
      }
      ++m->group_li;
      if (m->group_li < m->group_le) {
        m->emit_ri = m->ri;
        continue;
      }
      m->in_group = false;
      m->li = m->group_le;
      m->ri = m->group_re;
    }
    while (m->li < m->lsize && m->ri < m->rsize) {
      const int cmp = m->Compare(m->li, m->ri);
      if (cmp < 0) {
        if (!charge(&CostLedger::merge_tuple)) return 2;
        ++m->li;
      } else if (cmp > 0) {
        if (!charge(&CostLedger::merge_tuple)) return 2;
        ++m->ri;
      } else {
        m->group_le = m->li;
        while (m->group_le < m->lsize && m->Compare(m->group_le, m->ri) == 0) {
          if (!charge(&CostLedger::merge_tuple)) return 2;
          ++m->group_le;
        }
        m->group_re = m->ri;
        while (m->group_re < m->rsize && m->Compare(m->li, m->group_re) == 0) {
          if (!charge(&CostLedger::merge_tuple)) return 2;
          ++m->group_re;
        }
        m->group_li = m->li;
        m->emit_ri = m->ri;
        m->in_group = true;
        break;
      }
    }
    if (!m->in_group) return 1;
  }
}

/// Bulk-generates up to `limit` merge output rows. Returns false when a
/// hazard check tripped (budgeted mode only; caller rolls back).
bool MergeBulk(SmjState* m, const std::vector<MergeOut>& merge_out,
               int64_t limit, WorkCtx* ctx, Batch* out) {
  NodeStats& st = ctx->St(m->node_id);
  out->Reset(merge_out.size());
  auto count = [&](EventCount CostLedger::*counter) {
    ++((*ctx->ledger).*counter);
    return true;
  };
  size_t li = 0, ri = 0;
  while (out->n < limit) {
    const int rc = StepMerge(m, &st, count, &li, &ri);
    if (rc == 1) {
      m->eof = true;
      break;
    }
    for (size_t c = 0; c < merge_out.size(); ++c) {
      out->cols[c].push_back(merge_out[c].from_left
                                 ? m->lpay[static_cast<size_t>(
                                       merge_out[c].idx)][li]
                                 : m->rpay[static_cast<size_t>(
                                       merge_out[c].idx)][ri]);
    }
    ++out->n;
    if (ctx->budgeted && (out->n & 255) == 0 && ctx->Hazard()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Bulk streaming stages
// ---------------------------------------------------------------------------

/// Writes to `pos`, in inner order, the positions of the inner rows of
/// `buf` whose keys equal `key` (one value per join key) and returns their
/// count. Branch-free compaction: the first key column selects from every
/// inner row (all of them when the join has no key), and each further key
/// column narrows the selection.
int64_t NljMatches(const NljBuffer& buf, const double* key, int64_t* pos) {
  const bool keyless = buf.keys.empty();
  int64_t m = 0;
  for (int64_t r = 0; r < buf.n; ++r) {
    pos[m] = r;
    m += keyless || buf.keys[0][static_cast<size_t>(r)] == key[0];
  }
  for (size_t k = 1; k < buf.keys.size(); ++k) {
    const double* col = buf.keys[k].data();
    int64_t kept = 0;
    for (int64_t j = 0; j < m; ++j) {
      pos[kept] = pos[j];
      kept += col[pos[j]] == key[k];
    }
    m = kept;
  }
  return m;
}

/// Appends k rows to every output column of `out` (which holds `at`
/// rows): an input column is read at the matched probe rows, any other
/// column is filled by other_side(column index, destination).
template <typename OtherSide>
void EmitPairs(const Stage& s, const Batch& in, const int64_t* probe,
               int64_t k, int64_t at, Batch* out, OtherSide&& other_side) {
  for (size_t c = 0; c < s.out_cols.size(); ++c) {
    const OutCol& oc = s.out_cols[c];
    std::vector<double>& col = out->cols[c];
    col.resize(static_cast<size_t>(at + k));
    double* dst = col.data() + at;
    if (oc.from_input) {
      const double* src = in.cols[static_cast<size_t>(oc.idx)].data();
      for (int64_t j = 0; j < k; ++j) dst[j] = src[probe[j]];
    } else {
      other_side(oc.idx, dst);
    }
  }
}

/// Runs one stage over a batch. Returns false when a periodic hazard
/// check tripped (budgeted mode only).
bool StageBulk(const Stage& s, const Batch& in, WorkCtx* ctx, Scratch* sc,
               Batch* out) {
  NodeStats& st = ctx->St(s.node_id);
  out->Reset(s.out_cols.size());
  const size_t w = s.out_cols.size();
  int64_t matches = 0;
  int64_t flushed = 0;
  auto flush_outputs = [&]() {
    ctx->ledger->join_output_tuple += matches - flushed;
    flushed = matches;
  };

  switch (s.kind) {
    case Stage::Kind::kHashProbe: {
      // Probe in sub-ranges (the whole batch when unbudgeted): keys
      // row-major into scratch, FindBatch for the sub-range, then a
      // column-major emit — match pairs first, then each output column
      // filled in its own tight gather loop.
      st.right_in += in.n;
      ctx->ledger->hash_probe_tuple += in.n;
      const JoinHashTable* ht = s.ht;
      const size_t kw = s.in_keys.size();
      const int64_t step = ctx->budgeted ? kHashCheckRows : in.n;
      for (int64_t i0 = 0; i0 < in.n; i0 += step) {
        const int64_t m = std::min(in.n - i0, step);
        const double* keys = nullptr;
        if (kw == 1) {
          keys = in.cols[static_cast<size_t>(s.in_keys[0])].data() + i0;
        } else {
          sc->key.resize(static_cast<size_t>(m) * kw);
          for (size_t k = 0; k < kw; ++k) {
            const double* src =
                in.cols[static_cast<size_t>(s.in_keys[k])].data() + i0;
            for (int64_t i = 0; i < m; ++i) {
              sc->key[static_cast<size_t>(i) * kw + k] = src[i];
            }
          }
          keys = sc->key.data();
        }
        sc->probe_u.resize(static_cast<size_t>(m));
        ht->FindBatch(keys, m, sc->probe_u.data(), &sc->hashes);
        sc->match_i.clear();
        sc->match_e.clear();
        for (int64_t i = 0; i < m; ++i) {
          const int64_t u = sc->probe_u[static_cast<size_t>(i)];
          if (u < 0) continue;
          if (w == 0) {
            matches += ht->ChainLen(u);
            continue;
          }
          for (int64_t e = ht->ChainHead(u); e >= 0; e = ht->ChainNext(e)) {
            sc->match_i.push_back(i0 + i);
            sc->match_e.push_back(e);
          }
        }
        if (w > 0) {
          const int64_t k = static_cast<int64_t>(sc->match_i.size());
          EmitPairs(s, in, sc->match_i.data(), k, matches, out,
                    [&](int idx, double* dst) {
                      for (int64_t j = 0; j < k; ++j) {
                        dst[j] = ht->Payload(
                            static_cast<size_t>(idx),
                            sc->match_e[static_cast<size_t>(j)]);
                      }
                    });
          matches += k;
        }
        if (ctx->budgeted) {
          flush_outputs();
          if (ctx->Hazard()) return false;
        }
      }
      break;
    }
    case Stage::Kind::kIndexProbe: {
      // Three passes per sub-range of outer rows:
      //  1. look up every key, charge index_fetch by count and list the
      //     (probe row, inner row) pairs in tuple-engine order;
      //  2. evaluate each inner filter column-at-a-time over the gathered
      //     values, compacting the pairs branch-free;
      //  3. gather each output column at the surviving pairs.
      // A dense index lists its pairs branch-free, at most one per outer
      // row, over sub-ranges of at most kIndexPairRows rows; any other
      // index walks one span per key and closes its sub-range once it has
      // listed about kIndexPairRows pairs. Inner filters are uncharged, so
      // their order and batching never show in the counts.
      st.left_in += in.n;
      ctx->ledger->index_probe += in.n;
      const double* keys =
          in.cols[static_cast<size_t>(s.in_keys[0])].data();
      const HashIndex& index = *s.index;
      const bool count_only = s.inner_filters.empty() && w == 0;
      const int64_t step = ctx->budgeted ? kIndexCheckRows : in.n;
      std::vector<int64_t>& probe = sc->match_i;
      std::vector<int64_t>& inner = sc->match_e;
      for (int64_t i0 = 0; i0 < in.n;) {
        int64_t k = 0;  // listed pairs
        if (index.dense()) {
          const int64_t end = std::min({in.n, i0 + step, i0 + kIndexPairRows});
          GrowTo(&probe, end - i0);
          GrowTo(&inner, end - i0);
          int64_t* p = probe.data();
          int64_t* q = inner.data();
          for (int64_t i = i0; i < end; ++i) {
            const int64_t r = index.DenseRow(static_cast<int64_t>(keys[i]));
            p[k] = i;
            q[k] = r;
            k += r >= 0;
          }
          i0 = end;
        } else {
          const int64_t end = std::min(in.n, i0 + step);
          probe.clear();
          inner.clear();
          for (; i0 < end && k < kIndexPairRows; ++i0) {
            const RowIdSpan span = index.Lookup(static_cast<int64_t>(keys[i0]));
            k += span.size();
            if (count_only) continue;
            probe.insert(probe.end(), static_cast<size_t>(span.size()), i0);
            inner.insert(inner.end(), span.begin(), span.end());
          }
        }
        ctx->ledger->index_fetch += k;
        for (const Filter& f : s.inner_filters) {
          if (k == 0) break;
          sc->vals.resize(static_cast<size_t>(k));
          kernels::GatherInto(*f.col, inner.data(), k, sc->vals.data());
          k = kernels::CompactWhere(sc->vals.data(), f.op, f.value, k,
                                    probe.data(), inner.data());
        }
        if (!count_only) {
          EmitPairs(s, in, probe.data(), k, matches, out,
                    [&](int idx, double* dst) {
                      kernels::GatherInto(s.inner_table->column(idx),
                                          inner.data(), k, dst);
                    });
        }
        matches += k;
        if (ctx->budgeted) {
          flush_outputs();
          if (ctx->Hazard()) return false;
        }
      }
      break;
    }
    case Stage::Kind::kNlj: {
      // Per sub-range of outer rows (kNljCheckRows when budgeted, the
      // whole batch otherwise): list every outer row's (probe row, inner
      // position) pairs with NljMatches, then emit them column-major.
      st.left_in += in.n;  // uncharged, as in the tuple engine
      const NljBuffer& buf = *s.nlj;
      const int64_t step = ctx->budgeted ? kNljCheckRows : in.n;
      std::vector<int64_t>& probe = sc->match_i;
      std::vector<int64_t>& inner = sc->match_e;
      for (int64_t i0 = 0; i0 < in.n; i0 += step) {
        const int64_t end = std::min(in.n, i0 + step);
        ctx->ledger->nlj_pair += buf.n * (end - i0);
        int64_t k = 0;  // listed pairs
        for (int64_t i = i0; i < end; ++i) {
          sc->key.clear();
          for (int kp : s.in_keys) {
            sc->key.push_back(
                in.cols[static_cast<size_t>(kp)][static_cast<size_t>(i)]);
          }
          // Without output columns only the count is kept, so every row
          // lists its matches at the front.
          const int64_t at = w > 0 ? k : 0;
          GrowTo(&inner, at + buf.n);
          const int64_t m = NljMatches(buf, sc->key.data(), inner.data() + at);
          if (w > 0) {
            GrowTo(&probe, k + m);
            std::fill_n(probe.data() + k, m, i);
          }
          k += m;
        }
        if (w > 0) {
          EmitPairs(s, in, probe.data(), k, matches, out,
                    [&](int idx, double* dst) {
                      const double* src =
                          buf.pay[static_cast<size_t>(idx)].data();
                      const int64_t* pos = inner.data();
                      for (int64_t j = 0; j < k; ++j) dst[j] = src[pos[j]];
                    });
        }
        matches += k;
        if (ctx->budgeted) {
          flush_outputs();
          if (ctx->Hazard()) return false;
        }
      }
      break;
    }
  }
  flush_outputs();
  st.out += matches;
  out->n = matches;
  return true;
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Bulk event counts for `n` rows arriving at the sink.
void SinkCounts(const Sink& s, int64_t n, WorkCtx* ctx) {
  switch (s.kind) {
    case Sink::Kind::kRoot:
      break;  // uncharged; output_rows is a data effect
    case Sink::Kind::kHashBuild:
      ctx->St(s.node_id).left_in += n;
      ctx->ledger->hash_build_tuple += n;
      break;
    case Sink::Kind::kNljMaterialize:
      ctx->St(s.node_id).right_in += n;
      ctx->ledger->nlj_materialize_tuple += n;
      break;
    case Sink::Kind::kSort: {
      NodeStats& st = ctx->St(s.node_id);
      (s.smj_left ? st.left_in : st.right_in) += n;
      ctx->ledger->sort_tuple += n;
      break;
    }
  }
}

/// Applies the sink's data effects for a committed batch.
void SinkApply(const Sink& s, const Batch& b, WorkCtx* ctx, Scratch* sc) {
  switch (s.kind) {
    case Sink::Kind::kRoot:
      *ctx->output_rows += b.n;
      break;
    case Sink::Kind::kHashBuild: {
      sc->key.resize(s.key_cols.size());
      std::vector<double>& pay = sc->pay;
      pay.resize(s.payload_cols.size());
      for (int64_t i = 0; i < b.n; ++i) {
        for (size_t k = 0; k < s.key_cols.size(); ++k) {
          sc->key[k] = b.cols[static_cast<size_t>(s.key_cols[k])]
                             [static_cast<size_t>(i)];
        }
        for (size_t c = 0; c < s.payload_cols.size(); ++c) {
          pay[c] = b.cols[static_cast<size_t>(s.payload_cols[c])]
                         [static_cast<size_t>(i)];
        }
        s.ht->Insert(sc->key.data(), pay.data());
      }
      break;
    }
    case Sink::Kind::kNljMaterialize: {
      for (size_t k = 0; k < s.key_cols.size(); ++k) {
        const auto& src = b.cols[static_cast<size_t>(s.key_cols[k])];
        s.nlj->keys[k].insert(s.nlj->keys[k].end(), src.begin(), src.end());
      }
      for (size_t c = 0; c < s.payload_cols.size(); ++c) {
        const auto& src = b.cols[static_cast<size_t>(s.payload_cols[c])];
        s.nlj->pay[c].insert(s.nlj->pay[c].end(), src.begin(), src.end());
      }
      s.nlj->n += b.n;
      break;
    }
    case Sink::Kind::kSort: {
      auto& keys = s.smj_left ? s.smj->lkeys : s.smj->rkeys;
      auto& pay = s.smj_left ? s.smj->lpay : s.smj->rpay;
      for (size_t k = 0; k < s.key_cols.size(); ++k) {
        const auto& src = b.cols[static_cast<size_t>(s.key_cols[k])];
        keys[k].insert(keys[k].end(), src.begin(), src.end());
      }
      for (size_t c = 0; c < s.payload_cols.size(); ++c) {
        const auto& src = b.cols[static_cast<size_t>(s.payload_cols[c])];
        pay[c].insert(pay[c].end(), src.begin(), src.end());
      }
      (s.smj_left ? s.smj->lsize : s.smj->rsize) +=
          static_cast<size_t>(b.n);
      break;
    }
  }
}

/// End-of-pipeline work: the sort sink charges its super-linear
/// remainder (one `extra` event, exactly as the tuple engine's
/// DrainAndSort) and stable-argsorts its buffer.
Status FinishSink(const Sink& s, const CostModel& cm, WorkCtx* ctx) {
  if (s.kind != Sink::Kind::kSort) return Status::OK();
  auto& keys = s.smj_left ? s.smj->lkeys : s.smj->rkeys;
  auto& pay = s.smj_left ? s.smj->lpay : s.smj->rpay;
  const size_t n = s.smj_left ? s.smj->lsize : s.smj->rsize;
  const double remainder =
      CostModel::SortTerm(static_cast<double>(n)) - static_cast<double>(n);
  if (remainder > 0.0) {
    ctx->ledger->extra += cm.params().sort_tuple * remainder;
    if (ctx->budgeted && ctx->ledger->Total(*ctx->params) > ctx->budget) {
      return Status::BudgetExhausted("sort");
    }
  }
  // Stable argsort on keys only — the same comparator and stability as
  // the tuple engine's stable_sort, so equal-key permutations match.
  std::vector<int64_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t a, int64_t b) {
    for (const auto& kc : keys) {
      if (kc[static_cast<size_t>(a)] != kc[static_cast<size_t>(b)]) {
        return kc[static_cast<size_t>(a)] < kc[static_cast<size_t>(b)];
      }
    }
    return false;
  });
  auto apply = [&](std::vector<double>* col) {
    std::vector<double> tmp(n);
    for (size_t i = 0; i < n; ++i) {
      tmp[i] = (*col)[static_cast<size_t>(idx[i])];
    }
    *col = std::move(tmp);
  };
  for (auto& kc : keys) apply(&kc);
  for (auto& pc : pay) apply(&pc);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Tuple-order replay: when a bulk morsel crosses the budget, the morsel
// is rolled back and re-run row-by-row in the tuple engine's exact
// depth-first event order (source event → stages per emitted row → sink
// event, stat bump before charge), stopping at the first failing event.
// Replay never applies sink data — execution is aborting.
// ---------------------------------------------------------------------------

/// Pushes one row into stage `si` (or the sink). Returns false on budget
/// exhaustion.
bool ReplayPush(const Pipeline& p, size_t si, WorkCtx* ctx, Scratch* sc) {
  if (si == p.stages.size()) {
    switch (p.sink.kind) {
      case Sink::Kind::kRoot:
        ++*ctx->output_rows;
        return true;
      case Sink::Kind::kHashBuild:
        ++ctx->St(p.sink.node_id).left_in;
        return ctx->Charge(&CostLedger::hash_build_tuple);
      case Sink::Kind::kNljMaterialize:
        ++ctx->St(p.sink.node_id).right_in;
        return ctx->Charge(&CostLedger::nlj_materialize_tuple);
      case Sink::Kind::kSort: {
        NodeStats& st = ctx->St(p.sink.node_id);
        ++(p.sink.smj_left ? st.left_in : st.right_in);
        return ctx->Charge(&CostLedger::sort_tuple);
      }
    }
    return true;
  }
  const Stage& s = p.stages[si];
  const std::vector<double>& row = sc->rows[si];
  std::vector<double>& out_row = sc->rows[si + 1];
  out_row.resize(s.out_cols.size());
  NodeStats& st = ctx->St(s.node_id);
  switch (s.kind) {
    case Stage::Kind::kHashProbe: {
      ++st.right_in;
      if (!ctx->Charge(&CostLedger::hash_probe_tuple)) return false;
      sc->key.clear();
      for (int kp : s.in_keys) sc->key.push_back(row[static_cast<size_t>(kp)]);
      const int64_t u = s.ht->Find(sc->key.data());
      if (u < 0) return true;
      for (int64_t e = s.ht->ChainHead(u); e >= 0; e = s.ht->ChainNext(e)) {
        if (!ctx->Charge(&CostLedger::join_output_tuple)) return false;
        for (size_t c = 0; c < s.out_cols.size(); ++c) {
          const OutCol& oc = s.out_cols[c];
          out_row[c] = oc.from_input
                           ? row[static_cast<size_t>(oc.idx)]
                           : s.ht->Payload(static_cast<size_t>(oc.idx), e);
        }
        ++st.out;
        if (!ReplayPush(p, si + 1, ctx, sc)) return false;
      }
      return true;
    }
    case Stage::Kind::kIndexProbe: {
      ++st.left_in;
      if (!ctx->Charge(&CostLedger::index_probe)) return false;
      const double key = row[static_cast<size_t>(s.in_keys[0])];
      const RowIdSpan m = s.index->Lookup(static_cast<int64_t>(key));
      if (m.empty()) return true;
      for (int64_t r : m) {
        if (!ctx->Charge(&CostLedger::index_fetch)) return false;
        bool pass = true;
        for (const Filter& f : s.inner_filters) {
          if (!EvalFilter(f, r)) {
            pass = false;
            break;
          }
        }
        if (!pass) continue;
        if (!ctx->Charge(&CostLedger::join_output_tuple)) return false;
        for (size_t c = 0; c < s.out_cols.size(); ++c) {
          const OutCol& oc = s.out_cols[c];
          out_row[c] = oc.from_input
                           ? row[static_cast<size_t>(oc.idx)]
                           : s.inner_table->column(oc.idx).GetNumeric(r);
        }
        ++st.out;
        if (!ReplayPush(p, si + 1, ctx, sc)) return false;
      }
      return true;
    }
    case Stage::Kind::kNlj: {
      ++st.left_in;  // uncharged
      const NljBuffer* buf = s.nlj;
      for (int64_t r = 0; r < buf->n; ++r) {
        if (!ctx->Charge(&CostLedger::nlj_pair)) return false;
        bool match = true;
        for (size_t k = 0; k < buf->keys.size(); ++k) {
          if (row[static_cast<size_t>(s.in_keys[k])] !=
              buf->keys[k][static_cast<size_t>(r)]) {
            match = false;
            break;
          }
        }
        if (!match) continue;
        if (!ctx->Charge(&CostLedger::join_output_tuple)) return false;
        for (size_t c = 0; c < s.out_cols.size(); ++c) {
          const OutCol& oc = s.out_cols[c];
          out_row[c] = oc.from_input
                           ? row[static_cast<size_t>(oc.idx)]
                           : buf->pay[static_cast<size_t>(oc.idx)]
                                     [static_cast<size_t>(r)];
        }
        ++st.out;
        if (!ReplayPush(p, si + 1, ctx, sc)) return false;
      }
      return true;
    }
  }
  return true;
}

void PrepareReplayRows(const Pipeline& p, Scratch* sc) {
  sc->rows.assign(p.stages.size() + 1, {});
  sc->rows[0].resize(p.is_scan ? p.scan.out_cols.size()
                               : p.merge_out.size());
}

/// Replays scan rows [r0, r1); must abort (the bulk total exceeded the
/// budget, and replay counts the identical event multiset).
Status ReplayScanMorsel(const Pipeline& p, int64_t r0, int64_t r1,
                        WorkCtx* ctx, Scratch* sc) {
  PrepareReplayRows(p, sc);
  const ScanSource& s = p.scan;
  NodeStats& st = ctx->St(s.node_id);
  // Block-exact pruned replay: when the zone maps prove filters 0..j-1
  // pass every row of [r0, r1) and filter j rejects every row, each
  // replayed row produces the identical event pattern — one scan_tuple
  // charge, filters 0..j reached, filters 0..j-1 passed, nothing beyond —
  // so the abort row is the smallest m whose cumulative scan charge
  // pushes the canonical total past the budget, found by binary search
  // without evaluating a single row. Slack-sized morsels never cross a
  // kBatchRows-aligned position, so each sits inside one 4096-row block
  // and this is the common shape for pruned scans; any undecided (kSome)
  // filter falls through to the row-at-a-time loop.
  if (ctx->use_zone_maps && !s.filters.empty()) {
    size_t j = 0;
    kernels::ZoneMatch zm = kernels::ZoneMatch::kAll;
    while (j < s.filters.size()) {
      const Filter& f = s.filters[j];
      zm = kernels::ClassifyZones(*f.col, f.op, f.value, r0, r1);
      if (zm != kernels::ZoneMatch::kAll) break;
      ++j;
    }
    if (j < s.filters.size() && zm == kernels::ZoneMatch::kNone) {
      const int64_t n = r1 - r0;
      const auto exceeds = [&](int64_t m) {
        CostLedger probe = *ctx->ledger;
        probe.scan_tuple += m;
        return probe.Total(*ctx->params) > ctx->budget;
      };
      // The bulk pass for this morsel charged exactly n scan_tuple events
      // (the cascade emptied the batch, so no stage or sink event fired)
      // and tripped the hazard, so the abort row exists within [1, n].
      RQP_CHECK(exceeds(n));
      int64_t lo = 1, hi = n;
      while (lo < hi) {
        const int64_t mid = lo + (hi - lo) / 2;
        if (exceeds(mid)) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      // Row-at-a-time bookkeeping for m rows: the aborting row charges
      // its scan event but never reaches the filter cascade.
      ctx->ledger->scan_tuple += lo;
      st.left_in += lo;
      for (size_t k = 0; k <= j; ++k) st.filter_in[k] += lo - 1;
      for (size_t k = 0; k < j; ++k) st.filter_pass[k] += lo - 1;
      return Status::BudgetExhausted("scan");
    }
  }
  for (int64_t r = r0; r < r1; ++r) {
    ++st.left_in;
    if (!ctx->Charge(&CostLedger::scan_tuple)) {
      return Status::BudgetExhausted("scan");
    }
    bool pass = true;
    for (size_t k = 0; k < s.filters.size(); ++k) {
      ++st.filter_in[k];
      if (!EvalFilter(s.filters[k], r)) {
        pass = false;
        break;
      }
      ++st.filter_pass[k];
    }
    if (!pass) continue;
    ++st.out;
    for (size_t c = 0; c < s.out_cols.size(); ++c) {
      sc->rows[0][c] = s.out_cols[c]->GetNumeric(r);
    }
    if (!ReplayPush(p, 0, ctx, sc)) {
      return Status::BudgetExhausted("batch replay");
    }
  }
  RQP_CHECK(false);  // unreachable: the morsel's total exceeds the budget
  return Status::OK();
}

/// Replays merge output rows from the restored cursor; must abort.
Status ReplayMergeBatch(const Pipeline& p, WorkCtx* ctx, Scratch* sc) {
  PrepareReplayRows(p, sc);
  SmjState* m = p.merge;
  NodeStats& st = ctx->St(m->node_id);
  auto charge = [&](EventCount CostLedger::*counter) {
    return ctx->Charge(counter);
  };
  while (true) {
    size_t li = 0, ri = 0;
    const int rc = StepMerge(m, &st, charge, &li, &ri);
    if (rc == 2) return Status::BudgetExhausted("merge");
    RQP_CHECK(rc == 0);  // eof unreachable: total exceeds budget
    for (size_t c = 0; c < p.merge_out.size(); ++c) {
      sc->rows[0][c] =
          p.merge_out[c].from_left
              ? m->lpay[static_cast<size_t>(p.merge_out[c].idx)][li]
              : m->rpay[static_cast<size_t>(p.merge_out[c].idx)][ri];
    }
    if (!ReplayPush(p, 0, ctx, sc)) {
      return Status::BudgetExhausted("batch replay");
    }
  }
}

// ---------------------------------------------------------------------------
// Pipeline drivers
// ---------------------------------------------------------------------------

/// Runs one already-generated source batch through the stages and counts
/// the sink arrivals. Returns false on a hazard bail (budgeted only).
/// On success `**sink_batch` points at the sink-level batch.
bool StagesBulk(const Pipeline& p, Batch* src, WorkCtx* ctx, Scratch* sc,
                Batch** sink_batch) {
  Batch* cur = src;
  Batch* spare = (src == &sc->a) ? &sc->b : &sc->a;
  for (const Stage& s : p.stages) {
    if (!StageBulk(s, *cur, ctx, sc, spare)) return false;
    std::swap(cur, spare);
  }
  SinkCounts(p.sink, cur->n, ctx);
  *sink_batch = cur;
  return true;
}

/// Sizes the morsels of a budgeted sequential pipeline so that the one
/// crossing the budget, the only one replayed tuple-at-a-time, is small:
///  * widths start at kFirstMorselRows and double up to kBatchRows;
///  * once rows have committed, a morsel is capped at half the rows the
///    remaining slack pays for at the pipeline's observed cost per
///    committed row, so near the budget morsels shrink to one row;
///  * no morsel crosses a kBatchRows-aligned position, so a scan morsel
///    stays inside one zone block.
/// Positions count source rows (scan) or merge output rows (merge).
/// Sizing is physical only: every count is order-independent and sink
/// data is applied in row order, so results never depend on it.
class MorselSizer {
 public:
  explicit MorselSizer(const WorkCtx& ctx)
      : start_total_(ctx.ledger->Total(*ctx.params)) {}

  /// Rows of the next morsel, which starts at position `pos`.
  int64_t Next(int64_t pos, const WorkCtx& ctx) const {
    int64_t rows = std::min(width_, kBatchRows - pos % kBatchRows);
    if (committed_ > 0) {
      const double total = ctx.ledger->Total(*ctx.params);
      const double per_row =
          (total - start_total_) / static_cast<double>(committed_);
      if (per_row > 0.0) {
        const double half = (ctx.budget - total) / per_row / 2.0;
        if (half < static_cast<double>(rows)) {
          rows = std::max<int64_t>(1, static_cast<int64_t>(half));
        }
      }
    }
    return rows;
  }

  void Commit(int64_t rows) {
    committed_ += rows;
    width_ = std::min(kBatchRows, 2 * width_);
  }

 private:
  const double start_total_;
  int64_t committed_ = 0;
  int64_t width_ = kFirstMorselRows;
};

/// Sequential driver for budgeted scan pipelines (snapshot / rollback /
/// replay over slack-sized morsels) and for every merge pipeline,
/// budgeted or not.
Status RunPipelineSequential(const Pipeline& p, const CostModel& cm,
                             WorkCtx* ctx, Scratch* sc) {
  RunPreOps(p, ctx);
  MorselSizer sizer(*ctx);
  if (p.is_scan) {
    const int64_t n = p.scan.table->num_rows();
    for (int64_t r0 = 0; r0 < n;) {
      const int64_t r1 = std::min(n, r0 + sizer.Next(r0, *ctx));
      const MorselSnapshot snap = TakeSnapshot(p, *ctx);
      ScanBulk(p.scan, r0, r1, ctx, sc, &sc->a);
      Batch* out = nullptr;
      const bool ok = StagesBulk(p, &sc->a, ctx, sc, &out);
      if (ok && !ctx->Hazard()) {
        SinkApply(p.sink, *out, ctx, sc);
        sizer.Commit(r1 - r0);
        r0 = r1;
        continue;
      }
      RestoreSnapshot(p, snap, ctx);
      return ReplayScanMorsel(p, r0, r1, ctx, sc);
    }
  } else {
    int64_t emitted = 0;
    while (!p.merge->eof) {
      if (!ctx->budgeted) {
        MergeBulk(p.merge, p.merge_out, kBatchRows, ctx, &sc->a);
        if (sc->a.n == 0 && p.merge->eof) break;
        Batch* out = nullptr;
        StagesBulk(p, &sc->a, ctx, sc, &out);
        SinkApply(p.sink, *out, ctx, sc);
        continue;
      }
      const MorselSnapshot snap = TakeSnapshot(p, *ctx);
      bool ok = MergeBulk(p.merge, p.merge_out, sizer.Next(emitted, *ctx),
                          ctx, &sc->a);
      const int64_t rows = sc->a.n;  // the stages may reuse sc->a
      Batch* out = nullptr;
      if (ok) ok = StagesBulk(p, &sc->a, ctx, sc, &out);
      if (ok && !ctx->Hazard()) {
        if (out != nullptr) SinkApply(p.sink, *out, ctx, sc);
        sizer.Commit(rows);
        emitted += rows;
        continue;
      }
      RestoreSnapshot(p, snap, ctx);
      return ReplayMergeBatch(p, ctx, sc);
    }
  }
  return FinishSink(p.sink, cm, ctx);
}

// ---------------------------------------------------------------------------
// Chunk driver: every unbudgeted scan pipeline — full runs, spill runs
// with budget < 0, and serial-degraded runs. Budgeted executions and
// merge pipelines stay on RunPipelineSequential, single-threaded: an
// abort must land on one well-defined tuple, and the paper's learning
// primitive depends on that.
//
// The table's chunks (kShardChunkRows rows, block-aligned) run in three
// steps:
//
//  1. Classify. The coordinator classifies each chunk against the scan's
//     filter cascade from the chunk zone summaries. A chunk is pruned only
//     when filters 0..j-1 classify kAll and filter j classifies kNone over
//     the entire chunk; the gather then charges exactly what per-batch
//     evaluation charges for that shape (one scan_tuple per row, filters
//     0..j reached, 0..j-1 passed, nothing downstream), so pruning stays
//     cost-invisible while skipping the rows and the batch machinery.
//  2. Run. Every other chunk counts into a private partial (ledger,
//     NodeStats). With a pool the chunk is the unit of parallelism and
//     its sink rows are buffered in the partial; without one a plain loop
//     runs the chunks and applies sink rows as they arrive, so a serial
//     run's memory does not grow with the table.
//  3. Gather. Partials merge in ascending chunk order (== row order), so
//     the global row order, every integer count, and therefore cost_used
//     are bit-identical at any (thread count x shard count), and to the
//     tuple engine.
//
// A shard is only the label ShardOfChunk(c, num_shards). When
// num_shards > 1 and the injector is armed, the coordinator draws
// shard.straggler once per shard and shard.lost_chunk once per chunk, in
// fixed index order *before* any chunk runs — never inside workers — so
// the draw sequence is schedule-independent. Recovery always succeeds and
// is charged into cost_used, keeping MSO accounting valid: a lost chunk's
// doomed primary is physically executed and discarded, the chunk
// re-executed on a "replica" (fraction u of the primary's cost charged
// for transients, all of it for permanents); a straggling shard is
// speculatively re-dispatched, charging the duplicate fraction of the
// shard's cost. Cost-spike draws surcharge without re-execution; corrupt
// draws are no-ops (these sites produce no statistics).
// ---------------------------------------------------------------------------

/// One chunk's private partial.
struct ChunkOut {
  CostLedger ledger;
  std::vector<NodeStats> stats;
  int64_t output_rows = 0;
  Batch sink;               // buffered sink rows (pool mode only)
  double fault_cost = 0.0;  // charged for lost / spiked work
  bool lost = false;
  bool spiked = false;
};

/// Runs chunk `c` through the pipeline, counting into `co`. With `buffer`
/// the sink rows are appended to co->sink (a worker must not touch the
/// shared sink); otherwise they are applied as each batch arrives.
void RunChunk(const Pipeline& p, const WorkCtx& parent, int num_nodes,
              int64_t c, bool buffer, ChunkOut* co, Scratch* sc) {
  co->ledger = CostLedger{};
  co->output_rows = 0;
  co->sink = Batch{};
  co->stats.assign(static_cast<size_t>(num_nodes), NodeStats{});
  NodeStats& sst = co->stats[static_cast<size_t>(p.scan.node_id)];
  sst.filter_in.assign(p.scan.filters.size(), 0);
  sst.filter_pass.assign(p.scan.filters.size(), 0);
  WorkCtx cctx = parent;
  cctx.ledger = &co->ledger;
  cctx.stats = &co->stats;
  cctx.output_rows = &co->output_rows;
  const int64_t e = shard::ChunkEnd(c, p.scan.table->num_rows());
  for (int64_t r0 = shard::ChunkBegin(c); r0 < e; r0 += kBatchRows) {
    const int64_t r1 = std::min<int64_t>(e, r0 + kBatchRows);
    ScanBulk(p.scan, r0, r1, &cctx, sc, &sc->a);
    Batch* out = nullptr;
    StagesBulk(p, &sc->a, &cctx, sc, &out);
    if (!buffer || p.sink.kind == Sink::Kind::kRoot) {
      SinkApply(p.sink, *out, &cctx, sc);
      continue;
    }
    if (co->sink.cols.empty()) co->sink.Reset(out->cols.size());
    for (size_t k = 0; k < out->cols.size(); ++k) {
      co->sink.cols[k].insert(co->sink.cols[k].end(), out->cols[k].begin(),
                              out->cols[k].end());
    }
    co->sink.n += out->n;
  }
}

Status RunPipelineChunked(const Pipeline& p, const CostModel& cm, WorkCtx* ctx,
                          Scratch* sc, ThreadPool* pool, int num_shards,
                          int num_nodes, shard::ShardReport* srep,
                          RobustnessReport* rob) {
  RunPreOps(p, ctx);
  const int64_t n = p.scan.table->num_rows();
  const int64_t chunks = shard::ChunkCount(n);
  const CostParams& params = *ctx->params;
  const bool sharded = num_shards > 1 && chunks > 0;

  // Step 1: prune_j[c] is the first filter the chunk summary proves
  // rejects every row, with all earlier filters proven to pass every
  // row; -1 means run the chunk.
  std::vector<int> prune_j(static_cast<size_t>(chunks), -1);
  if (ctx->use_zone_maps) {
    for (int64_t c = 0; c < chunks; ++c) {
      for (size_t k = 0; k < p.scan.filters.size(); ++k) {
        const Filter& f = p.scan.filters[k];
        const shard::ChunkMatch m =
            shard::ClassifyChunk(*f.col, f.op, f.value, c);
        if (m == shard::ChunkMatch::kNone) {
          prune_j[static_cast<size_t>(c)] = static_cast<int>(k);
          break;
        }
        if (m != shard::ChunkMatch::kAll) break;
      }
    }
  }

  // Shard fault draws in fixed (site, index) order on the coordinator.
  // Drawn for every chunk — pruned or not — so the sequence is invariant
  // across zone-map settings; a fired draw charges off the chunk's
  // ledger total, which pruning does not change (cost invisibility).
  const size_t shard_slots = sharded ? static_cast<size_t>(num_shards) : 0;
  std::vector<FaultAction> straggle(shard_slots);
  std::vector<FaultAction> lost(static_cast<size_t>(chunks));
  if (sharded && FaultInjector::Armed()) {
    FaultInjector& inj = FaultInjector::Current();
    for (FaultAction& a : straggle) {
      a = inj.Evaluate(fault_site::kShardStraggler);
    }
    for (FaultAction& a : lost) a = inj.Evaluate(fault_site::kShardLostChunk);
  }

  // Step 2 for one chunk, lost-chunk recovery included.
  const auto execute = [&](int64_t c, bool buffer, ChunkOut* co,
                           Scratch* wsc) {
    const FaultAction la = lost[static_cast<size_t>(c)];
    co->fault_cost = 0.0;
    co->lost = la.kind == FaultKind::kTransient ||
               la.kind == FaultKind::kPermanent;
    co->spiked = la.kind == FaultKind::kCostSpike;
    if (co->lost) {
      // Doomed primary: execute (buffered, so the shared sink never sees
      // it), charge the lost fraction, discard. The committed partial
      // below is the replica's re-execution.
      RunChunk(p, *ctx, num_nodes, c, /*buffer=*/true, co, wsc);
      co->fault_cost = (la.kind == FaultKind::kTransient ? la.u : 1.0) *
                       co->ledger.Total(params);
    }
    RunChunk(p, *ctx, num_nodes, c, buffer, co, wsc);
    if (co->spiked) {
      co->fault_cost = (la.magnitude - 1.0) * co->ledger.Total(params);
    }
  };

  // Step 3 for one chunk: merge its partial (or charge its prune).
  std::vector<double> shard_cost(shard_slots, 0.0);
  const auto gather = [&](int64_t c, const ChunkOut& co) {
    const int j = prune_j[static_cast<size_t>(c)];
    double chunk_cost = 0.0;
    if (j >= 0) {
      const int64_t rows = shard::ChunkEnd(c, n) - shard::ChunkBegin(c);
      NodeStats& st = ctx->St(p.scan.node_id);
      st.left_in += rows;
      ctx->ledger->scan_tuple += rows;
      for (size_t k = 0; k <= static_cast<size_t>(j); ++k) {
        st.filter_in[k] += rows;
        if (k < static_cast<size_t>(j)) st.filter_pass[k] += rows;
      }
      ++srep->chunks_pruned;
      CostLedger probe;
      probe.scan_tuple += rows;
      chunk_cost = probe.Total(params);
    } else {
      ctx->ledger->Merge(co.ledger);
      *ctx->output_rows += co.output_rows;
      for (int id : p.touched) {
        NodeStats& dst = ctx->St(id);
        const NodeStats& src = co.stats[static_cast<size_t>(id)];
        dst.left_in += src.left_in;
        dst.right_in += src.right_in;
        dst.out += src.out;
        for (size_t k = 0; k < src.filter_in.size(); ++k) {
          dst.filter_in[k] += src.filter_in[k];
          dst.filter_pass[k] += src.filter_pass[k];
        }
      }
      if (co.sink.n > 0) SinkApply(p.sink, co.sink, ctx, sc);
      ++srep->chunks_scanned;
      chunk_cost = co.ledger.Total(params);
      if (co.lost) {
        ++srep->lost_chunks;
        ++rob->shard_lost_chunks;
        srep->retried_cost += co.fault_cost;
        rob->retried_cost += co.fault_cost;
      } else if (co.spiked) {
        ++rob->cost_spikes;
        rob->spike_cost += co.fault_cost;
      }
    }
    if (sharded) {
      shard_cost[static_cast<size_t>(shard::ShardOfChunk(c, num_shards))] +=
          chunk_cost;
    }
  };

  srep->chunks_total += chunks;
  std::vector<int64_t> live;
  for (int64_t c = 0; c < chunks; ++c) {
    if (prune_j[static_cast<size_t>(c)] < 0) live.push_back(c);
  }
  if (pool != nullptr && pool->num_threads() > 1 && live.size() > 1) {
    // Partials are private to their chunk, so the ParallelFor barrier is
    // the only synchronization.
    std::vector<ChunkOut> outs(static_cast<size_t>(chunks));
    const Status st = ParallelFor(
        pool, static_cast<int64_t>(live.size()),
        [&](int /*worker*/, int64_t begin, int64_t end) {
          Scratch wsc;
          for (int64_t i = begin; i < end; ++i) {
            const int64_t c = live[static_cast<size_t>(i)];
            execute(c, /*buffer=*/true, &outs[static_cast<size_t>(c)], &wsc);
          }
        });
    if (!st.ok()) return st;
    for (int64_t c = 0; c < chunks; ++c) {
      gather(c, outs[static_cast<size_t>(c)]);
    }
  } else {
    ChunkOut co;
    for (int64_t c = 0; c < chunks; ++c) {
      if (prune_j[static_cast<size_t>(c)] < 0) {
        execute(c, /*buffer=*/false, &co, sc);
      }
      gather(c, co);
    }
  }

  // Straggler recovery: a straggling shard's work is speculatively
  // re-dispatched; the duplicate fraction of its (clean) cost is charged.
  if (sharded) {
    if (srep->shard_cost.size() < static_cast<size_t>(num_shards)) {
      srep->shard_cost.resize(static_cast<size_t>(num_shards), 0.0);
    }
    for (int s = 0; s < num_shards; ++s) {
      const FaultAction sa = straggle[static_cast<size_t>(s)];
      const double scost = shard_cost[static_cast<size_t>(s)];
      if (sa.kind == FaultKind::kTransient ||
          sa.kind == FaultKind::kPermanent) {
        const double dup =
            (sa.kind == FaultKind::kTransient ? sa.u : 1.0) * scost;
        ++srep->straggler_retries;
        ++rob->shard_stragglers;
        srep->retried_cost += dup;
        rob->retried_cost += dup;
      } else if (sa.kind == FaultKind::kCostSpike) {
        ++rob->cost_spikes;
        rob->spike_cost += (sa.magnitude - 1.0) * scost;
      }
      srep->shard_cost[static_cast<size_t>(s)] += scost;
    }
  }
  return FinishSink(p.sink, cm, ctx);
}

}  // namespace

Result<ExecutionResult> RunBatchEngine(const Catalog& catalog,
                                       const Plan& plan, const PlanNode& root,
                                       const CostModel& cost_model,
                                       double budget, ThreadPool* pool,
                                       bool use_zone_maps,
                                       bool use_compression, int num_shards) {
  ExecutionResult result;
  result.node_stats.assign(static_cast<size_t>(plan.num_nodes()), NodeStats{});
  num_shards = std::max(1, num_shards);
  result.shard.num_shards = num_shards;

  Compiler compiler(catalog, plan.query(), root, plan.num_nodes());
  compiler.Compile();

  CostLedger ledger;
  int64_t output_rows = 0;
  WorkCtx ctx;
  ctx.ledger = &ledger;
  ctx.stats = &result.node_stats;
  ctx.output_rows = &output_rows;
  ctx.budgeted = budget >= 0.0;
  ctx.budget = budget;
  ctx.params = &cost_model.params();
  ctx.use_zone_maps = use_zone_maps;
  ctx.use_compression = use_compression;

  // storage.page_fault draws: coordinator-side, in fixed (pipeline, block)
  // ascending order — independent of engine knobs, thread count and shard
  // layout — for every scan pipeline whose table is mapped. A fired draw
  // degrades that block from the fused kernels to the resident decode path
  // (count- and cost-identical) and is charged to the robustness report.
  std::vector<std::vector<uint8_t>> pf(compiler.pipelines.size());
  if (FaultInjector::Armed()) {
    FaultInjector& inj = FaultInjector::Current();
    for (size_t pi = 0; pi < compiler.pipelines.size(); ++pi) {
      const Pipeline& p = compiler.pipelines[pi];
      if (!p.is_scan || p.scan.table == nullptr ||
          !p.scan.table->IsMapped()) {
        continue;
      }
      const int64_t blocks =
          (p.scan.table->num_rows() + kZoneBlockRows - 1) / kZoneBlockRows;
      pf[pi].assign(static_cast<size_t>(blocks), 0);
      for (int64_t b = 0; b < blocks; ++b) {
        if (inj.Evaluate(fault_site::kStoragePageFault)) {
          pf[pi][static_cast<size_t>(b)] = 1;
          ++result.robustness.page_fault_degradations;
        }
      }
    }
  }

  Scratch sc;
  Status st = Status::OK();
  for (size_t pi = 0; pi < compiler.pipelines.size(); ++pi) {
    const Pipeline& p = compiler.pipelines[pi];
    ctx.pf_blocks = pf[pi].empty() ? nullptr : &pf[pi];
    // Unbudgeted scan pipelines run through the chunk driver; budgeted
    // ones and merge pipelines run on the coordinator.
    st = !ctx.budgeted && p.is_scan
             ? RunPipelineChunked(p, cost_model, &ctx, &sc, pool, num_shards,
                                  plan.num_nodes(), &result.shard,
                                  &result.robustness)
             : RunPipelineSequential(p, cost_model, &ctx, &sc);
    if (!st.ok()) break;
  }

  // Shard-fault surcharges (lost work, straggler duplicates, spikes) live
  // outside the integer ledger so the clean ledger total stays
  // bit-identical to unsharded; they are added to cost_used here, which is
  // what keeps recovered runs inside the composed MSO accounting.
  const double fault_extra =
      result.shard.retried_cost + result.robustness.spike_cost;
  const double cost_used = ledger.Total(cost_model.params()) + fault_extra;
  result.cost_used =
      std::min(cost_used, budget < 0.0 ? cost_used : budget);
  result.output_rows = output_rows;
  if (st.ok()) {
    result.completed = true;
  } else if (st.code() == StatusCode::kBudgetExhausted) {
    result.completed = false;
  } else {
    return st;
  }
  return result;
}

}  // namespace robustqp

