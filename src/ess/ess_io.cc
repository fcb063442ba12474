// Ess persistence: a versioned plain-text format carrying the grid
// configuration, the POSP plan structures (pre-order serialized operator
// trees), and the per-location (plan ordinal, optimal cost) surface.
// Contours and frontiers are derived on load. Supports the paper's
// Section 7 deployment mode of offline contour construction for canned
// queries.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <functional>
#include <istream>
#include <map>
#include <ostream>
#include <sstream>

#include "common/fault.h"
#include "common/status.h"
#include "ess/ess.h"

namespace robustqp {

namespace {

constexpr const char kMagic[] = "RQPESS";
// Version 2 added a build-mode / recost-lambda line and a BuildStats line;
// version-1 streams (neither line) still load with default stats.
// Version 3 appended an exhaustive-fallback flag to the BuildStats line.
// Version 4 appends an FNV-1a checksum trailer line ("CKSUM <hex>")
// covering every preceding byte, so truncation and bit corruption are
// detected before any parsed value is trusted; v1-v3 streams load
// without a trailer.
// Version 5 drops the build-mode line and cuts the BuildStats line to the
// optimizer-call count: every surface is the exact sweep. A v2-v4 stream
// of mode 0 or 1 (exhaustive, exact) holds an exact surface and loads;
// mode 2 held an approximate recosted surface and is refused.
constexpr int kVersion = 5;

constexpr const char kChecksumTag[] = "CKSUM ";

// Hard plausibility caps on counts read from the stream, so a corrupted
// legacy (pre-checksum) stream cannot drive huge allocations.
constexpr size_t kMaxPlanChildren = 4096;
constexpr size_t kMaxPlans = 1000000;
constexpr int kMaxPointsPerDim = 4096;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

void WriteNode(std::ostream& os, const PlanNode& node) {
  switch (node.op) {
    case PlanOp::kSeqScan:
      os << "S " << node.table_idx << " " << node.filter_indices.size();
      for (int f : node.filter_indices) os << " " << f;
      os << " ";
      return;
    case PlanOp::kHashJoin:
      os << "HJ ";
      break;
    case PlanOp::kNLJoin:
      os << "NLJ ";
      break;
    case PlanOp::kIndexNLJoin:
      os << "INLJ ";
      break;
    case PlanOp::kSortMergeJoin:
      os << "SMJ ";
      break;
  }
  os << node.join_indices.size();
  for (int j : node.join_indices) os << " " << j;
  os << " ";
  WriteNode(os, *node.left);
  WriteNode(os, *node.right);
}

Result<std::unique_ptr<PlanNode>> ReadNode(std::istream& is) {
  std::string tag;
  if (!(is >> tag)) return Status::Internal("truncated plan stream");
  auto node = std::make_unique<PlanNode>();
  if (tag == "S") {
    node->op = PlanOp::kSeqScan;
    size_t nf = 0;
    if (!(is >> node->table_idx >> nf)) {
      return Status::Internal("malformed scan node");
    }
    if (nf > kMaxPlanChildren) {
      return Status::InvalidArgument("implausible scan filter count");
    }
    node->filter_indices.resize(nf);
    for (size_t i = 0; i < nf; ++i) {
      if (!(is >> node->filter_indices[i])) {
        return Status::Internal("malformed scan filters");
      }
    }
    return node;
  }
  if (tag == "HJ") {
    node->op = PlanOp::kHashJoin;
  } else if (tag == "NLJ") {
    node->op = PlanOp::kNLJoin;
  } else if (tag == "INLJ") {
    node->op = PlanOp::kIndexNLJoin;
  } else if (tag == "SMJ") {
    node->op = PlanOp::kSortMergeJoin;
  } else {
    return Status::Internal("unknown plan node tag '" + tag + "'");
  }
  size_t nj = 0;
  if (!(is >> nj)) return Status::Internal("malformed join node");
  if (nj > kMaxPlanChildren) {
    return Status::InvalidArgument("implausible join predicate count");
  }
  node->join_indices.resize(nj);
  for (size_t i = 0; i < nj; ++i) {
    if (!(is >> node->join_indices[i])) {
      return Status::Internal("malformed join indices");
    }
  }
  Result<std::unique_ptr<PlanNode>> left = ReadNode(is);
  if (!left.ok()) return left.status();
  Result<std::unique_ptr<PlanNode>> right = ReadNode(is);
  if (!right.ok()) return right.status();
  node->left = left.MoveValue();
  node->right = right.MoveValue();
  return node;
}

}  // namespace

Status Ess::Save(std::ostream& out) const {
  // Build the payload in memory so the checksum trailer can cover the
  // exact bytes written.
  std::ostringstream os;
  os.precision(17);
  os << kMagic << " " << kVersion << "\n";
  os << query_->name() << "\n";
  os << dims_ << " " << axis_.points() << " " << config_.min_sel << " "
     << config_.contour_cost_ratio << "\n";
  const CostParams& p = config_.cost_model.params();
  os << p.scan_tuple << " " << p.hash_build_tuple << " " << p.hash_probe_tuple
     << " " << p.nlj_materialize_tuple << " " << p.nlj_pair << " "
     << p.join_output_tuple << " " << p.index_probe << " " << p.index_fetch
     << " " << p.sort_tuple << " " << p.merge_tuple << "\n";
  os << build_stats_.optimizer_calls << "\n";

  const std::vector<const Plan*>& plans = pool_.plans();
  os << plans.size() << "\n";
  for (const Plan* plan : plans) {
    WriteNode(os, plan->root());
    os << "\n";
  }

  // Per-location: plan ordinal (interning order) + optimal cost.
  std::map<const Plan*, int64_t> ordinal;
  for (size_t i = 0; i < plans.size(); ++i) {
    ordinal[plans[i]] = static_cast<int64_t>(i);
  }
  os << num_locations() << "\n";
  for (int64_t lin = 0; lin < num_locations(); ++lin) {
    os << ordinal[plan_[static_cast<size_t>(lin)]] << " "
       << cost_[static_cast<size_t>(lin)] << "\n";
  }
  const std::string payload = os.str();
  out << payload << kChecksumTag << std::hex << Fnv1a(payload) << std::dec
      << "\n";
  if (!out.good()) return Status::Internal("write failure while saving ESS");
  return Status::OK();
}

Result<std::unique_ptr<Ess>> Ess::Load(std::istream& raw_is,
                                       const Catalog& catalog,
                                       const Query& query) {
  if (FaultInjector::Armed()) {
    const FaultAction act =
        FaultInjector::Current().Evaluate(fault_site::kIoEssLoad);
    if (act.kind == FaultKind::kTransient) {
      return Status::Unavailable("injected transient fault at io.ess_load");
    }
    if (act.kind != FaultKind::kNone) {
      return Status::Internal("injected fault at io.ess_load");
    }
  }

  // Slurp the stream so the v4 checksum trailer can be verified over the
  // exact payload bytes before any parsed value is trusted.
  std::ostringstream slurp;
  slurp << raw_is.rdbuf();
  std::string text = slurp.str();
  {
    std::istringstream header(text);
    std::string hmagic;
    int hversion = 0;
    if (!(header >> hmagic >> hversion) || hmagic != kMagic) {
      return Status::InvalidArgument("not an ESS stream");
    }
    if (hversion >= 4 && hversion <= kVersion) {
      const size_t pos = text.rfind(kChecksumTag);
      if (pos == std::string::npos || (pos != 0 && text[pos - 1] != '\n')) {
        return Status::InvalidArgument(
            "truncated ESS stream: checksum trailer missing");
      }
      // The trailer is exactly "CKSUM <hex>\n": a damaged final byte must
      // not pass as trailing whitespace.
      const char* digits = text.data() + pos + sizeof(kChecksumTag) - 1;
      const char* stop = text.data() + text.size();
      uint64_t want = 0;
      const std::from_chars_result r = std::from_chars(digits, stop, want, 16);
      if (r.ec != std::errc() || r.ptr == digits || stop - r.ptr != 1 ||
          *r.ptr != '\n') {
        return Status::InvalidArgument("malformed ESS checksum trailer");
      }
      text.resize(pos);
      if (Fnv1a(text) != want) {
        return Status::InvalidArgument(
            "ESS checksum mismatch: stream is corrupted or truncated");
      }
    }
  }
  std::istringstream is(text);

  std::string magic;
  int version = 0;
  if (!(is >> magic >> version) || magic != kMagic) {
    return Status::InvalidArgument("not an ESS stream");
  }
  if (version < 1 || version > kVersion) {
    return Status::Unsupported("unsupported ESS version " +
                               std::to_string(version));
  }
  std::string qname;
  if (!(is >> qname)) return Status::Internal("truncated header");
  if (qname != query.name()) {
    return Status::InvalidArgument("ESS stream is for query '" + qname +
                                   "', not '" + query.name() + "'");
  }

  auto ess = std::unique_ptr<Ess>(new Ess());
  ess->query_ = &query;
  int points = 0;
  if (!(is >> ess->dims_ >> points >> ess->config_.min_sel >>
        ess->config_.contour_cost_ratio)) {
    return Status::Internal("truncated grid header");
  }
  if (ess->dims_ != query.num_epps()) {
    return Status::InvalidArgument("dimensionality mismatch");
  }
  if (points < 2 || points > kMaxPointsPerDim ||
      !std::isfinite(ess->config_.min_sel) || ess->config_.min_sel <= 0.0 ||
      ess->config_.min_sel >= 1.0 ||
      !std::isfinite(ess->config_.contour_cost_ratio) ||
      ess->config_.contour_cost_ratio <= 1.0) {
    return Status::InvalidArgument("corrupt grid header");
  }
  ess->config_.points_per_dim = points;

  CostParams p;
  if (!(is >> p.scan_tuple >> p.hash_build_tuple >> p.hash_probe_tuple >>
        p.nlj_materialize_tuple >> p.nlj_pair >> p.join_output_tuple >>
        p.index_probe >> p.index_fetch >> p.sort_tuple >> p.merge_tuple)) {
    return Status::Internal("truncated cost-model params");
  }
  for (const double v : {p.scan_tuple, p.hash_build_tuple, p.hash_probe_tuple,
                         p.nlj_materialize_tuple, p.nlj_pair,
                         p.join_output_tuple, p.index_probe, p.index_fetch,
                         p.sort_tuple, p.merge_tuple}) {
    if (!std::isfinite(v) || v < 0.0) {
      return Status::InvalidArgument("corrupt cost-model params");
    }
  }
  ess->config_.cost_model = CostModel(p);

  if (version >= 2 && version <= 4) {
    int mode = 0;
    double lambda = 0.0;
    if (!(is >> mode >> lambda)) {
      return Status::Internal("truncated build-mode header");
    }
    if (mode == 2) {
      return Status::InvalidArgument(
          "ESS stream holds an approximate recosted surface");
    }
    if (mode != 0 && mode != 1) {
      return Status::InvalidArgument("corrupt build-mode header");
    }
  }
  if (version >= 2) {
    if (!(is >> ess->build_stats_.optimizer_calls)) {
      return Status::Internal("truncated build stats");
    }
    if (ess->build_stats_.optimizer_calls < 0) {
      return Status::InvalidArgument("corrupt build stats");
    }
    // The refinement counters of v2-v4 (and v3-v4's fallback flag)
    // describe how a stream's surface was built, not the surface.
    const int legacy_fields = version == 2 ? 5 : version <= 4 ? 6 : 0;
    std::string field;
    for (int i = 0; i < legacy_fields; ++i) {
      if (!(is >> field)) return Status::Internal("truncated build stats");
    }
  }

  ess->axis_ = LogAxis(ess->config_.min_sel, points);
  ess->optimizer_ =
      std::make_unique<Optimizer>(&catalog, &query, ess->config_.cost_model);
  ess->InitStrides();

  size_t num_plans = 0;
  if (!(is >> num_plans)) return Status::Internal("truncated plan count");
  if (num_plans > kMaxPlans) {
    return Status::InvalidArgument("implausible plan count");
  }
  std::vector<const Plan*> by_ordinal;
  by_ordinal.reserve(num_plans);
  for (size_t i = 0; i < num_plans; ++i) {
    Result<std::unique_ptr<PlanNode>> root = ReadNode(is);
    if (!root.ok()) return root.status();
    const int nt = query.num_tables();
    const int njoins = query.num_joins();
    const int nfilters = static_cast<int>(query.filters().size());
    // Validate indices against the query before accepting the plan.
    bool ok = true;
    std::function<void(const PlanNode&)> validate = [&](const PlanNode& n) {
      if (n.op == PlanOp::kSeqScan) {
        if (n.table_idx < 0 || n.table_idx >= nt) ok = false;
        for (int f : n.filter_indices) {
          if (f < 0 || f >= nfilters) ok = false;
        }
        return;
      }
      for (int j : n.join_indices) {
        if (j < 0 || j >= njoins) ok = false;
      }
      if (n.left == nullptr || n.right == nullptr) {
        ok = false;
        return;
      }
      validate(*n.left);
      validate(*n.right);
    };
    validate(**root);
    if (!ok) return Status::InvalidArgument("plan references invalid indices");
    by_ordinal.push_back(
        ess->pool_.Intern(std::make_unique<Plan>(&query, root.MoveValue())));
  }

  int64_t total = 0;
  if (!(is >> total)) return Status::Internal("truncated grid count");
  const int64_t expected = ess->strides_[0] * points;
  if (total != expected) {
    return Status::InvalidArgument("grid size mismatch");
  }
  ess->cost_.assign(static_cast<size_t>(total), 0.0);
  ess->plan_.assign(static_cast<size_t>(total), nullptr);
  for (int64_t lin = 0; lin < total; ++lin) {
    int64_t ord = 0;
    double cost = 0.0;
    if (!(is >> ord >> cost)) return Status::Internal("truncated grid data");
    if (ord < 0 || ord >= static_cast<int64_t>(by_ordinal.size()) ||
        !std::isfinite(cost) || cost <= 0.0) {
      return Status::InvalidArgument("corrupt grid entry");
    }
    ess->plan_[static_cast<size_t>(lin)] = by_ordinal[static_cast<size_t>(ord)];
    ess->cost_[static_cast<size_t>(lin)] = cost;
  }
  ess->ComputeContoursAndFrontiers();
  return ess;
}

}  // namespace robustqp
