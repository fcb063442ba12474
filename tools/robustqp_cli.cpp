// robustqp_cli — command-line driver for the robust query processing
// library: pick a suite query, an algorithm, and a (hypothetical or
// data-implied) true location; run discovery and print the trace.
//
// Examples:
//   robustqp_cli --list
//   robustqp_cli --query 4D_Q91 --algo sb --qa 0.01,0.005,0.02,0.001
//   robustqp_cli --query 2D_Q91 --algo ab --qa 0.04,0.1 --trace
//   robustqp_cli --query 4D_JOB_Q1a --algo sb --engine
//   robustqp_cli --query 3D_Q96 --algo all --qa 0.1,0.1,0.1
//   robustqp_cli --query 2D_Q91 --algo sb --feedback --repeat 5
//   robustqp_cli --query 4D_Q91 --identify-epps
//   robustqp_cli --query 3D_Q15 --save-ess /tmp/q15.ess
//   robustqp_cli --query 3D_Q15 --load-ess /tmp/q15.ess --algo sb

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/alignedbound.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "feedback/feedback_store.h"
#include "harness/evaluator.h"
#include "harness/trace_printer.h"
#include "harness/true_selectivity.h"
#include "optimizer/epp_identifier.h"
#include "server/context_cache.h"
#include "server/request_options.h"
#include "workloads/queries.h"

namespace robustqp {
namespace {

// Every per-run knob lives in the unified RequestOptions and is parsed
// exactly once; CliOptions only adds the CLI's own mode switches. Exit
// codes are the stable ExitCodeFor() numbers the service layer shares.
struct CliOptions {
  std::string query = "2D_Q91";
  std::string algo = "sb";  // sb | ab | pb | native | all
  std::vector<double> qa;   // empty => data truth / ESS midpoint
  bool engine = false;
  bool trace = false;
  bool list = false;
  bool identify_epps = false;
  bool evaluate = false;
  /// Repeated-query mode: run the same (query, q_a) this many times
  /// serially; with --feedback, later runs warm-start from the store.
  int repeat = 1;
  std::string save_ess;
  std::string load_ess;
  RequestOptions req;
};

void PrintUsage() {
  std::cout <<
      "usage: robustqp_cli [options]\n"
      "  --list                 list the available suite queries and exit\n"
      "  --query <id>           suite query id (default 2D_Q91)\n"
      "  --algo <a>             sb | ab | pb | native | all (default sb)\n"
      "  --qa s1,s2,...         true epp selectivities (simulated oracle);\n"
      "                         omitted: the data's measured truth\n"
      "  --engine               run on the execution engine over stored data\n"
      "  --trace                print the full execution trace\n"
      "  --evaluate             exhaustive sweep: every grid location is the\n"
      "                         true location once; prints MSO/ASO per algo\n"
      "  --threads <n>          worker threads for the ESS build, the\n"
      "                         --evaluate sweep, and batch-engine chunk\n"
      "                         scans (default: all cores)\n"
      "  --shards <n>           simulated scatter-gather workers for full\n"
      "                         engine executions (default 1): shard fault\n"
      "                         draws and the per-shard cost split. Results,\n"
      "                         cost_used and all counters are bit-identical\n"
      "                         at any shard count. SpillBound's MSO bound\n"
      "                         composes exactly across shards\n"
      "  --points <n>           ESS grid points per dimension (default auto)\n"
      "  --ratio <r>            inter-contour cost ratio (default 2.0)\n"
      "  --compression <c>      auto | raw | packed | vbyte | dict | on | off\n"
      "                         catalog storage encoding (default auto:\n"
      "                         dictionary for low-cardinality columns,\n"
      "                         bit-packed otherwise); raw also turns\n"
      "                         fused filter-on-compressed execution off.\n"
      "                         Results are bit-identical for every choice\n"
      "  --storage <s>          resident | mmap (default resident): where the\n"
      "                         catalog's column payloads live — resident\n"
      "                         memory, or demand-paged column files opened\n"
      "                         zero-copy with mmap. Physical only: results\n"
      "                         and cost accounting are bit-identical\n"
      "  --feedback             closed-loop mode: record each completed\n"
      "                         run's observed selectivities in a feedback\n"
      "                         store and warm-start later runs from the\n"
      "                         accumulated calibration (see --repeat)\n"
      "  --repeat <n>           run the same query n times serially\n"
      "                         (simulated oracle at q_a); with --feedback\n"
      "                         run 0 is cold and later runs amortize via\n"
      "                         warm-started discovery; prints per-run cost\n"
      "                         and the warm-vs-cold speedup\n"
      "  --faults <spec>        chaos testing: arm the deterministic fault\n"
      "                         injector, e.g. \"exec.*:p=0.01\" or\n"
      "                         \"optimizer.dp:after=100;exec.scan.read:p=0.05,"
      "kind=spike\"\n"
      "  --fault-seed <n>       seed for the fault draws (default 42)\n"
      "  --identify-epps        run the Section 7 epp identifier and exit\n"
      "  --save-ess <path>      persist the built ESS (offline contours)\n"
      "  --load-ess <path>      load a previously saved ESS instead of\n"
      "                         rebuilding (Section 7 deployment mode)\n";
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--list") {
      out->list = true;
    } else if (arg == "--engine") {
      out->engine = true;
    } else if (arg == "--trace") {
      out->trace = true;
    } else if (arg == "--identify-epps") {
      out->identify_epps = true;
    } else if (arg == "--evaluate") {
      out->evaluate = true;
    } else if (arg == "--query") {
      const char* v = next();
      if (v == nullptr) return false;
      out->query = v;
    } else if (arg == "--algo") {
      const char* v = next();
      if (v == nullptr) return false;
      out->algo = v;
    } else if (arg == "--points") {
      const char* v = next();
      if (v == nullptr) return false;
      out->req.points_per_dim = std::atoi(v);
    } else if (arg == "--threads") {
      const char* v = next();
      if (v == nullptr) return false;
      // One flag, both thread knobs: surface work and per-query chunks.
      out->req.ess_threads = std::atoi(v);
      out->req.num_threads = out->req.ess_threads;
    } else if (arg == "--shards") {
      const char* v = next();
      if (v == nullptr) return false;
      out->req.num_shards = std::atoi(v);
    } else if (arg == "--ratio") {
      const char* v = next();
      if (v == nullptr) return false;
      out->req.contour_cost_ratio = std::atof(v);
    } else if (arg == "--compression") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseEncoding(v, &out->req.encoding)) {
        std::cerr << "unknown --compression " << v
                  << " (want auto|raw|packed|vbyte|dict|on|off)\n";
        return false;
      }
      out->req.use_compression = out->req.encoding != Encoding::kRaw;
    } else if (arg == "--storage") {
      const char* v = next();
      if (v == nullptr) return false;
      if (!ParseStorageBackend(v, &out->req.storage)) {
        std::cerr << "unknown --storage " << v << " (want resident | mmap)\n";
        return false;
      }
    } else if (arg == "--feedback") {
      out->req.use_feedback = true;
    } else if (arg == "--repeat") {
      const char* v = next();
      if (v == nullptr) return false;
      out->repeat = std::atoi(v);
      if (out->repeat < 1) {
        std::cerr << "--repeat must be >= 1\n";
        return false;
      }
    } else if (arg == "--faults") {
      const char* v = next();
      if (v == nullptr) return false;
      out->req.fault_spec = v;
    } else if (arg == "--fault-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      out->req.fault_seed =
          static_cast<uint64_t>(std::strtoull(v, nullptr, 10));
    } else if (arg == "--save-ess") {
      const char* v = next();
      if (v == nullptr) return false;
      out->save_ess = v;
    } else if (arg == "--load-ess") {
      const char* v = next();
      if (v == nullptr) return false;
      out->load_ess = v;
    } else if (arg == "--qa") {
      const char* v = next();
      if (v == nullptr) return false;
      std::stringstream ss(v);
      std::string tok;
      while (std::getline(ss, tok, ',')) out->qa.push_back(std::atof(tok.c_str()));
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return false;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      PrintUsage();
      return false;
    }
  }
  return true;
}

void ReportRun(const Ess& ess, const std::string& name,
               const DiscoveryResult& r, double opt_cost, bool trace) {
  std::cout << name << ": "
            << (r.completed ? "completed" : "DID NOT COMPLETE")
            << "  cost=" << r.total_cost
            << "  subopt=" << r.total_cost / opt_cost
            << "  executions=" << r.num_executions()
            << "  final contour=IC" << r.final_contour + 1 << "\n";
  if (r.robustness.Any()) {
    std::cout << "  robustness: " << r.robustness.Summary() << "\n";
  }
  if (r.composed_mso.num_shards > 1) {
    std::cout << "  composed MSO bound: " << r.composed_mso.composed
              << " across " << r.composed_mso.num_shards << " shards\n";
  }
  if (trace) PrintExecutionTrace(ess, r, std::cout);
}

int Run(const CliOptions& opts) {
  if (opts.list) {
    std::cout << "suite queries:\n";
    for (const std::string& id : SuiteQueryIds()) {
      const Query q = MakeSuiteQuery(id);
      std::cout << "  " << id << "  (" << q.num_tables() << " tables, "
                << q.num_joins() << " joins, D=" << q.num_epps() << ")\n";
    }
    return 0;
  }

  // The unified knob struct is the single source of per-run options; the
  // ESS-construction view of it derives directly.
  const Ess::Config config = opts.req.ToEssConfig();

  // This invocation's instance-scoped context cache.
  static ContextCache context_cache(ContextCache::Options{/*capacity=*/4});

  // Owners for the --load-ess path (the query must outlive the Ess).
  static std::unique_ptr<Query> loaded_query;
  static std::unique_ptr<Ess> loaded_ess;
  static std::shared_ptr<const ContextCache::Entry> cached_entry;
  std::shared_ptr<Catalog> catalog;
  const Ess* ess_ptr = nullptr;
  const Query* query_ptr = nullptr;
  // --faults is armed for the ESS load or build too, so io.ess_load faults
  // reach the load (a fired draw fails it; there is no retry) and
  // optimizer.dp faults the sweep's retry path. Every path below that runs
  // discovery re-Configures the same spec and seed, which resets every
  // stream and stat: discovery draws exactly what it would after a clean
  // load or build.
  if (!opts.req.fault_spec.empty()) {
    const Status st =
        FaultInjector::Configure(opts.req.fault_spec, opts.req.fault_seed);
    if (!st.ok()) {
      std::cerr << "bad --faults spec: " << st.ToString() << "\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
  }
  if (!opts.load_ess.empty()) {
    catalog = IsJobQuery(opts.query)
                  ? ContextCache::JobCatalog(opts.req.encoding,
                                             opts.req.storage)
                  : ContextCache::TpcdsCatalog(opts.req.encoding,
                                               opts.req.storage);
    loaded_query = std::make_unique<Query>(MakeSuiteQuery(opts.query));
    std::ifstream in(opts.load_ess);
    if (!in) {
      std::cerr << "cannot open " << opts.load_ess << "\n";
      return ExitCodeFor(StatusCode::kNotFound);
    }
    Result<std::unique_ptr<Ess>> loaded =
        Ess::Load(in, *catalog, *loaded_query);
    FaultInjector::Disarm();
    if (!loaded.ok()) {
      std::cerr << "load failed: " << loaded.status().ToString() << "\n";
      return ExitCodeFor(loaded.status().code());
    }
    loaded_ess = loaded.MoveValue();
    ess_ptr = loaded_ess.get();
    query_ptr = loaded_query.get();
    std::cout << "(loaded ESS from " << opts.load_ess << ")\n";
  } else {
    Result<std::shared_ptr<const ContextCache::Entry>> entry =
        context_cache.Get(opts.query, config, opts.req.encoding,
                          opts.req.use_compression, opts.req.storage);
    FaultInjector::Disarm();
    if (!entry.ok()) {
      std::cerr << "context build failed: " << entry.status().ToString()
                << "\n";
      return ExitCodeFor(entry.status().code());
    }
    cached_entry = entry.MoveValue();
    catalog = cached_entry->catalog;
    ess_ptr = cached_entry->ess.get();
    query_ptr = cached_entry->query.get();
  }
  const Ess& ess = *ess_ptr;

  if (!opts.save_ess.empty()) {
    std::ofstream out_file(opts.save_ess);
    const Status st = ess.Save(out_file);
    if (!st.ok()) {
      std::cerr << "save failed: " << st.ToString() << "\n";
      return ExitCodeFor(st.code());
    }
    std::cout << "(saved ESS to " << opts.save_ess << ")\n";
  }

  if (opts.identify_epps) {
    EppIdentifierOptions id_opts;
    std::cout << "statistics-driven epp identification for " << opts.query
              << " (skew threshold " << id_opts.skew_threshold << "):\n";
    const std::vector<int> flagged =
        IdentifyErrorProneJoins(*catalog, *query_ptr, id_opts);
    for (int j = 0; j < query_ptr->num_joins(); ++j) {
      const JoinPredicate& jp = query_ptr->joins()[static_cast<size_t>(j)];
      const bool f =
          std::find(flagged.begin(), flagged.end(), j) != flagged.end();
      std::cout << "  " << jp.left_table << "." << jp.left_column << " = "
                << jp.right_table << "." << jp.right_column << "  -> "
                << (f ? "ERROR-PRONE" : "trusted") << "\n";
    }
    return 0;
  }

  // Resolve the true location.
  EssPoint qa_sel;
  if (!opts.qa.empty()) {
    if (static_cast<int>(opts.qa.size()) != ess.dims()) {
      std::cerr << "--qa needs exactly " << ess.dims() << " values\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
    qa_sel = opts.qa;
  } else {
    qa_sel = ComputeTrueSelectivities(*catalog, *query_ptr);
  }
  GridLoc qa(static_cast<size_t>(ess.dims()));
  for (int d = 0; d < ess.dims(); ++d) {
    qa[static_cast<size_t>(d)] =
        ess.axis().NearestIndex(qa_sel[static_cast<size_t>(d)]);
  }
  std::cout << opts.query << ": D=" << ess.dims() << ", grid " << ess.points()
            << "^D, " << ess.num_contours() << " contours, POSP "
            << ess.pool().size() << " plans\n";
  const int64_t optimizer_calls = ess.build_stats().optimizer_calls;
  if (optimizer_calls > 0) {
    std::cout << "ESS build: " << optimizer_calls << " optimizer calls for "
              << ess.num_locations() << " locations\n";
  }
  std::cout << "true location (snapped to grid): (";
  for (int d = 0; d < ess.dims(); ++d) {
    std::cout << (d ? ", " : "")
              << ess.axis().value(qa[static_cast<size_t>(d)]);
  }
  const double opt_cost = ess.OptimalCost(qa);
  std::cout << ")  optimal cost " << opt_cost << "\n\n";

  if (opts.repeat > 1) {
    // Repeated-query closed-loop mode: one algorithm, one q_a, `repeat`
    // serial runs against one FeedbackStore (simulated oracle — the
    // repeats must see the same truth). Run 0 is cold; with --feedback
    // later runs warm-start from the accumulated calibration.
    std::unique_ptr<DiscoveryAlgorithm> algo;
    if (opts.algo == "pb") algo = std::make_unique<PlanBouquet>(&ess);
    if (opts.algo == "sb") algo = std::make_unique<SpillBound>(&ess);
    if (opts.algo == "ab") algo = std::make_unique<AlignedBound>(&ess);
    if (algo == nullptr) {
      std::cerr << "--repeat needs --algo pb | sb | ab\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
    feedback::FeedbackStore store;
    const EvalOptions eval_opts = MakeEvalOptions(opts.req);
    std::cout << "repeated mode: " << opts.repeat << " runs, feedback "
              << (opts.req.use_feedback ? "on" : "off") << "\n";
    const std::vector<RepeatedRunStats> runs = EvaluateRepeated(
        *algo, ess, qa, opts.query, opts.req.use_feedback ? &store : nullptr,
        opts.repeat, eval_opts);
    double cold_cost = 0.0;
    double best_warm = -1.0;
    for (size_t i = 0; i < runs.size(); ++i) {
      const RepeatedRunStats& r = runs[i];
      std::cout << "run " << i << ": cost=" << r.total_cost
                << " subopt=" << r.suboptimality << " execs="
                << r.num_executions << " warm=" << (r.warm_started ? 1 : 0)
                << " warm_done=" << (r.warm_completed ? 1 : 0)
                << " drift=" << (r.drifted ? 1 : 0) << "\n";
      if (i == 0) cold_cost = r.total_cost;
      if (r.warm_completed &&
          (best_warm < 0.0 || r.total_cost < best_warm)) {
        best_warm = r.total_cost;
      }
    }
    if (best_warm > 0.0) {
      std::cout << "warm-start amortization: cold cost " << cold_cost
                << ", best warm cost " << best_warm << ", speedup "
                << cold_cost / best_warm << "x\n";
    }
    return 0;
  }

  const bool all = opts.algo == "all";
  if (opts.evaluate) {
    // Exhaustive MSO/ASO sweep over the whole ESS through the unified
    // DiscoveryAlgorithm interface, parallelized across --threads.
    std::vector<std::unique_ptr<DiscoveryAlgorithm>> algos;
    if (all || opts.algo == "pb") algos.push_back(std::make_unique<PlanBouquet>(&ess));
    if (all || opts.algo == "sb") algos.push_back(std::make_unique<SpillBound>(&ess));
    if (all || opts.algo == "ab") algos.push_back(std::make_unique<AlignedBound>(&ess));
    if (algos.empty()) {
      std::cerr << "--evaluate needs --algo pb | sb | ab | all\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
    const EvalOptions eval_opts = MakeEvalOptions(opts.req);
    if (!opts.req.fault_spec.empty()) {
      // Validate the spec up front (Evaluate configures it per sweep).
      const Status st = FaultInjector::ValidateSpec(opts.req.fault_spec);
      if (!st.ok()) {
        std::cerr << "bad --faults spec: " << st.ToString() << "\n";
        return ExitCodeFor(StatusCode::kInvalidArgument);
      }
      std::cout << "chaos sweep: faults \"" << opts.req.fault_spec << "\" seed "
                << opts.req.fault_seed << "\n";
    }
    for (const auto& algo : algos) {
      const SuboptimalityStats stats = Evaluate(*algo, ess, eval_opts);
      std::cout << algo->name() << ": MSOe=" << stats.mso
                << "  ASO=" << stats.aso << "  p95=" << stats.Percentile(95.0)
                << "  worst q_a=IC-loc " << stats.worst_location
                << "  (guarantee " << algo->MsoGuarantee() << ")\n";
      if (stats.robustness.Any()) {
        std::cout << "  robustness: " << stats.robustness.Summary() << "\n";
        std::cout << "  fault sites: "
                  << FaultInjector::Current().StatsSummary() << "\n";
      }
    }
    return 0;
  }

  if (!opts.req.fault_spec.empty()) {
    // Single-run chaos mode: arm the injector for the discovery runs
    // below (the per-run RobustnessReport is printed by ReportRun).
    const Status st =
        FaultInjector::Configure(opts.req.fault_spec, opts.req.fault_seed);
    if (!st.ok()) {
      std::cerr << "bad --faults spec: " << st.ToString() << "\n";
      return ExitCodeFor(StatusCode::kInvalidArgument);
    }
    std::cout << "fault injection armed: \"" << opts.req.fault_spec
              << "\" seed " << opts.req.fault_seed << "\n";
  }

  Executor executor(catalog.get(), ess.config().cost_model,
                    opts.req.ToExecutorOptions());
  auto make_oracle = [&]() -> std::unique_ptr<ExecutionOracle> {
    if (opts.engine) return std::make_unique<EngineOracle>(&executor);
    return std::make_unique<SimulatedOracle>(&ess, qa);
  };

  if (all || opts.algo == "native") {
    const EssPoint qe = ess.optimizer().estimator().NativeEstimatePoint();
    const std::unique_ptr<Plan> plan = ess.optimizer().Optimize(qe);
    const double cost = ess.optimizer().PlanCost(*plan, qa_sel);
    std::cout << "native: plan frozen at the statistics estimate; cost at "
                 "q_a = "
              << cost << "  subopt=" << cost / opt_cost << "\n";
  }
  if (all || opts.algo == "pb") {
    PlanBouquet pb(&ess);
    auto oracle = make_oracle();
    ReportRun(ess, "PlanBouquet (guarantee " +
                       std::to_string(pb.MsoGuarantee()) + ")",
              pb.Run(oracle.get()), opt_cost, opts.trace);
  }
  if (all || opts.algo == "sb") {
    SpillBound sb(&ess);
    auto oracle = make_oracle();
    ReportRun(ess, "SpillBound (guarantee " +
                       std::to_string(SpillBound::MsoGuarantee(ess.dims())) + ")",
              sb.Run(oracle.get()), opt_cost, opts.trace);
  }
  if (all || opts.algo == "ab") {
    AlignedBound ab(&ess);
    auto oracle = make_oracle();
    ReportRun(ess, "AlignedBound", ab.Run(oracle.get()), opt_cost, opts.trace);
  }
  if (!all && opts.algo != "native" && opts.algo != "pb" && opts.algo != "sb" &&
      opts.algo != "ab") {
    std::cerr << "unknown --algo " << opts.algo << "\n";
    return ExitCodeFor(StatusCode::kInvalidArgument);
  }
  return 0;
}

}  // namespace
}  // namespace robustqp

int main(int argc, char** argv) {
  robustqp::CliOptions opts;
  if (!robustqp::ParseArgs(argc, argv, &opts)) return 1;
  return robustqp::Run(opts);
}
