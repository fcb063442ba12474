// The one per-request knob struct threaded end-to-end through the stack.
//
// Before the service layer every entry point grew its own option bundle:
// Executor::Options{engine, num_threads, use_zone_maps} for the engines,
// EvalOptions{num_threads, fault_spec, fault_seed} for the evaluation
// harness, the threading/build fields of Ess::Config for surface
// construction, and ad-hoc --faults/--fault-seed plumbing in the CLI.
// RequestOptions subsumes all of them: front-ends (CLI flags, the TCP
// line protocol, in-process ServiceRequests) parse into it exactly once,
// and the conversion accessors below derive the legacy structs wherever a
// subsystem still takes its own type.

#ifndef ROBUSTQP_SERVER_REQUEST_OPTIONS_H_
#define ROBUSTQP_SERVER_REQUEST_OPTIONS_H_

#include <cstdint>
#include <string>

#include "ess/ess.h"
#include "exec/executor.h"
#include "storage/column_file.h"
#include "storage/encoding.h"

namespace robustqp {

/// Which robustness machinery answers the request — the three discovery
/// algorithms of the paper, or the traditional optimizer baseline.
enum class RobustnessMode {
  kNative,       // plan frozen at the statistics estimate, no discovery
  kPlanBouquet,  // Section 3: cost-budgeted bouquet execution
  kSpillBound,   // Section 4: spill-mode selectivity discovery
  kAlignedBound, // Section 5: aligned partition replacement
};

/// Parses "native" | "pb" | "sb" | "ab"; returns false on anything else.
bool ParseRobustnessMode(const std::string& name, RobustnessMode* out);

/// Unified per-request options. Field defaults reproduce the historical
/// defaults of the structs they subsume.
struct RequestOptions {
  // --- execution engine (Executor::Options; requests always run the
  // batch engine with zone maps on — the tuple engine and the zone-maps-off
  // arm are differential references, not serving choices) ---
  /// Cap on the blocks of chunk-parallel scans inside one request's
  /// executions, run on the shared fan-out pool (not the service pool's
  /// width); 1 disables, 0 = all cores.
  int num_threads = 1;
  /// Fused filter-on-compressed execution over encoded columns (the
  /// Executor::Options::use_compression toggle). Physical only: results
  /// and cost accounting are bit-identical either way.
  bool use_compression = true;
  /// Simulated scatter-gather workers for full batch-engine executions
  /// (the Executor::Options::num_shards knob; CLI --shards, TCP shards=).
  /// Results and cost accounting are bit-identical at any shard count;
  /// <= 1 disables sharding.
  int num_shards = 1;

  // --- storage (which catalog layout the request's context uses) ---
  /// Column storage encoding for the request's catalog: kAuto is the
  /// per-column auto policy (dictionary for low-cardinality columns,
  /// lane-width packed for the rest), kRaw is the uncompressed layout,
  /// and a specific encoding forces it on every column. Part of the
  /// ContextCache key; the data itself is identical for every choice.
  Encoding encoding = Encoding::kAuto;
  /// Where the catalog's payloads live: resident memory, or demand-paged
  /// column files (CLI --storage, TCP storage=). Physical only — results
  /// and cost accounting are bit-identical across backends — but part of
  /// the ContextCache key, since the two layouts are distinct objects.
  StorageBackend storage = StorageBackend::kResident;

  // --- ESS construction (the Ess::Config fields front-ends expose) ---
  int points_per_dim = 0;  // 0 = DefaultPointsPerDim(D)
  double contour_cost_ratio = 2.0;
  /// Cap on the blocks of the ESS build / evaluation sweeps and the
  /// bouquet fill; 0 = all cores.
  int ess_threads = 0;
  CostModel cost_model = CostModel::PostgresFlavour();

  // --- feedback (closed-loop robustness; CLI --feedback, TCP feedback=) ---
  /// Opt-in: consult the serving instance's FeedbackStore — calibrate the
  /// native seed estimate, warm-start discovery from the observed
  /// confidence region, and record this run's observations (drift
  /// detection included). Off by default; with an empty store the
  /// response payload is bit-identical to feedback disabled.
  bool use_feedback = false;

  // --- chaos (subsumes the EvalOptions fault fields) ---
  /// When non-empty, the running thread's FaultInjector is armed with
  /// this spec for the request's run (see FaultInjector::Configure).
  std::string fault_spec;
  uint64_t fault_seed = 42;

  /// The engine-option view of this request.
  Executor::Options ToExecutorOptions() const;
  /// The ESS-construction view of this request.
  Ess::Config ToEssConfig() const;
};

}  // namespace robustqp

#endif  // ROBUSTQP_SERVER_REQUEST_OPTIONS_H_
