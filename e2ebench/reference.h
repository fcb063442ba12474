// In-process expectations for every pool line, computed before the server
// starts: the reply payload QueryService::RunOneShot gives, the MSO
// guarantee a simulated discovery reply must respect, and each line's
// sub-optimality.
//
// The service reports engine-mode opt/subopt at the ESS grid midpoint, not
// at the data's truth. Engine lines are therefore scored here against the
// true optimum, computed once per query as bench_table3_wallclock does:
// ComputeTrueSelectivities -> Optimizer::Optimize -> Executor::Execute.

#ifndef E2EBENCH_REFERENCE_H_
#define E2EBENCH_REFERENCE_H_

#include <string>
#include <vector>

#include "load.h"
#include "workloads.h"

namespace e2e {

struct Reference {
  /// Per pool line.
  std::vector<Expected> expected;
  /// Per pool line: cost_used / optimal cost (engine lines: the data's
  /// true optimum). Feedback lines hold a negative value.
  std::vector<double> subopt;
  std::vector<std::string> failures;
};

/// Runs every non-feedback pool line once in-process on `threads` threads.
Reference ComputeReferences(const Workload& w, int threads);

}  // namespace e2e

#endif  // E2EBENCH_REFERENCE_H_
