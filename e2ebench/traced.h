// The traced replay: per-layer numbers without instrumenting src/.
//
// A fixed prefix of the workload's request stream is replayed in-process
// and serially. Each request runs twice: once through
// QueryService::RunOneShot (the reference, timed only from outside) and
// once through a layer-by-layer replica of QueryService::RunResolved built
// from public calls only, which times ContextCache::Get, Optimizer,
// FeedbackStore::Get/Observe, DiscoveryAlgorithm::Run and every oracle
// execution. The replica's reply line must equal the reference's.
//
// The replica is a deliberate, temporary copy of the service's request
// body; it goes away once the program records its own spans.

#ifndef E2EBENCH_TRACED_H_
#define E2EBENCH_TRACED_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

namespace e2e {

using Metrics = std::map<std::string, double>;

/// Times the process-wide catalog builds (TPC-DS and JOB, resident then
/// mmap) into storage.catalog_build_ms.*. Must run before anything else in
/// the process touches a catalog.
void TimeCatalogBuilds(Metrics* out);

/// Replays up to `max_requests` requests of the round-robin interleaving
/// of `clients` client streams, stopping early after `max_seconds`, and
/// adds the per-layer metrics to `out`. Mismatched replies and layer times
/// that do not cover the replica's wall time are reported in `failures`.
void RunTraced(const Workload& w, uint64_t seed, int clients,
               int max_requests, double max_seconds, Metrics* out,
               std::vector<std::string>* failures);

}  // namespace e2e

#endif  // E2EBENCH_TRACED_H_
