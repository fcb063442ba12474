// Instance-scoped cache of built experiment contexts — the service-layer
// replacement for the process-global Workbench singleton.
//
// A context is everything one suite query needs to serve requests: the
// shared catalog, the query, and the (optimizer-call-heavy) built ESS. The
// cache keys contexts by (query id, ESS config) — the same key the old
// Workbench used — holds at most `capacity` of them in LRU order, and
// counts hits / misses / evictions so a serving deployment can size it.
//
// Concurrency. Get() is safe from any thread. Distinct keys build
// concurrently; concurrent misses on the same key build once (the second
// caller blocks on the first's build). Entries are handed out as
// shared_ptr, so an entry evicted while a request is still using it stays
// alive until the last holder drops it — eviction never invalidates
// in-flight work.
//
// A build runs under the building thread's fault arming (common/fault.h).
// In the service that thread is always disarmed (QueryService resolves
// contexts, and prepares their discovery algorithms, before a request
// arms its thread), so a cached surface is bit-identical no matter which
// request triggered the build. Failed builds (possible when an embedding
// program arms its thread around Get()) are not cached.

#ifndef ROBUSTQP_SERVER_CONTEXT_CACHE_H_
#define ROBUSTQP_SERVER_CONTEXT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "core/discovery.h"
#include "ess/ess.h"
#include "query/query.h"
#include "server/request_options.h"
#include "storage/column_file.h"
#include "storage/encoding.h"

namespace robustqp {

class ContextCache {
 public:
  struct Options {
    /// Maximum cached contexts; least-recently-used beyond this are
    /// evicted. 0 means unbounded (the Workbench-compatible default
    /// instance uses this so its references live for the process).
    size_t capacity = 16;
  };

  /// One built context. Catalog, query and ESS are immutable once built;
  /// the discovery algorithms are prepared once per mode, then read-only.
  struct Entry {
    std::shared_ptr<Catalog> catalog;
    std::unique_ptr<Query> query;
    std::unique_ptr<Ess> ess;
    /// The cache key this entry was built under.
    std::string key;

    /// The discovery algorithm for `mode` over `ess`, with default
    /// options; null for kNative. Built on the first call for the mode
    /// (never at context-build time) and shared, thread-safely, by every
    /// request that later runs on this context. The calling thread must be
    /// disarmed for that first call, as for builds.
    const DiscoveryAlgorithm* Algorithm(RobustnessMode mode) const;

   private:
    static constexpr size_t kModes = 4;  // RobustnessMode values
    mutable std::once_flag prepared_[kModes];
    mutable std::unique_ptr<const DiscoveryAlgorithm> algorithms_[kModes];
  };

  /// Cumulative counters since construction.
  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t evictions = 0;
    /// Entries dropped by InvalidateQuery (feedback drift evictions);
    /// counted separately from capacity evictions.
    int64_t invalidations = 0;
    /// Builds that returned a non-OK Status (not cached).
    int64_t failures = 0;
    /// Contexts currently resident.
    size_t size = 0;
  };

  // (Two constructors rather than one defaulted argument: in-class default
  // arguments may not use Options{} before the enclosing class is complete.)
  ContextCache() : ContextCache(Options{}) {}
  explicit ContextCache(Options options);

  ContextCache(const ContextCache&) = delete;
  ContextCache& operator=(const ContextCache&) = delete;

  /// Returns the context for suite query `id` under `config`, building it
  /// on first use. Fails with the build's Status when construction fails
  /// (e.g. an armed permanent optimizer fault), or NotFound for an unknown
  /// suite id. When `cache_hit` is non-null it is set to whether the
  /// context was already resident (false for misses and failed builds).
  /// `encoding` picks the catalog's storage layout (kAuto = the
  /// per-column auto policy) and `use_compression` is the request's fused
  /// execution toggle; both are part of the cache key so contexts built
  /// under different storage knobs never alias. The two-argument form is
  /// the historical default (kAuto, compression on).
  Result<std::shared_ptr<const Entry>> Get(const std::string& id,
                                           const Ess::Config& config,
                                           bool* cache_hit = nullptr);
  Result<std::shared_ptr<const Entry>> Get(const std::string& id,
                                           const Ess::Config& config,
                                           Encoding encoding,
                                           bool use_compression,
                                           bool* cache_hit = nullptr);
  /// Full-knob form: `backend` additionally picks resident vs mmap'd
  /// catalog payloads (kMmap contexts never alias kResident ones — the
  /// backend is part of the key — though their plans, stats, and surfaces
  /// are bit-identical).
  Result<std::shared_ptr<const Entry>> Get(const std::string& id,
                                           const Ess::Config& config,
                                           Encoding encoding,
                                           bool use_compression,
                                           StorageBackend backend,
                                           bool* cache_hit = nullptr);

  Stats stats() const;

  /// Evicts every cached context for suite query `id`, under any
  /// (config, encoding) — the feedback layer's drift invalidation: when
  /// observed selectivities leave a query's confidence region, its
  /// cached surfaces (and thereby their cached plans, re-costed on the
  /// rebuild) are stale. Entries still referenced by in-flight requests
  /// stay alive until the last holder drops them, as with LRU eviction.
  /// Returns the number of entries dropped.
  size_t InvalidateQuery(const std::string& id);

  /// The cache key for (id, config, storage knobs) — exposed for goldens
  /// and logging.
  static std::string Key(const std::string& id, const Ess::Config& config,
                         Encoding encoding = Encoding::kAuto,
                         bool use_compression = true,
                         StorageBackend backend = StorageBackend::kResident);

  /// Process-default instance (unbounded), for callers that want
  /// process-lifetime contexts without owning a cache.
  static ContextCache& Default();

  /// Default-instance convenience for infallible callers (benches, demos):
  /// builds on first use, aborts on any failure, and the returned
  /// reference lives for the process (Default() never evicts). Fallible
  /// callers use Get() on an owned instance.
  static const Entry& GetDefault(const std::string& id,
                                 const Ess::Config& config = Ess::Config{});

  /// The shared synthetic catalogs (built once per process *per storage
  /// encoding*; every cache instance reuses them — only the per-query ESS
  /// differs per entry). The data, statistics, and plans are identical
  /// for every encoding; only the physical column layout differs.
  /// The kMmap variants serialize the resident build to column files in a
  /// temp directory, reopen them mapped (the files are unlinked once
  /// mapped; the mappings keep them alive), and rebuild the same indexes —
  /// stats carried through the files bit-identically.
  static std::shared_ptr<Catalog> TpcdsCatalog(
      Encoding encoding = Encoding::kAuto,
      StorageBackend backend = StorageBackend::kResident);
  static std::shared_ptr<Catalog> JobCatalog(
      Encoding encoding = Encoding::kAuto,
      StorageBackend backend = StorageBackend::kResident);

  /// Installs an externally built catalog (e.g. a scale-dir store opened
  /// from column files by robustqp_server --scale-dir) as the process-wide
  /// TPC-DS catalog for `backend` under every encoding: subsequent
  /// context builds for TPC-DS suite queries at that backend use it
  /// instead of the synthetic build. Must be called before the first Get
  /// that would build the replaced variant; intended for process startup.
  static void RegisterExternalTpcds(std::shared_ptr<Catalog> catalog,
                                    StorageBackend backend);

 private:
  struct Node {
    std::mutex build_mu;          // serializes the one-time build
    bool built = false;           // set under build_mu
    Status build_status;          // the build's outcome
    std::shared_ptr<const Entry> entry;
  };

  /// Drops LRU nodes beyond capacity. Caller holds mu_.
  void EvictLocked();

  const Options options_;
  mutable std::mutex mu_;
  /// Front = most recently used.
  std::list<std::string> lru_;
  struct Slot {
    std::shared_ptr<Node> node;
    std::list<std::string>::iterator lru_it;
  };
  std::map<std::string, Slot> slots_;
  Stats stats_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_SERVER_CONTEXT_CACHE_H_
