#include "server/context_cache.h"

#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <utility>

#include "common/status.h"
#include "core/alignedbound.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "storage/table.h"
#include "workloads/job.h"
#include "workloads/queries.h"
#include "workloads/tpcds.h"

namespace robustqp {

ContextCache::ContextCache(Options options) : options_(options) {}

const DiscoveryAlgorithm* ContextCache::Entry::Algorithm(
    RobustnessMode mode) const {
  const size_t slot = static_cast<size_t>(mode);
  RQP_CHECK(slot < kModes);
  std::call_once(prepared_[slot], [&] {
    switch (mode) {
      case RobustnessMode::kPlanBouquet:
        algorithms_[slot] = std::make_unique<PlanBouquet>(ess.get());
        break;
      case RobustnessMode::kSpillBound:
        algorithms_[slot] = std::make_unique<SpillBound>(ess.get());
        break;
      case RobustnessMode::kAlignedBound:
        algorithms_[slot] = std::make_unique<AlignedBound>(ess.get());
        break;
      case RobustnessMode::kNative:
        break;
    }
  });
  return algorithms_[slot].get();
}

std::string ContextCache::Key(const std::string& id, const Ess::Config& c,
                              Encoding encoding, bool use_compression,
                              StorageBackend backend) {
  // std::to_chars writes each number in its shortest round-trip form, so
  // two configs share a key only if every field is equal.
  std::string key;
  key.reserve(id.size() + 192);
  key += id;
  char buf[32];
  const auto put = [&](char sep, auto value) {
    key += sep;
    key.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
  };
  put('|', c.min_sel);
  put('|', c.points_per_dim);
  put('|', c.contour_cost_ratio);
  const CostParams& p = c.cost_model.params();
  char sep = '|';
  for (const double v : {p.scan_tuple, p.hash_build_tuple, p.hash_probe_tuple,
                         p.nlj_materialize_tuple, p.nlj_pair,
                         p.join_output_tuple, p.index_probe, p.index_fetch,
                         p.sort_tuple, p.merge_tuple}) {
    put(sep, v);
    sep = ',';
  }
  key += '|';
  key += EncodingName(encoding);
  key += use_compression ? "|fused|" : "|decode|";
  key += StorageBackendName(backend);
  return key;
}

namespace {

/// The whole-catalog policy for one requested encoding: kAuto means the
/// per-column auto policy, anything else forces that encoding everywhere.
EncodingPolicy PolicyForEncoding(Encoding encoding) {
  EncodingPolicy policy;
  policy.kind = encoding;
  return policy;
}

/// Rewrites a resident catalog through the column-file format: every table
/// is serialized to a temp file, reopened demand-paged, and the file
/// unlinked (the mapping keeps the inode alive until the catalog drops),
/// then the same indexes are rebuilt. Statistics ride through the file,
/// so the mapped twin carries bit-identical stats — only the physical
/// residence of the payload bytes differs.
std::shared_ptr<Catalog> RemapCatalog(const Catalog& resident) {
  char tmpl[] = "/tmp/rqp_colf_XXXXXX";
  char* dir = mkdtemp(tmpl);
  RQP_CHECK(dir != nullptr);
  auto mapped = std::make_shared<Catalog>();
  for (const std::string& name : resident.TableNames()) {
    const CatalogEntry* entry = resident.FindTable(name);
    const std::string path = std::string(dir) + "/" + name + ".rqp";
    RQP_CHECK(WriteTableFile(*entry->table, entry->stats, path).ok());
    MappedTable mt;
    RQP_CHECK(OpenMappedTable(path, &mt).ok());
    std::remove(path.c_str());
    RQP_CHECK(mapped->AddTable(mt.table, std::move(mt.stats)).ok());
    for (const auto& [column, index] : entry->indexes) {
      (void)index;
      RQP_CHECK(mapped->BuildIndex(name, column).ok());
    }
  }
  rmdir(dir);
  return mapped;
}

using CatalogKey = std::pair<Encoding, StorageBackend>;

/// One lazily-built catalog per (encoding, backend), shared process-wide.
/// The kMmap variant is the resident build remapped through column files,
/// so asking for kMmap materializes (and caches) the resident twin too.
std::shared_ptr<Catalog> CatalogFor(
    Encoding encoding, StorageBackend backend,
    std::map<CatalogKey, std::shared_ptr<Catalog>>* cats, std::mutex* mu,
    const std::function<std::shared_ptr<Catalog>()>& build_resident) {
  std::lock_guard<std::mutex> lock(*mu);
  std::shared_ptr<Catalog>& slot = (*cats)[{encoding, backend}];
  if (slot == nullptr) {
    // (std::map references are stable across the second operator[].)
    std::shared_ptr<Catalog>& res =
        (*cats)[{encoding, StorageBackend::kResident}];
    if (res == nullptr) res = build_resident();
    slot = backend == StorageBackend::kResident ? res : RemapCatalog(*res);
  }
  return slot;
}

std::mutex* ExternalMu() {
  static std::mutex* mu = new std::mutex();
  return mu;
}

std::map<StorageBackend, std::shared_ptr<Catalog>>* ExternalTpcds() {
  static auto* m = new std::map<StorageBackend, std::shared_ptr<Catalog>>();
  return m;
}

}  // namespace

std::shared_ptr<Catalog> ContextCache::TpcdsCatalog(Encoding encoding,
                                                    StorageBackend backend) {
  {
    std::lock_guard<std::mutex> lock(*ExternalMu());
    auto it = ExternalTpcds()->find(backend);
    if (it != ExternalTpcds()->end()) return it->second;
  }
  static std::mutex* mu = new std::mutex();
  static auto* cats = new std::map<CatalogKey, std::shared_ptr<Catalog>>();
  return CatalogFor(encoding, backend, cats, mu, [encoding] {
    return std::shared_ptr<Catalog>(
        BuildTpcdsCatalog(42, 1.0, PolicyForEncoding(encoding)));
  });
}

std::shared_ptr<Catalog> ContextCache::JobCatalog(Encoding encoding,
                                                  StorageBackend backend) {
  static std::mutex* mu = new std::mutex();
  static auto* cats = new std::map<CatalogKey, std::shared_ptr<Catalog>>();
  return CatalogFor(encoding, backend, cats, mu, [encoding] {
    return std::shared_ptr<Catalog>(
        BuildJobCatalog(7, 1.0, PolicyForEncoding(encoding)));
  });
}

void ContextCache::RegisterExternalTpcds(std::shared_ptr<Catalog> catalog,
                                         StorageBackend backend) {
  std::lock_guard<std::mutex> lock(*ExternalMu());
  (*ExternalTpcds())[backend] = std::move(catalog);
}

ContextCache& ContextCache::Default() {
  static ContextCache* cache = new ContextCache(Options{/*capacity=*/0});
  return *cache;
}

const ContextCache::Entry& ContextCache::GetDefault(const std::string& id,
                                                    const Ess::Config& config) {
  Result<std::shared_ptr<const Entry>> entry = Default().Get(id, config);
  RQP_CHECK(entry.ok());
  // Default() never evicts, so the shared_ptr it retains keeps *entry
  // alive for the process: handing out a reference is sound.
  return **entry;
}

void ContextCache::EvictLocked() {
  if (options_.capacity == 0) return;
  while (slots_.size() > options_.capacity) {
    const std::string victim = lru_.back();
    lru_.pop_back();
    slots_.erase(victim);
    ++stats_.evictions;
  }
  stats_.size = slots_.size();
}

size_t ContextCache::InvalidateQuery(const std::string& id) {
  const std::string prefix = id + "|";
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = slots_.begin(); it != slots_.end();) {
    if (it->first.compare(0, prefix.size(), prefix) == 0) {
      lru_.erase(it->second.lru_it);
      it = slots_.erase(it);
      ++dropped;
      ++stats_.invalidations;
    } else {
      ++it;
    }
  }
  stats_.size = slots_.size();
  return dropped;
}

Result<std::shared_ptr<const ContextCache::Entry>> ContextCache::Get(
    const std::string& id, const Ess::Config& config, bool* cache_hit) {
  return Get(id, config, Encoding::kAuto, /*use_compression=*/true, cache_hit);
}

Result<std::shared_ptr<const ContextCache::Entry>> ContextCache::Get(
    const std::string& id, const Ess::Config& config, Encoding encoding,
    bool use_compression, bool* cache_hit) {
  return Get(id, config, encoding, use_compression, StorageBackend::kResident,
             cache_hit);
}

Result<std::shared_ptr<const ContextCache::Entry>> ContextCache::Get(
    const std::string& id, const Ess::Config& config, Encoding encoding,
    bool use_compression, StorageBackend backend, bool* cache_hit) {
  if (cache_hit != nullptr) *cache_hit = false;
  {
    const std::vector<std::string> ids = SuiteQueryIds();
    if (std::find(ids.begin(), ids.end(), id) == ids.end()) {
      return Status::NotFound("unknown suite query: " + id);
    }
  }
  const std::string key = Key(id, config, encoding, use_compression, backend);

  std::shared_ptr<Node> node;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = slots_.find(key);
    if (it != slots_.end()) {
      ++stats_.hits;
      if (cache_hit != nullptr) *cache_hit = true;
      // Touch: move to the front of the LRU list.
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      node = it->second.node;
    } else {
      ++stats_.misses;
      node = std::make_shared<Node>();
      lru_.push_front(key);
      slots_[key] = Slot{node, lru_.begin()};
      EvictLocked();
      stats_.size = slots_.size();
    }
  }

  // Build outside the cache lock so distinct keys construct in parallel;
  // the per-node mutex makes same-key racers wait for one build.
  std::lock_guard<std::mutex> build_lock(node->build_mu);
  if (!node->built) {
    auto entry = std::make_shared<Entry>();
    entry->catalog = IsJobQuery(id) ? JobCatalog(encoding, backend)
                                    : TpcdsCatalog(encoding, backend);
    entry->query = std::make_unique<Query>(MakeSuiteQuery(id));
    entry->key = key;
    RQP_CHECK(entry->query->Validate(*entry->catalog).ok());
    Result<std::unique_ptr<Ess>> ess =
        Ess::TryBuild(*entry->catalog, *entry->query, config);
    if (ess.ok()) {
      entry->ess = ess.MoveValue();
      node->entry = std::move(entry);
      node->build_status = Status::OK();
    } else {
      node->build_status = ess.status();
    }
    node->built = true;
    if (!node->build_status.ok()) {
      // Do not cache failures: drop the slot so a later Get retries.
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.failures;
      auto it = slots_.find(key);
      if (it != slots_.end() && it->second.node == node) {
        lru_.erase(it->second.lru_it);
        slots_.erase(it);
        stats_.size = slots_.size();
      }
    }
  }
  if (!node->build_status.ok()) {
    if (cache_hit != nullptr) *cache_hit = false;
    return node->build_status;
  }
  return node->entry;
}

ContextCache::Stats ContextCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace robustqp
