// The benchmark's four traffic mixes, generated from --seed.
//
// A workload is a pool of distinct SUBMIT lines plus a deck: a multiset of
// slots in the exact proportions of the mix. Every client walks its own
// stream of blocks, each block a seeded permutation of the deck, so the mix
// holds exactly in every block while the order differs per seed and
// client. A slot cycles through its pool lines; that is how native
// requests alternate shards=1/4 and how feedback requests switch their qa
// every 50 uses. Keeping the pool finite bounds the in-process reference
// runs that check every reply.

#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace e2e {

/// One distinct request line.
struct Line {
  std::string text;  // "SUBMIT ...", no newline
  std::string query;
  bool engine = false;    // use_engine=1
  bool chaos = false;     // carries a fault spec
  bool feedback = false;  // stateful: excluded from payload checks
  bool clean() const { return !chaos && !feedback; }
};

/// A deck position and the pool lines it cycles through: the k-th use of
/// the slot by client c sends lines[(k / period + c * client_stride) %
/// lines.size()].
struct Slot {
  std::vector<int> lines;
  int period = 1;
  int client_stride = 0;
};

struct Workload {
  std::string name;
  /// The server's --cache-capacity; the traced replay sizes its caches
  /// alike.
  size_t cache_capacity = 16;
  std::vector<Line> pool;
  std::vector<Slot> slots;
  /// Slot ids with multiplicity.
  std::vector<int> deck;
  /// Pool lines whose contexts set-up resolves before load starts.
  std::vector<int> warmup;
};

const std::vector<std::string>& WorkloadNames();

/// The named workload for `seed`; nullopt for an unknown name.
std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed);

/// One client's request sequence (pool indices).
class Stream {
 public:
  Stream(const Workload* workload, uint64_t seed, int client);
  int Next();

 private:
  void Shuffle();

  const Workload* workload_;
  uint64_t rng_;
  int client_;
  std::vector<int> order_;
  size_t pos_ = 0;
  std::vector<int64_t> uses_;
};

}  // namespace e2e

#endif  // E2EBENCH_WORKLOADS_H_
