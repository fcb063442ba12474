#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>

namespace e2e {

namespace {

/// SplitMix64 step: advances `state` and returns the next 64 random bits.
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t s = a * 0x9e3779b97f4a7c15ULL ^ (b + 0x632be59bd9b4e019ULL);
  return SplitMix64(&s);
}

double Unit(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

uint64_t Fnv(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

int Dims(const std::string& query) { return query[0] - '0'; }

/// qa for point i of an n-point Kronecker lattice over the ESS axis,
/// log-uniform per dimension in [1e-5, 1]. The seed shifts the lattice by
/// less than its spacing, so the points move with the seed while the mix's
/// spread over the selectivity space, and thereby its cost, barely does.
std::string LatticeQa(const std::string& query, int i, int n, uint64_t seed) {
  static const double kPrimes[] = {2, 3, 5, 7, 11};
  std::string out;
  for (int d = 0; d < Dims(query); ++d) {
    const double alpha = std::fmod(std::sqrt(kPrimes[d]), 1.0);
    const double shift =
        Unit(Mix(Mix(seed, Fnv(query)), static_cast<uint64_t>(d))) / n;
    const double x = std::fmod(i * alpha + shift, 1.0);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", std::pow(10.0, -5.0 * (1.0 - x)));
    if (d > 0) out += ",";
    out += buf;
  }
  return out;
}

class Dealer {
 public:
  explicit Dealer(Workload* w) : w_(w) {}

  int AddLine(Line line) {
    w_->pool.push_back(std::move(line));
    return static_cast<int>(w_->pool.size()) - 1;
  }
  int AddSlot(std::vector<int> lines, int period = 1, int client_stride = 0) {
    w_->slots.push_back(Slot{std::move(lines), period, client_stride});
    return static_cast<int>(w_->slots.size()) - 1;
  }
  void Deal(int slot, int copies = 1) {
    for (int i = 0; i < copies; ++i) w_->deck.push_back(slot);
  }

 private:
  Workload* w_;
};

Line Sim(const std::string& query, const std::string& mode,
         const std::string& extra) {
  Line l;
  l.query = query;
  l.text = "SUBMIT query=" + query + " mode=" + mode + extra;
  return l;
}

Line Engine(const std::string& query, const std::string& mode,
            const std::string& extra) {
  Line l = Sim(query, mode, " use_engine=1 threads=1" + extra);
  l.engine = true;
  return l;
}

// Paper §6.3 on the real engine: every suite query family the engine
// serves, each algorithm and the native optimizer, both storage backends.
void EngineMix(uint64_t /*seed*/, Workload* w) {
  Dealer b(w);
  for (const char* q :
       {"2D_Q91", "3D_Q15", "3D_Q96", "4D_Q91", "2D_QBRAND", "4D_JOB_Q1a"}) {
    for (const char* storage : {"resident", "mmap"}) {
      const std::string st = std::string(" storage=") + storage;
      for (const char* mode : {"sb", "pb", "ab"}) {
        const int line = b.AddLine(Engine(q, mode, st));
        if (std::string(mode) == "sb") w->warmup.push_back(line);
        b.Deal(b.AddSlot({line}));
      }
      const int s1 = b.AddLine(Engine(q, "native", st + " shards=1"));
      const int s4 = b.AddLine(Engine(q, "native", st + " shards=4"));
      b.Deal(b.AddSlot({s1, s4}));
    }
  }
}

// Paper §6.1-6.2: the simulated-oracle MSO/ASO sweep over the selectivity
// space. PlanBouquet on 5D_Q19 is left out: one such request costs ~0.5 s,
// which alone would be most of the mix's work.
void SimSweep(uint64_t seed, Workload* w) {
  Dealer b(w);
  for (const char* q :
       {"2D_Q91", "3D_Q15", "3D_Q96", "4D_Q7", "4D_Q91", "5D_Q19"}) {
    const bool five = Dims(q) == 5;
    const int n_sb = five ? 50 : 40;
    const int n_pb = five ? 0 : 20;
    for (const auto& [mode, n] :
         {std::pair<const char*, int>{"sb", n_sb}, {"ab", n_sb}, {"pb", n_pb}}) {
      for (int i = 0; i < n; ++i) {
        const int line =
            b.AddLine(Sim(q, mode, " qa=" + LatticeQa(q, i, n_sb, seed)));
        if (i == 0 && std::string(mode) == "sb") w->warmup.push_back(line);
        b.Deal(b.AddSlot({line}));
      }
    }
  }
}

// Working set 4x the cache: 32 contexts (query x grid points x build mode)
// drawn Zipf(s=1) against --cache-capacity 8. Popularity falls with grid
// resolution, as when most clients keep coarse default grids: the eight
// coarsest contexts are the hot set, and the finest, costliest builds are
// the rare requests that miss every time.
void ContextChurn(uint64_t seed, Workload* w) {
  w->cache_capacity = 8;
  Dealer b(w);
  struct Ctx {
    std::string query, options;
  };
  std::vector<Ctx> ctxs;  // in rank order
  for (int points : {4, 6, 8, 10}) {
    for (const char* build : {"exhaustive", "exact"}) {
      for (const char* q : {"2D_Q91", "3D_Q15", "4D_Q91", "4D_JOB_Q1a"}) {
        ctxs.push_back(
            {q, " points=" + std::to_string(points) + " build=" + build});
      }
    }
  }

  // Largest-remainder apportionment of a 128-request deck by 1/rank.
  const int kDeck = 128;
  const int n = static_cast<int>(ctxs.size());
  double harmonic = 0.0;
  for (int r = 1; r <= n; ++r) harmonic += 1.0 / r;
  std::vector<int> copies(static_cast<size_t>(n));
  std::vector<std::pair<double, int>> remainders;
  int dealt = 0;
  for (int r = 0; r < n; ++r) {
    const double share = kDeck / (harmonic * (r + 1));
    copies[static_cast<size_t>(r)] = std::max(1, static_cast<int>(share));
    dealt += copies[static_cast<size_t>(r)];
    remainders.push_back({share - std::floor(share), r});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (size_t i = 0; dealt < kDeck; ++i, ++dealt) {
    ++copies[static_cast<size_t>(remainders[i % remainders.size()].second)];
  }

  for (int r = 0; r < n; ++r) {
    const Ctx& c = ctxs[static_cast<size_t>(r)];
    // Four qa points per context, jittered by the seed by less than 1/32
    // of the axis: a hit's cost, which sets this mix's median latency,
    // stays put from seed to seed.
    std::vector<int> lines;
    for (int v = 0; v < 4; ++v) {
      lines.push_back(b.AddLine(
          Sim(c.query, v % 2 == 0 ? "sb" : "ab",
              c.options + " qa=" + LatticeQa(c.query + c.options, v, 32, seed))));
    }
    b.Deal(b.AddSlot(lines, 1, 1), copies[static_cast<size_t>(r)]);
  }
  // Set-up resolves only the two catalogs, through one context each.
  for (const char* q : {"2D_Q91", "4D_JOB_Q1a"}) {
    for (size_t i = 0; i < w->pool.size(); ++i) {
      if (w->pool[i].query == q &&
          w->pool[i].text.find(" points=4 build=exhaustive") != std::string::npos) {
        w->warmup.push_back(static_cast<int>(i));
        break;
      }
    }
  }
}

// Writes beside reads in the server layer: clean simulated requests share
// the service with chaos engine requests (exclusive fault lock) and
// feedback requests (FeedbackStore::Observe, drift invalidations).
void ChaosFeedback(uint64_t seed, Workload* w) {
  Dealer b(w);
  const char* queries[] = {"2D_Q91", "3D_Q15"};
  const char* modes[] = {"sb", "ab"};
  std::vector<int> clean;
  for (const char* q : queries) {
    for (const char* m : modes) {
      for (int i = 0; i < 16; ++i) {
        clean.push_back(b.AddLine(Sim(q, m, " qa=" + LatticeQa(q, i, 16, seed))));
        if (i == 0 && std::string(m) == "sb") w->warmup.push_back(clean.back());
      }
    }
  }
  std::vector<int> chaos;
  for (int k = 0; k < 64; ++k) {
    Line l = Engine(queries[k % 2], modes[(k / 2) % 2],
                    " faults=exec.*:p=0.05 seed=" + std::to_string(k + 1));
    l.chaos = true;
    chaos.push_back(b.AddLine(l));
  }
  std::vector<int> fb;
  for (const char* qa : {"0.2,0.2", "0.0005,0.001"}) {
    Line l = Sim("2D_Q91", "sb", std::string(" feedback=1 qa=") + qa);
    l.feedback = true;
    fb.push_back(b.AddLine(l));
  }
  b.Deal(b.AddSlot(clean, 1, 16), 8);
  b.Deal(b.AddSlot(chaos, 1, 16), 4);
  b.Deal(b.AddSlot(fb, 50), 4);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "engine_mix", "sim_sweep", "context_churn", "chaos_feedback"};
  return names;
}

std::optional<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  static const std::map<std::string, std::function<void(uint64_t, Workload*)>>
      makers = {{"engine_mix", EngineMix},
                {"sim_sweep", SimSweep},
                {"context_churn", ContextChurn},
                {"chaos_feedback", ChaosFeedback}};
  auto it = makers.find(name);
  if (it == makers.end()) return std::nullopt;
  Workload w;
  w.name = name;
  it->second(seed, &w);
  return w;
}

Stream::Stream(const Workload* workload, uint64_t seed, int client)
    : workload_(workload),
      rng_(Mix(seed, 0x5eedULL + static_cast<uint64_t>(client))),
      client_(client),
      order_(workload->deck),
      pos_(workload->deck.size()),
      uses_(workload->slots.size(), 0) {}

void Stream::Shuffle() {
  for (size_t i = order_.size(); i > 1; --i) {
    std::swap(order_[i - 1], order_[SplitMix64(&rng_) % i]);
  }
  pos_ = 0;
}

int Stream::Next() {
  if (pos_ == order_.size()) Shuffle();
  const int slot_id = order_[pos_++];
  const Slot& slot = workload_->slots[static_cast<size_t>(slot_id)];
  const int64_t k = uses_[static_cast<size_t>(slot_id)]++;
  const size_t i = static_cast<size_t>(k / slot.period +
                                       int64_t{client_} * slot.client_stride) %
                   slot.lines.size();
  return slot.lines[i];
}

}  // namespace e2e
