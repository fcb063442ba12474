// Tests for the ESS build, the sweep of one optimizer call per grid
// location: recorded goldens pin its surface, plan-pool order, optimizer
// calls and fault draws, clean and under transient optimizer faults, at 1
// and 4 threads, so changes to the build stay bitwise neutral.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/fault.h"
#include "ess/ess.h"
#include "server/context_cache.h"
#include "workloads/queries.h"

namespace robustqp {
namespace {

/// Asserts the two surfaces agree bit-for-bit: identical optimal costs
/// and structurally identical optimal plans at every grid location.
void ExpectIdenticalSurfaces(const Ess& a, const Ess& b) {
  ASSERT_EQ(a.num_locations(), b.num_locations());
  for (int64_t lin = 0; lin < a.num_locations(); ++lin) {
    ASSERT_EQ(a.OptimalCost(lin), b.OptimalCost(lin))
        << "cost mismatch at lin=" << lin;
    ASSERT_EQ(a.OptimalPlan(lin)->signature(), b.OptimalPlan(lin)->signature())
        << "plan mismatch at lin=" << lin;
  }
  ASSERT_EQ(a.num_contours(), b.num_contours());
  for (int i = 0; i < a.num_contours(); ++i) {
    EXPECT_EQ(a.ContourCost(i), b.ContourCost(i));
    EXPECT_EQ(a.FrontierLocations(i), b.FrontierLocations(i));
  }
}

TEST(EssBuilderTest, SweepIsDeterministicAtAnyThreadCount) {
  // The sweep's optimizer calls run in parallel; interning in ascending
  // linear order must make the surface, the plan-pool order and the call
  // count independent of the thread count. 182x182 = 33,124 locations is
  // past kSweepFanOutLocations, below which the build runs inline.
  const std::shared_ptr<Catalog> catalog = ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery("2D_Q91");
  Ess::Config config;
  config.points_per_dim = 182;
  config.min_sel = 1e-4;
  config.num_threads = 1;
  auto serial = Ess::Build(*catalog, query, config);
  config.num_threads = 4;
  auto parallel = Ess::Build(*catalog, query, config);
  ASSERT_GE(serial->num_locations(), kSweepFanOutLocations);

  ExpectIdenticalSurfaces(*serial, *parallel);
  ASSERT_EQ(serial->pool().size(), parallel->pool().size());
  for (int i = 0; i < serial->pool().size(); ++i) {
    EXPECT_EQ(serial->pool().plans()[static_cast<size_t>(i)]->signature(),
              parallel->pool().plans()[static_cast<size_t>(i)]->signature())
        << "pool order differs at " << i;
  }
  EXPECT_EQ(serial->build_stats().optimizer_calls,
            parallel->build_stats().optimizer_calls);
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// One recorded sweep build: a digest of its surface (per location, the
/// interning ordinal of its plan and the bits of its cost), its plan pool
/// (size and digest of the signatures in interning order), and its
/// optimizer calls. The faulted rows build under kSweepFaultSpec, whose
/// transient optimizer faults are retried per location; they also pin the
/// optimizer.dp draws (evaluations and transients fired).
struct SweepGolden {
  const char* query;
  int points;
  bool faulted;
  uint64_t surface_digest;
  int pool_size;
  uint64_t pool_digest;
  int64_t optimizer_calls;
  int64_t dp_evaluations;
  int64_t dp_transients;
};

constexpr char kSweepFaultSpec[] = "optimizer.dp:p=0.05";
constexpr uint64_t kSweepFaultSeed = 37;

SweepGolden RecordSweep(const char* id, int points, bool faulted,
                        int threads) {
  const std::shared_ptr<Catalog> catalog = IsJobQuery(id)
                                               ? ContextCache::JobCatalog()
                                               : ContextCache::TpcdsCatalog();
  const Query query = MakeSuiteQuery(id);
  Ess::Config config;
  config.points_per_dim = points;
  config.num_threads = threads;
  if (faulted) {
    EXPECT_TRUE(
        FaultInjector::Configure(kSweepFaultSpec, kSweepFaultSeed).ok());
  }
  Result<std::unique_ptr<Ess>> built = Ess::TryBuild(*catalog, query, config);
  const FaultSiteStats dp =
      faulted ? FaultInjector::Current().Snapshot()[fault_site::kOptimizerDp]
              : FaultSiteStats{};
  FaultInjector::Disarm();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  if (!built.ok()) return SweepGolden{id, points, faulted, 0, 0, 0, 0, 0, 0};
  const Ess& ess = **built;
  std::unordered_map<const Plan*, uint64_t> ordinal;
  std::string signatures;
  for (const Plan* plan : ess.pool().plans()) {
    ordinal.emplace(plan, ordinal.size());
    signatures += plan->signature();
    signatures += '\n';
  }
  uint64_t surface = 1469598103934665603ull;
  for (int64_t lin = 0; lin < ess.num_locations(); ++lin) {
    uint64_t bits = 0;
    const double cost = ess.OptimalCost(lin);
    std::memcpy(&bits, &cost, sizeof(bits));
    for (const uint64_t word : {ordinal.at(ess.OptimalPlan(lin)), bits}) {
      for (int byte = 0; byte < 8; ++byte) {
        surface ^= (word >> (8 * byte)) & 0xff;
        surface *= 1099511628211ull;
      }
    }
  }
  return SweepGolden{id,
                     points,
                     faulted,
                     surface,
                     ess.pool().size(),
                     Fnv1a(signatures),
                     ess.build_stats().optimizer_calls,
                     dp.evaluations,
                     dp.transients};
}

std::string FormatSweepGolden(const SweepGolden& g) {
  std::ostringstream os;
  os << "{\"" << g.query << "\", " << g.points << ", "
     << (g.faulted ? "true" : "false") << ", 0x" << std::hex
     << g.surface_digest << "ull, " << std::dec << g.pool_size << ", 0x"
     << std::hex << g.pool_digest << "ull, " << std::dec << g.optimizer_calls
     << ", " << g.dp_evaluations << ", " << g.dp_transients << "}";
  return os.str();
}

// A transient optimizer.dp fault fails before the DP runs and is retried,
// so each faulted row makes its clean row's optimizer calls and builds the
// same surface.
const SweepGolden kSweepGoldens[] = {
    {"3D_Q96", 16, false, 0x90fb1e7174e9329ull, 49, 0x223448833149ff96ull,
     4096, 0, 0},
    {"3D_Q96", 16, true, 0x90fb1e7174e9329ull, 49, 0x223448833149ff96ull,
     4096, 4317, 221},
    {"4D_Q91", 6, false, 0xa9be83c6a1e06177ull, 188, 0x9fc0481e837c7aa5ull,
     1296, 0, 0},
    {"4D_Q91", 6, true, 0xa9be83c6a1e06177ull, 188, 0x9fc0481e837c7aa5ull,
     1296, 1366, 70},
    {"4D_JOB_Q1a", 8, false, 0x8c1da7896c112831ull, 38, 0xf736e1e8a5a27a2ull,
     4096, 0, 0},
    {"4D_JOB_Q1a", 8, true, 0x8c1da7896c112831ull, 38, 0xf736e1e8a5a27a2ull,
     4096, 4317, 221},
    {"5D_Q19", 4, false, 0x9fd9249befd8593aull, 295, 0x22714b08381dafe3ull,
     1024, 0, 0},
    {"5D_Q19", 4, true, 0x9fd9249befd8593aull, 295, 0x22714b08381dafe3ull,
     1024, 1075, 51},
    // 8^5 = 32,768 locations: at the fan-out cutoff, so at threads=4 this
    // is the one row whose sweep runs on a thread pool.
    {"5D_Q19", 8, false, 0xc0a9c9860eceb844ull, 733, 0x1abbf40a660444acull,
     32768, 0, 0},
    {"5D_Q19", 8, true, 0xc0a9c9860eceb844ull, 733, 0x1abbf40a660444acull,
     32768, 34463, 1695},
};

void ExpectSweepGoldens(const std::string& id, int points) {
  int checked = 0;
  for (const SweepGolden& want : kSweepGoldens) {
    if (id != want.query || points != want.points) continue;
    for (int threads : {1, 4}) {
      const SweepGolden got =
          RecordSweep(want.query, want.points, want.faulted, threads);
      SCOPED_TRACE(FormatSweepGolden(got) + " at threads=" +
                   std::to_string(threads));
      EXPECT_EQ(got.surface_digest, want.surface_digest);
      EXPECT_EQ(got.pool_size, want.pool_size);
      EXPECT_EQ(got.pool_digest, want.pool_digest);
      EXPECT_EQ(got.optimizer_calls, want.optimizer_calls);
      EXPECT_EQ(got.dp_evaluations, want.dp_evaluations);
      EXPECT_EQ(got.dp_transients, want.dp_transients);
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4);  // {clean, faulted} x {1, 4} threads
}

TEST(EssBuilderGoldenTest, Q96_3D_16) { ExpectSweepGoldens("3D_Q96", 16); }
TEST(EssBuilderGoldenTest, Q91_4D_6) { ExpectSweepGoldens("4D_Q91", 6); }
TEST(EssBuilderGoldenTest, JobQ1a_4D_8) { ExpectSweepGoldens("4D_JOB_Q1a", 8); }
TEST(EssBuilderGoldenTest, Q19_5D_4) { ExpectSweepGoldens("5D_Q19", 4); }
TEST(EssBuilderGoldenTest, Q19_5D_8) { ExpectSweepGoldens("5D_Q19", 8); }

}  // namespace
}  // namespace robustqp
