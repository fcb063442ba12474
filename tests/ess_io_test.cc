// Tests for ESS persistence (Section 7 offline contour construction):
// exact round-trip of the surface, contour/frontier re-derivation,
// algorithm-result equivalence on the loaded surface, and rejection of
// corrupt or mismatched streams.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/oracle.h"
#include "core/spillbound.h"
#include "ess/ess.h"
#include "test_util.h"
#include "workloads/tpch_mini.h"

namespace robustqp {
namespace {

using testing_util::MakeBranchQuery;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

class EssIoTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeTinyCatalog().release();
    query_ = new Query(MakeStarQuery(2));
    Ess::Config config;
    config.points_per_dim = 14;
    config.min_sel = 1e-4;
    ess_ = Ess::Build(*catalog_, *query_, config).release();
  }
  static Catalog* catalog_;
  static Query* query_;
  static Ess* ess_;
};
Catalog* EssIoTest::catalog_ = nullptr;
Query* EssIoTest::query_ = nullptr;
Ess* EssIoTest::ess_ = nullptr;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Rewrites a saved stream into an older version's layout: v2-v4 carry a
/// build-mode line ("<mode> <lambda>") and the refinement stats line (v3
/// and v4 end it with the fallback flag), v4 a checksum trailer, and v1
/// neither line.
std::string ToLegacy(const std::string& saved, int version, int mode) {
  std::string text = saved.substr(0, saved.rfind("CKSUM "));
  text.replace(0, text.find('\n'),
               std::string("RQPESS ").append(std::to_string(version)));
  size_t pos = 0;
  for (int line = 0; line < 4; ++line) pos = text.find('\n', pos) + 1;
  const size_t end = text.find('\n', pos) + 1;
  const std::string calls = text.substr(pos, end - 1 - pos);
  std::string stats;
  if (version >= 2) {
    stats = std::to_string(mode) + " 2\n" + calls + " " + calls + " 0 0 0 1";
    if (version >= 3) stats += " 0";
    stats += "\n";
  }
  text.replace(pos, end - pos, stats);
  if (version >= 4) {
    std::ostringstream trailer;
    trailer << "CKSUM " << std::hex << Fnv1a(text) << "\n";
    text += trailer.str();
  }
  return text;
}

TEST_F(EssIoTest, RoundTripPreservesSurface) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, *query_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const Ess& l = **loaded;

  EXPECT_EQ(l.dims(), ess_->dims());
  EXPECT_EQ(l.points(), ess_->points());
  EXPECT_EQ(l.num_locations(), ess_->num_locations());
  EXPECT_EQ(l.pool().size(), ess_->pool().size());
  EXPECT_EQ(l.num_contours(), ess_->num_contours());
  EXPECT_DOUBLE_EQ(l.cmin(), ess_->cmin());
  EXPECT_DOUBLE_EQ(l.cmax(), ess_->cmax());

  for (int64_t lin = 0; lin < ess_->num_locations(); ++lin) {
    EXPECT_DOUBLE_EQ(l.OptimalCost(lin), ess_->OptimalCost(lin));
    EXPECT_EQ(l.OptimalPlan(lin)->signature(),
              ess_->OptimalPlan(lin)->signature());
  }
  for (int i = 0; i < ess_->num_contours(); ++i) {
    EXPECT_DOUBLE_EQ(l.ContourCost(i), ess_->ContourCost(i));
    EXPECT_EQ(l.FrontierLocations(i), ess_->FrontierLocations(i));
  }
}

TEST_F(EssIoTest, AlgorithmsBehaveIdenticallyOnLoadedSurface) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, *query_);
  ASSERT_TRUE(loaded.ok());

  SpillBound sb_orig(ess_);
  SpillBound sb_loaded(loaded->get());
  for (int64_t lin = 0; lin < ess_->num_locations(); lin += 5) {
    SimulatedOracle o1(ess_, ess_->FromLinear(lin));
    SimulatedOracle o2(loaded->get(), (*loaded)->FromLinear(lin));
    const DiscoveryResult r1 = sb_orig.Run(&o1);
    const DiscoveryResult r2 = sb_loaded.Run(&o2);
    ASSERT_TRUE(r1.completed && r2.completed);
    EXPECT_DOUBLE_EQ(r1.total_cost, r2.total_cost) << "qa=" << lin;
    EXPECT_EQ(r1.steps.size(), r2.steps.size());
  }
}

TEST_F(EssIoTest, RejectsWrongQuery) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  const Query other = MakeBranchQuery(2);
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, other);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EssIoTest, RejectsWrongDimensionality) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  // Same name trick: a 3-epp star query renamed to match.
  Query three = MakeStarQuery(3);
  Query renamed(query_->name(), three.tables(), three.joins(), three.filters(),
                three.epps());
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, renamed);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(EssIoTest, RejectsGarbage) {
  std::stringstream buffer("this is not an ess stream");
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, *query_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(EssIoTest, RejectsTruncatedStream) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  const std::string full = buffer.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  Result<std::unique_ptr<Ess>> loaded =
      Ess::Load(truncated, *catalog_, *query_);
  EXPECT_FALSE(loaded.ok());
}

TEST_F(EssIoTest, RejectsUnsupportedVersion) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  std::string text = buffer.str();
  text.replace(text.find(" 5\n"), 3, " 9\n");
  std::stringstream patched(text);
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(patched, *catalog_, *query_);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kUnsupported);
}

TEST_F(EssIoTest, RoundTripPreservesBuildStats) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, *query_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_GT(ess_->build_stats().optimizer_calls, 0);
  EXPECT_EQ((*loaded)->build_stats().optimizer_calls,
            ess_->build_stats().optimizer_calls);
}

TEST_F(EssIoTest, LoadsVersion1StreamWithDefaultStats) {
  // A v1 stream has no build-mode and stats lines; loading one must
  // succeed with default-initialized stats so pre-existing saved surfaces
  // keep working.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  std::stringstream patched(ToLegacy(buffer.str(), 1, 0));
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(patched, *catalog_, *query_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->build_stats().optimizer_calls, 0);
  EXPECT_EQ((*loaded)->num_locations(), ess_->num_locations());
  for (int64_t lin = 0; lin < ess_->num_locations(); lin += 7) {
    EXPECT_DOUBLE_EQ((*loaded)->OptimalCost(lin), ess_->OptimalCost(lin));
  }
}

TEST_F(EssIoTest, LoadsVersion4ExactStreams) {
  // A v2-v4 stream of mode 0 (exhaustive) or 1 (exact) holds the exact
  // surface; it loads with its optimizer-call count and every cost and
  // plan intact.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  for (const int mode : {0, 1}) {
    SCOPED_TRACE(mode);
    std::stringstream v4(ToLegacy(buffer.str(), 4, mode));
    Result<std::unique_ptr<Ess>> loaded = Ess::Load(v4, *catalog_, *query_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ((*loaded)->build_stats().optimizer_calls,
              ess_->build_stats().optimizer_calls);
    ASSERT_EQ((*loaded)->num_locations(), ess_->num_locations());
    for (int64_t lin = 0; lin < ess_->num_locations(); ++lin) {
      EXPECT_EQ((*loaded)->OptimalCost(lin), ess_->OptimalCost(lin));
      EXPECT_EQ((*loaded)->OptimalPlan(lin)->signature(),
                ess_->OptimalPlan(lin)->signature());
    }
  }
}

TEST_F(EssIoTest, RejectsVersion4RecostStream) {
  // Mode 2 marked an approximate recosted surface: refused cleanly, in
  // every version that could carry it.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  for (const int version : {2, 3, 4}) {
    SCOPED_TRACE(version);
    std::stringstream legacy(ToLegacy(buffer.str(), version, 2));
    Result<std::unique_ptr<Ess>> loaded =
        Ess::Load(legacy, *catalog_, *query_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST_F(EssIoTest, FuzzTruncationAlwaysRejected) {
  // The checksum trailer covers every payload byte, so any prefix of
  // a saved stream (short of the full file) must be rejected cleanly.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  const std::string full = buffer.str();
  for (size_t len = 0; len + 2 < full.size(); len += 37) {
    std::stringstream truncated(full.substr(0, len));
    Result<std::unique_ptr<Ess>> loaded =
        Ess::Load(truncated, *catalog_, *query_);
    EXPECT_FALSE(loaded.ok()) << "prefix length " << len;
  }
}

TEST_F(EssIoTest, FuzzBitFlipsAlwaysRejected) {
  // Single-bit corruption anywhere in a checksummed stream — header, plan
  // bodies, grid data, or the trailer itself, its final newline included —
  // must be rejected cleanly.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  const std::string full = buffer.str();
  const size_t stride = std::max<size_t>(1, full.size() / 128);
  std::vector<size_t> positions;
  for (size_t pos = 0; pos < full.size(); pos += stride) positions.push_back(pos);
  positions.push_back(full.size() - 1);
  for (const size_t pos : positions) {
    for (const int bit : {0, 3, 6}) {
      std::string flipped = full;
      flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << bit));
      std::stringstream corrupted(flipped);
      Result<std::unique_ptr<Ess>> loaded =
          Ess::Load(corrupted, *catalog_, *query_);
      EXPECT_FALSE(loaded.ok()) << "pos " << pos << " bit " << bit;
    }
  }
}

TEST_F(EssIoTest, FuzzLegacyStreamDamageNeverCrashes) {
  // Pre-checksum (v3) streams cannot detect every corruption — a flipped
  // or truncated cost digit still parses — but damage must never crash
  // the loader or produce a partially-populated surface.
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  const std::string text = ToLegacy(buffer.str(), 3, 1);
  const auto check = [&](const std::string& damaged) {
    std::stringstream t(damaged);
    Result<std::unique_ptr<Ess>> loaded = Ess::Load(t, *catalog_, *query_);
    if (loaded.ok()) {
      EXPECT_EQ((*loaded)->num_locations(), ess_->num_locations());
      EXPECT_GT((*loaded)->num_contours(), 0);
    }
  };
  for (size_t len = 0; len < text.size(); len += 53) {
    check(text.substr(0, len));
  }
  const size_t stride = std::max<size_t>(1, text.size() / 96);
  for (size_t pos = 0; pos < text.size(); pos += stride) {
    std::string flipped = text;
    flipped[pos] = static_cast<char>(flipped[pos] ^ (1 << 2));
    check(flipped);
  }
}

TEST(EssIoMixedEppTest, RoundTripWithFilterEpp) {
  // The general formulation: plans of a mixed join/filter-epp query
  // serialize and reload with identical surfaces and discovery behaviour.
  auto catalog = BuildTpchMiniCatalog(4242, 0.1);
  const Query query = MakeExampleQueryEq(/*filter_epp=*/true);
  ASSERT_TRUE(query.Validate(*catalog).ok());
  Ess::Config config;
  config.points_per_dim = 6;
  config.min_sel = 1e-3;
  auto ess = Ess::Build(*catalog, query, config);

  std::stringstream buffer;
  ASSERT_TRUE(ess->Save(buffer).ok());
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog, query);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (int64_t lin = 0; lin < ess->num_locations(); ++lin) {
    ASSERT_DOUBLE_EQ((*loaded)->OptimalCost(lin), ess->OptimalCost(lin));
    ASSERT_EQ((*loaded)->OptimalPlan(lin)->signature(),
              ess->OptimalPlan(lin)->signature());
  }
  SpillBound sb1(ess.get());
  SpillBound sb2(loaded->get());
  for (int64_t lin = 0; lin < ess->num_locations(); lin += 17) {
    SimulatedOracle o1(ess.get(), ess->FromLinear(lin));
    SimulatedOracle o2(loaded->get(), (*loaded)->FromLinear(lin));
    EXPECT_DOUBLE_EQ(sb1.Run(&o1).total_cost, sb2.Run(&o2).total_cost);
  }
}

}  // namespace
}  // namespace robustqp
