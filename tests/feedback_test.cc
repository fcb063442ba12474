// Tests for the closed-loop feedback subsystem: the FeedbackStore's
// calibration/drift/eviction mechanics, the MSO-preserving warm-start
// hint construction, the empty-store == store-disabled bitwise contract,
// warm-vs-cold differentials over stale statistics x shards x armed
// fault specs (every run's sub-optimality within the cold MSO bound),
// graceful degradation under feedback.store_load faults, the
// committed-attempt-only observation guarantee under transient retries,
// and the QueryService integration (counters, drift-driven ContextCache
// invalidation).

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "ess/ess.h"
#include "feedback/feedback_store.h"
#include "feedback/warm_start.h"
#include "harness/evaluator.h"
#include "optimizer/optimizer.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "test_util.h"
#include "workloads/stale_stats.h"

namespace robustqp {
namespace {

using feedback::FeedbackStore;
using feedback::MakeWarmStartHint;
using testing_util::MakeStarQuery;
using testing_util::MakeTinyCatalog;

/// RAII disarm so a failing assertion cannot leak an armed injector into
/// later tests.
struct ArmedScope {
  explicit ArmedScope(const std::string& spec, uint64_t seed = 42) {
    const Status st = FaultInjector::Configure(spec, seed);
    RQP_CHECK(st.ok());
  }
  ~ArmedScope() { FaultInjector::Disarm(); }
};

struct EssBundle {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Query> query;
  std::unique_ptr<Ess> ess;
};

EssBundle MakeEss(int num_epps, bool stale = false, int points = 12) {
  EssBundle b;
  b.catalog = MakeTinyCatalog();
  if (stale) {
    // Drifted NDV statistics: the classic "outdated ANALYZE" estimation
    // failure the feedback loop is meant to survive.
    b.catalog = WithStaleStatistics(*b.catalog, 50.0);
  }
  b.query = std::make_unique<Query>(MakeStarQuery(num_epps));
  Ess::Config config;
  config.points_per_dim = points;
  config.min_sel = 1e-4;
  b.ess = Ess::Build(*b.catalog, *b.query, config);
  return b;
}

GridLoc DeepQa(const Ess& ess) {
  return GridLoc(static_cast<size_t>(ess.dims()), ess.points() * 3 / 4);
}

GridLoc ShallowQa(const Ess& ess) {
  return GridLoc(static_cast<size_t>(ess.dims()), ess.points() / 4);
}

/// Seeds `store` with min_observations identical raw observations.
void SeedStore(FeedbackStore* store, const std::string& key,
               const std::vector<double>& obs, double cost) {
  for (int i = 0; i < store->options().min_observations; ++i) {
    ASSERT_FALSE(store->Observe(key, obs, cost, 0).drifted);
  }
}

/// Seeds `store` with enough identical observations at `qa` that Get()
/// returns a valid calibration centred there.
void SeedStore(FeedbackStore* store, const std::string& key, const Ess& ess,
               const GridLoc& qa) {
  const EssPoint sel = ess.SelAt(qa);
  const double cost = ess.OptimalCost(qa);
  const int contour = ess.ContourOf(cost);
  for (int i = 0; i < store->options().min_observations; ++i) {
    const FeedbackStore::DriftSignal sig =
        store->Observe(key, sel, cost, contour);
    ASSERT_FALSE(sig.drifted);
  }
}

// ---------------------------------------------------------------------------
// FeedbackStore basics: keying, calibration gating, LRU, invalidation.
// ---------------------------------------------------------------------------

TEST(FeedbackStoreTest, KeyPoolsAcrossPlatformKnobs) {
  // Engines/encodings/ESS grids deliberately do NOT key the store —
  // only query shape, ESS dimensionality, and the storage backend do
  // (mmap catalogs are rebuilt from disk, so their calibrations must not
  // leak into resident serving and vice versa).
  EXPECT_EQ(FeedbackStore::Key("2D_Q91", 2), "2D_Q91|d2|resident");
  EXPECT_EQ(FeedbackStore::Key("5D_Q19", 5), "5D_Q19|d5|resident");
  EXPECT_EQ(FeedbackStore::Key("2D_Q91", 2, "mmap"), "2D_Q91|d2|mmap");
  EXPECT_NE(FeedbackStore::Key("2D_Q91", 2), FeedbackStore::Key("2D_Q91", 3));
  EXPECT_NE(FeedbackStore::Key("2D_Q91", 2),
            FeedbackStore::Key("2D_Q91", 2, "mmap"));
}

TEST(FeedbackStoreTest, CalibrationGatesOnMinObservations) {
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("q", 2);
  const std::vector<double> obs = {0.01, 0.02};

  EXPECT_FALSE(store.Get(key).valid);  // nothing recorded
  for (int i = 0; i < store.options().min_observations - 1; ++i) {
    EXPECT_FALSE(store.Observe(key, obs, 100.0, 1).drifted);
    EXPECT_FALSE(store.Get(key).valid) << "valid before min_observations";
  }
  EXPECT_FALSE(store.Observe(key, obs, 100.0, 1).drifted);

  const FeedbackStore::Calibration cal = store.Get(key);
  ASSERT_TRUE(cal.valid);
  EXPECT_FALSE(cal.degraded);
  ASSERT_EQ(cal.sel.size(), 2u);
  // Identical observations: the geometric mean is the observation itself,
  // and the confidence region (sigma floored) brackets it.
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_NEAR(cal.sel[d], obs[d], obs[d] * 1e-9);
    EXPECT_LT(cal.lo[d], cal.sel[d]);
    EXPECT_GT(cal.hi[d], cal.sel[d]);
    EXPECT_GT(cal.lo[d], 0.0);
    EXPECT_LE(cal.hi[d], 1.0);
  }
  EXPECT_DOUBLE_EQ(cal.confirmed_cost, 100.0);
  EXPECT_EQ(cal.confirmed_contour, 1);
  EXPECT_EQ(cal.version, 0);

  const FeedbackStore::Stats s = store.stats();
  EXPECT_EQ(s.observations, store.options().min_observations);
  EXPECT_GE(s.misses, 1);
  EXPECT_GE(s.hits, 1);
  EXPECT_EQ(s.drift_events, 0);
  EXPECT_EQ(s.size, 1u);
}

TEST(FeedbackStoreTest, NonPositiveEntriesAreUnknownAndSkipped) {
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("q", 2);
  // Dimension 1 carries no evidence (-1) in any observation, so the
  // calibration never becomes valid no matter how dim 0 accumulates.
  for (int i = 0; i < 8; ++i) {
    store.Observe(key, {0.01, -1.0}, 10.0, 0);
  }
  EXPECT_FALSE(store.Get(key).valid);
  // One full observation later, dim 1 still lacks min_observations.
  store.Observe(key, {0.01, 0.5}, 10.0, 0);
  EXPECT_FALSE(store.Get(key).valid);
  store.Observe(key, {0.01, 0.5}, 10.0, 0);
  EXPECT_TRUE(store.Get(key).valid);
}

TEST(FeedbackStoreTest, LruEvictionAtCapacity) {
  FeedbackStore::Options opts;
  opts.capacity = 2;
  FeedbackStore store(opts);
  const std::vector<double> obs = {0.1};
  SeedStore(&store, "a|d1", obs, /*cost=*/1.0);
  SeedStore(&store, "b|d1", obs, 1.0);
  ASSERT_TRUE(store.Get("a|d1").valid);  // touch a: b is now LRU
  SeedStore(&store, "c|d1", obs, 1.0);   // evicts b
  EXPECT_TRUE(store.Get("a|d1").valid);
  EXPECT_FALSE(store.Get("b|d1").valid);
  EXPECT_TRUE(store.Get("c|d1").valid);
  const FeedbackStore::Stats s = store.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.size, 2u);
}

TEST(FeedbackStoreTest, InvalidateAndClear) {
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("q", 1);
  SeedStore(&store, key, {0.05}, 7.0);
  ASSERT_TRUE(store.Get(key).valid);

  store.Invalidate(key);
  EXPECT_FALSE(store.Get(key).valid);
  // History restarts: min_observations must accumulate again.
  SeedStore(&store, key, {0.05}, 7.0);
  EXPECT_TRUE(store.Get(key).valid);

  const int64_t observations_before = store.stats().observations;
  store.Clear();
  EXPECT_FALSE(store.Get(key).valid);
  EXPECT_EQ(store.stats().size, 0u);
  // Counters survive Clear.
  EXPECT_EQ(store.stats().observations, observations_before);
}

// ---------------------------------------------------------------------------
// Drift detection: CUSUM fires on a regime shift, invalidates, reseeds.
// ---------------------------------------------------------------------------

TEST(FeedbackStoreDriftTest, CusumFiresOnRegimeShiftAndReseeds) {
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("q", 2);
  for (int i = 0; i < 6; ++i) {
    ASSERT_FALSE(store.Observe(key, {0.01, 0.02}, 50.0, 1).drifted);
  }
  ASSERT_TRUE(store.Get(key).valid);

  // The data changed regimes: a 50x selectivity shift is a ~34-sigma
  // residual against the floored sigma, far past the CUSUM threshold.
  const FeedbackStore::DriftSignal sig =
      store.Observe(key, {0.5, 0.02}, 900.0, 3);
  EXPECT_TRUE(sig.drifted);
  EXPECT_EQ(sig.dim, 0);  // dim 0 carried the shift
  EXPECT_GT(sig.score, store.options().drift_threshold);
  EXPECT_EQ(store.stats().drift_events, 1);

  // The old calibration is gone; the shifted observation seeds the new
  // regime with a bumped version.
  FeedbackStore::Calibration cal = store.Get(key);
  EXPECT_FALSE(cal.valid);
  for (int i = 0; i < store.options().min_observations; ++i) {
    EXPECT_FALSE(store.Observe(key, {0.5, 0.02}, 900.0, 3).drifted)
        << "stable new regime must not re-trip";
  }
  cal = store.Get(key);
  ASSERT_TRUE(cal.valid);
  EXPECT_EQ(cal.version, 1);
  EXPECT_NEAR(cal.sel[0], 0.5, 0.5 * 1e-9);
}

TEST(FeedbackStoreDriftTest, SmallNoiseDoesNotTrip) {
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("q", 1);
  // Alternating observations within the slack band: CUSUM must decay,
  // never accumulate to the threshold.
  for (int i = 0; i < 64; ++i) {
    const double sel = (i % 2 == 0) ? 0.010 : 0.011;
    EXPECT_FALSE(store.Observe(key, {sel}, 5.0, 0).drifted) << "obs " << i;
  }
  EXPECT_EQ(store.stats().drift_events, 0);
  EXPECT_TRUE(store.Get(key).valid);
}

// ---------------------------------------------------------------------------
// Warm-start hint construction: cold-schedule budgets, conservative
// snapping, rejection of unusable calibrations.
// ---------------------------------------------------------------------------

class WarmStartHintTest : public ::testing::Test {
 protected:
  void SetUp() override { bundle_ = MakeEss(2); }
  EssBundle bundle_;
};

TEST_F(WarmStartHintTest, BudgetsAreTheUnchangedColdContourCosts) {
  const Ess& ess = *bundle_.ess;
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("star2", ess.dims());
  SeedStore(&store, key, ess, DeepQa(ess));

  const FeedbackStore::Calibration cal = store.Get(key);
  ASSERT_TRUE(cal.valid);
  const WarmStartHint hint = MakeWarmStartHint(ess, cal, /*max_probes=*/2);
  ASSERT_TRUE(hint.valid);
  ASSERT_NE(hint.probe_plan, nullptr);
  ASSERT_FALSE(hint.probe_budgets.empty());
  EXPECT_LE(hint.probe_budgets.size(), 2u);
  EXPECT_EQ(hint.last_contour - hint.first_contour + 1,
            static_cast<int>(hint.probe_budgets.size()));
  // The probes reuse the cold doubling schedule verbatim — this is the
  // heart of the MSO-preservation argument.
  for (size_t i = 0; i < hint.probe_budgets.size(); ++i) {
    EXPECT_DOUBLE_EQ(hint.probe_budgets[i],
                     ess.ContourCost(hint.first_contour + static_cast<int>(i)));
  }
  // The final budget covers the region's expensive corner: the seeded
  // location's optimal cost must fit under it.
  EXPECT_GE(hint.probe_budgets.back(), ess.OptimalCost(DeepQa(ess)));
}

TEST_F(WarmStartHintTest, UnusableCalibrationsYieldInvalidHints) {
  const Ess& ess = *bundle_.ess;
  FeedbackStore::Calibration cal;  // invalid by default
  EXPECT_FALSE(MakeWarmStartHint(ess, cal).valid);

  cal.valid = true;
  cal.degraded = true;
  cal.sel = cal.lo = cal.hi = std::vector<double>(2, 0.01);
  EXPECT_FALSE(MakeWarmStartHint(ess, cal).valid);

  // Dimensionality mismatch with the surface.
  cal.degraded = false;
  cal.sel = cal.lo = cal.hi = std::vector<double>(3, 0.01);
  EXPECT_FALSE(MakeWarmStartHint(ess, cal).valid);
}

// ---------------------------------------------------------------------------
// Bitwise contracts: empty store == disabled store == no store.
// ---------------------------------------------------------------------------

TEST(FeedbackDifferentialTest, EmptyStoreFirstRunBitIdenticalToDisabled) {
  const EssBundle b = MakeEss(2);
  const Ess& ess = *b.ess;
  const GridLoc qa = DeepQa(ess);
  SpillBound sb(&ess);

  const std::vector<RepeatedRunStats> cold =
      EvaluateRepeated(sb, ess, qa, "star2", /*store=*/nullptr, 1);
  FeedbackStore store;
  const std::vector<RepeatedRunStats> fresh =
      EvaluateRepeated(sb, ess, qa, "star2", &store, 1);

  ASSERT_EQ(cold.size(), 1u);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_TRUE(cold[0].completed && fresh[0].completed);
  // An empty store's miss must produce the disabled-store run, bitwise.
  EXPECT_EQ(fresh[0].total_cost, cold[0].total_cost);
  EXPECT_EQ(fresh[0].num_executions, cold[0].num_executions);
  EXPECT_FALSE(fresh[0].feedback_hit);
  EXPECT_FALSE(fresh[0].warm_started);
}

TEST(FeedbackDifferentialTest, RunOneShotNullStoreMatchesFeedbackOff) {
  ServiceRequest off;
  off.qa = {0.05, 0.1};
  ServiceRequest on = off;
  on.options.use_feedback = true;

  ContextCache cache_a(ContextCache::Options{4});
  ContextCache cache_b(ContextCache::Options{4});
  const ServiceResponse r_off = QueryService::RunOneShot(off, &cache_a);
  // use_feedback with no store behaves exactly like feedback off.
  const ServiceResponse r_on =
      QueryService::RunOneShot(on, &cache_b, /*store=*/nullptr);

  ASSERT_TRUE(r_off.status.ok());
  ASSERT_TRUE(r_on.status.ok());
  EXPECT_EQ(r_on.cost_used, r_off.cost_used);
  EXPECT_EQ(r_on.discovery.steps.size(), r_off.discovery.steps.size());
  EXPECT_EQ(r_on.suboptimality, r_off.suboptimality);
  EXPECT_FALSE(r_on.feedback_hit);
  EXPECT_FALSE(r_on.warm_started);
  EXPECT_FALSE(r_on.feedback_drift);
}

// ---------------------------------------------------------------------------
// Warm-vs-cold differential: stale statistics x algorithms x shards x
// armed fault specs. Every run must complete within the cold MSO bound;
// warm runs must be cheaper than cold ones.
// ---------------------------------------------------------------------------

TEST(FeedbackDifferentialTest, WarmNeverExceedsColdMsoBoundUnderChaos) {
  constexpr int kRepeats = 6;
  const char* kSpecs[] = {"", "exec.*:p=0.01",
                          "exec.*:p=0.005;feedback.store_load:p=0.2"};
  for (const bool stale : {false, true}) {
    const EssBundle b = MakeEss(2, stale);
    const Ess& ess = *b.ess;
    const GridLoc qa = DeepQa(ess);
    SpillBound sb(&ess);
    PlanBouquet pb(&ess);
    for (const DiscoveryAlgorithm* algo :
         {static_cast<const DiscoveryAlgorithm*>(&sb),
          static_cast<const DiscoveryAlgorithm*>(&pb)}) {
      for (const int shards : {1, 4}) {
        for (const char* spec : kSpecs) {
          SCOPED_TRACE(std::string(algo->name()) + " stale=" +
                       (stale ? "1" : "0") + " shards=" +
                       std::to_string(shards) + " spec=" + spec);
          EvalOptions opts;
          opts.fault_spec = spec;
          opts.num_shards = shards;
          // Sharding is guarantee-preserving (shard/mso.h): the composed
          // bound equals the per-shard one for homogeneous shards.
          const double bound =
              shard::ComposeMsoBound(algo->MsoGuarantee(), shards).composed;

          FeedbackStore store;
          const std::vector<RepeatedRunStats> runs = EvaluateRepeated(
              *algo, ess, qa, "star2", &store, kRepeats, opts);
          ASSERT_EQ(runs.size(), static_cast<size_t>(kRepeats));
          const double cold_cost = runs[0].total_cost;
          bool any_warm = false;
          for (int i = 0; i < kRepeats; ++i) {
            EXPECT_TRUE(runs[i].completed) << "run " << i;
            // The acceptance claim: warm-started or not, degraded or
            // not, no run's sub-optimality exceeds the cold MSO bound.
            EXPECT_LE(runs[i].suboptimality, bound) << "run " << i;
            if (runs[i].warm_started) {
              any_warm = true;
              EXPECT_TRUE(runs[i].feedback_hit) << "run " << i;
              // Repeats at a fixed q_a stay inside the region: probes
              // complete, no cold fallback, cheaper than the cold run.
              EXPECT_TRUE(runs[i].warm_completed) << "run " << i;
              EXPECT_FALSE(runs[i].warm_fell_back) << "run " << i;
              EXPECT_LE(runs[i].total_cost, cold_cost) << "run " << i;
            }
          }
          // min_observations cold runs seed the store; with store_load
          // faults armed some later lookups degrade back to cold, but at
          // p=0.2 six repeats cannot all degrade.
          EXPECT_TRUE(any_warm);
        }
      }
    }
  }
}

TEST(FeedbackDifferentialTest, WarmRepeatIsAtLeastTwiceAsCheapDeepInTheGrid) {
  // The headline amortization claim (also RQP_CHECKed by bench_feedback
  // and gated by CI at 2x): a deep true location makes the cold doubling
  // sequence climb several contours that a warm start skips.
  const EssBundle b = MakeEss(2);
  const Ess& ess = *b.ess;
  const GridLoc qa = DeepQa(ess);
  for (const char* algo_name : {"sb", "pb"}) {
    std::unique_ptr<DiscoveryAlgorithm> algo;
    if (std::string(algo_name) == "pb") {
      algo = std::make_unique<PlanBouquet>(&ess);
    } else {
      algo = std::make_unique<SpillBound>(&ess);
    }
    FeedbackStore store;
    const std::vector<RepeatedRunStats> runs =
        EvaluateRepeated(*algo, ess, qa, "star2", &store,
                         store.options().min_observations + 2);
    const RepeatedRunStats& cold = runs.front();
    const RepeatedRunStats& warm = runs.back();
    ASSERT_TRUE(warm.warm_started && warm.warm_completed) << algo_name;
    EXPECT_GE(cold.total_cost, 2.0 * warm.total_cost) << algo_name;
    EXPECT_LT(warm.num_executions, cold.num_executions) << algo_name;
  }
}

// ---------------------------------------------------------------------------
// Region miss: probes fail, the complete cold schedule runs after them,
// and the warm spend is a bounded additive tax.
// ---------------------------------------------------------------------------

TEST(WarmFallbackTest, BoundaryCrossingRunsTheFullColdScheduleAfterProbes) {
  const EssBundle b = MakeEss(2);
  const Ess& ess = *b.ess;
  SpillBound sb(&ess);
  const GridLoc deep = DeepQa(ess);

  // Calibration centred on a shallow location; the true location is deep
  // — far outside the tight (sigma-floored) confidence region.
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("star2", ess.dims());
  SeedStore(&store, key, ess, ShallowQa(ess));
  const FeedbackStore::Calibration cal = store.Get(key);
  ASSERT_TRUE(cal.valid);
  const WarmStartHint hint = MakeWarmStartHint(ess, cal);
  ASSERT_TRUE(hint.valid);

  SimulatedOracle cold_oracle(&ess, deep);
  const DiscoveryResult cold = sb.Run(&cold_oracle);
  ASSERT_TRUE(cold.completed);

  SimulatedOracle warm_oracle(&ess, deep);
  const DiscoveryResult warm = sb.Run(&warm_oracle, &hint);
  ASSERT_TRUE(warm.completed);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_FALSE(warm.warm_completed);
  EXPECT_TRUE(warm.warm_fell_back);
  EXPECT_GT(warm.warm_cost, 0.0);

  // Provable fallback: after the probes, the cold sequence runs verbatim
  // from contour 0 — step for step the same schedule, charges included.
  const size_t probes = warm.steps.size() - cold.steps.size();
  ASSERT_GE(warm.steps.size(), cold.steps.size());
  ASSERT_EQ(probes, hint.probe_budgets.size());
  for (size_t i = 0; i < cold.steps.size(); ++i) {
    const ExecutionStep& w = warm.steps[probes + i];
    const ExecutionStep& c = cold.steps[i];
    EXPECT_EQ(w.plan_name, c.plan_name) << "step " << i;
    EXPECT_EQ(w.contour, c.contour) << "step " << i;
    EXPECT_EQ(w.spill_dim, c.spill_dim) << "step " << i;
    EXPECT_DOUBLE_EQ(w.budget, c.budget) << "step " << i;
    EXPECT_DOUBLE_EQ(w.cost_charged, c.cost_charged) << "step " << i;
  }
  // The abandoned warm spend is an additive tax bounded by twice the
  // largest probe budget (geometric schedule) — the guarantee is never
  // weakened, only the constant.
  EXPECT_DOUBLE_EQ(warm.total_cost, cold.total_cost + warm.warm_cost);
  EXPECT_LE(warm.warm_cost, 2.0 * hint.probe_budgets.back());
  EXPECT_EQ(warm.final_contour, cold.final_contour);
}

// ---------------------------------------------------------------------------
// feedback.store_load fault site: a degraded lookup is a cold start,
// charged to the robustness report, never a correctness problem.
// ---------------------------------------------------------------------------

TEST(FeedbackStoreLoadFaultTest, DegradedLookupIsAChargedColdStart) {
  const EssBundle b = MakeEss(2);
  const Ess& ess = *b.ess;
  FeedbackStore store;
  const std::string key = FeedbackStore::Key("star2", ess.dims());
  SeedStore(&store, key, ess, DeepQa(ess));
  ASSERT_TRUE(store.Get(key).valid);

  {
    ArmedScope armed("feedback.store_load:p=1", 7);
    FaultStreamScope scope(0);
    RobustnessReport report;
    const FeedbackStore::Calibration cal = store.Get(key, &report);
    EXPECT_FALSE(cal.valid);
    EXPECT_TRUE(cal.degraded);
    EXPECT_GE(report.feedback_degradations, 1);
  }
  EXPECT_GE(store.stats().load_degradations, 1);
  // The history itself is untouched: disarmed lookups are warm again.
  EXPECT_TRUE(store.Get(key).valid);
}

TEST(FeedbackStoreLoadFaultTest, AlwaysDegradedRunsMatchNullStoreBitwise) {
  const EssBundle b = MakeEss(2);
  const Ess& ess = *b.ess;
  const GridLoc qa = DeepQa(ess);
  SpillBound sb(&ess);

  EvalOptions chaos;
  chaos.fault_spec = "feedback.store_load:p=1";
  FeedbackStore store;
  const std::vector<RepeatedRunStats> degraded =
      EvaluateRepeated(sb, ess, qa, "star2", &store, 4, chaos);
  const std::vector<RepeatedRunStats> cold =
      EvaluateRepeated(sb, ess, qa, "star2", /*store=*/nullptr, 4);

  ASSERT_EQ(degraded.size(), cold.size());
  for (size_t i = 0; i < cold.size(); ++i) {
    // Every lookup degraded to a cold start: identical to no store at
    // all, bit for bit (the site only gates the read, not discovery).
    EXPECT_FALSE(degraded[i].feedback_hit) << "run " << i;
    EXPECT_FALSE(degraded[i].warm_started) << "run " << i;
    EXPECT_EQ(degraded[i].total_cost, cold[i].total_cost) << "run " << i;
    EXPECT_EQ(degraded[i].num_executions, cold[i].num_executions)
        << "run " << i;
  }
  EXPECT_GE(store.stats().load_degradations, 4);
}

// ---------------------------------------------------------------------------
// Committed-attempt-only observation: transient retries never perturb the
// observed selectivities the store learns from.
// ---------------------------------------------------------------------------

TEST(CommittedAttemptTest, TransientRetriesDoNotPerturbObservations) {
  const std::unique_ptr<Catalog> catalog = MakeTinyCatalog();
  const Query query = MakeStarQuery(2);
  Optimizer optimizer(catalog.get(), &query);
  const std::unique_ptr<Plan> plan = optimizer.Optimize({0.01, 0.02});

  for (const auto engine :
       {Executor::Engine::kTuple, Executor::Engine::kBatch}) {
    Executor::Options opts;
    opts.engine = engine;
    Executor exec(catalog.get(), CostModel::PostgresFlavour(), opts);

    const Result<ExecutionResult> clean = exec.Execute(*plan, -1.0);
    ASSERT_TRUE(clean.ok());
    const std::vector<double> clean_obs =
        ObservedEppSelectivities(*plan, *clean);

    ExecutionResult faulted;
    {
      // after=0: the very first scan read faults (transient), so the
      // attempt is retried — the committed attempt must carry the counts.
      ArmedScope armed("exec.scan.read:after=0", 5);
      FaultStreamScope scope(3);
      const Result<ExecutionResult> r = exec.Execute(*plan, 1e12);
      ASSERT_TRUE(r.ok());
      faulted = *r;
    }
    ASSERT_TRUE(faulted.completed);
    EXPECT_GE(faulted.robustness.transient_retries, 1);
    const std::vector<double> faulted_obs =
        ObservedEppSelectivities(*plan, faulted);

    ASSERT_EQ(faulted_obs.size(), clean_obs.size());
    for (size_t d = 0; d < clean_obs.size(); ++d) {
      // Bitwise: retried work never double-counts into the ratios.
      EXPECT_EQ(faulted_obs[d], clean_obs[d]) << "dim " << d;
    }
  }
}

// ---------------------------------------------------------------------------
// QueryService integration: repeated feedback-enabled requests warm up,
// drift invalidates the serving cache, counters account for all of it.
// ---------------------------------------------------------------------------

TEST(QueryServiceFeedbackTest, RepeatedSubmitsWarmUpAndDriftEvictsContexts) {
  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(opts);
  const int64_t session = *service.OpenSession();

  ServiceRequest req;
  req.query_id = "2D_Q91";
  req.mode = RobustnessMode::kSpillBound;
  req.qa = {0.2, 0.2};
  req.options.use_feedback = true;
  req.options.points_per_dim = 8;
  req.options.ess_threads = 1;

  const int warmup = FeedbackStore::Options{}.min_observations;
  for (int i = 0; i < warmup; ++i) {
    const ServiceResponse r = *service.Wait(session, *service.Submit(session, req));
    ASSERT_TRUE(r.status.ok()) << i;
    EXPECT_FALSE(r.feedback_hit) << i;
    EXPECT_FALSE(r.warm_started) << i;
  }
  const ServiceResponse warm =
      *service.Wait(session, *service.Submit(session, req));
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.feedback_hit);
  EXPECT_TRUE(warm.warm_started);
  EXPECT_TRUE(warm.warm_completed);
  EXPECT_FALSE(warm.feedback_drift);

  // The data drifts: the same query now sees selectivities orders of
  // magnitude away. The observation trips CUSUM; the response reports it
  // and the query's cached contexts are evicted for rebuild.
  ServiceRequest shifted = req;
  shifted.qa = {0.0005, 0.001};
  const ServiceResponse drift =
      *service.Wait(session, *service.Submit(session, shifted));
  ASSERT_TRUE(drift.status.ok());
  EXPECT_TRUE(drift.feedback_drift);
  EXPECT_GE(service.cache_stats().invalidations, 1);

  const QueryService::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.feedback_misses, warmup);
  EXPECT_GE(stats.feedback_hits, 2);  // the warm run and the drift run
  EXPECT_GE(stats.warm_starts, 1);
  EXPECT_GE(stats.warm_completions, 1);
  EXPECT_EQ(stats.drift_events, 1);
  const FeedbackStore::Stats fb = service.feedback_stats();
  EXPECT_EQ(fb.drift_events, 1);
  // One observation per completed request: warmup runs, the warm run,
  // and the drift run (its observation seeds the new regime).
  EXPECT_EQ(fb.observations, warmup + 2);

  // Post-drift: the store reseeds on the new regime and warms up again.
  for (int i = 0; i < warmup; ++i) {
    ASSERT_TRUE(
        service.Wait(session, *service.Submit(session, shifted))->status.ok());
  }
  const ServiceResponse rewarmed =
      *service.Wait(session, *service.Submit(session, shifted));
  ASSERT_TRUE(rewarmed.status.ok());
  EXPECT_TRUE(rewarmed.warm_started);
  ASSERT_TRUE(service.CloseSession(session).ok());
}

TEST(ContextCacheTest, InvalidateQueryDropsOnlyMatchingEntries) {
  ContextCache cache(ContextCache::Options{/*capacity=*/4});
  RequestOptions small;
  small.points_per_dim = 8;
  small.ess_threads = 1;
  Ess::Config a = small.ToEssConfig();
  Ess::Config b = a;
  b.points_per_dim = 6;
  ASSERT_TRUE(cache.Get("2D_Q91", a).ok());
  ASSERT_TRUE(cache.Get("2D_Q91", b).ok());
  ASSERT_TRUE(cache.Get("3D_Q15", a).ok());
  ASSERT_EQ(cache.stats().size, 3u);

  // Both 2D_Q91 configurations drop; the other query survives.
  EXPECT_EQ(cache.InvalidateQuery("2D_Q91"), 2u);
  ContextCache::Stats s = cache.stats();
  EXPECT_EQ(s.size, 1u);
  EXPECT_EQ(s.invalidations, 2);
  bool hit = true;
  ASSERT_TRUE(cache.Get("3D_Q15", a, &hit).ok());
  EXPECT_TRUE(hit);
  ASSERT_TRUE(cache.Get("2D_Q91", a, &hit).ok());
  EXPECT_FALSE(hit);  // rebuilt after invalidation

  // A query id that is a prefix of another must not over-match.
  EXPECT_EQ(cache.InvalidateQuery("2D_Q9"), 0u);
}

}  // namespace
}  // namespace robustqp
