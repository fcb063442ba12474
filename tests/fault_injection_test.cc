// Tests for the deterministic fault-injection framework: spec parsing,
// hash-stream determinism at any thread count, zero-behaviour-change when
// disarmed (or armed but never firing), retry/degradation accounting in
// the executor and the retry loop, chaos sweeps through the evaluation
// harness, and the runtime invariant monitors (PCM violations,
// non-monotone contour budgets).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <latch>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/recovery.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "harness/evaluator.h"
#include "optimizer/optimizer.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "storage/column_file.h"
#include "test_util.h"

namespace robustqp {
namespace {

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

TEST(FaultSpecTest, RejectsMalformedSpecs) {
  for (const char* bad :
       {"nosuch.site:p=0.1", "exec.scan.read", "exec.scan.read:p=1.5",
        "exec.scan.read:p=-0.1", "exec.scan.read:after=-2",
        "exec.scan.read:kind=bogus", "exec.scan.read:mult=0.5",
        "exec.scan.read:frob=1", ":p=0.1",
        // The retired ESS refinement site is no longer a name.
        "ess.corner_opt:p=0.1"}) {
    const Status st = FaultInjector::Configure(bad, 1);
    EXPECT_FALSE(st.ok()) << "spec accepted: " << bad;
    EXPECT_FALSE(FaultInjector::Armed()) << bad;
  }
}

TEST(FaultSpecTest, EmptySpecDisarms) {
  ASSERT_TRUE(FaultInjector::Configure("exec.*:p=0.5", 1).ok());
  EXPECT_TRUE(FaultInjector::Armed());
  ASSERT_TRUE(FaultInjector::Configure("", 1).ok());
  EXPECT_FALSE(FaultInjector::Armed());
}

TEST(FaultSpecTest, WildcardAndOverride) {
  ArmedScope armed("exec.*:p=1,kind=spike;exec.scan.read:p=1,kind=permanent");
  FaultStreamScope scope(0);
  EXPECT_EQ(FaultInjector::Current().Evaluate(fault_site::kExecScanRead).kind,
            FaultKind::kPermanent);
  EXPECT_EQ(
      FaultInjector::Current().Evaluate(fault_site::kExecHashJoinBuild).kind,
      FaultKind::kCostSpike);
  // Non-exec sites are untouched by the exec.* clause.
  EXPECT_EQ(FaultInjector::Current().Evaluate(fault_site::kOptimizerDp).kind,
            FaultKind::kNone);
}

std::vector<FaultKind> DrawSequence(uint64_t stream, int site, int n) {
  FaultStreamScope scope(stream);
  std::vector<FaultKind> seq;
  for (int i = 0; i < n; ++i) {
    seq.push_back(FaultInjector::Current().Evaluate(site).kind);
  }
  return seq;
}

TEST(FaultDeterminismTest, StreamsAreSelfContainedAndThreadIndependent) {
  ArmedScope armed("*:p=0.2", 7);
  constexpr int kStreams = 16;
  constexpr int kDraws = 32;
  std::vector<std::vector<FaultKind>> expected(kStreams);
  for (int s = 0; s < kStreams; ++s) {
    expected[static_cast<size_t>(s)] =
        DrawSequence(static_cast<uint64_t>(s), fault_site::kExecScanRead,
                     kDraws);
  }
  // Re-drawing the same stream reproduces the sequence exactly (counters
  // are zeroed per scope), and drawing from pool workers — any partition
  // of streams onto threads — reproduces it too.
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::vector<FaultKind>> got(kStreams);
    const Status st = ParallelFor(
        &pool, kStreams, [&](int /*worker*/, int64_t begin, int64_t end) {
          for (int64_t s = begin; s < end; ++s) {
            got[static_cast<size_t>(s)] =
                DrawSequence(static_cast<uint64_t>(s),
                             fault_site::kExecScanRead, kDraws);
          }
        });
    ASSERT_TRUE(st.ok());
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
  // Distinct streams see distinct sequences (overwhelmingly likely at
  // p=0.2 over 32 draws; this is a fixed-seed regression, not a flake).
  EXPECT_NE(expected[0], expected[1]);
}

TEST(FaultDeterminismTest, AfterFiresExactlyOnce) {
  ArmedScope armed("exec.scan.read:after=3,kind=permanent", 9);
  FaultStreamScope scope(5);
  for (int i = 0; i < 12; ++i) {
    const FaultAction act =
        FaultInjector::Current().Evaluate(fault_site::kExecScanRead);
    if (i == 3) {
      EXPECT_EQ(act.kind, FaultKind::kPermanent);
    } else {
      EXPECT_EQ(act.kind, FaultKind::kNone);
    }
  }
}

// ---------------------------------------------------------------------------
// Per-thread arming: each thread draws from the injector it armed, fan-outs
// carry the caller's injector to their workers, raw pool tasks do not.
// ---------------------------------------------------------------------------

/// Every field of every draw over a few streams and sites, bit-exact.
std::vector<uint64_t> DrawBits() {
  std::vector<uint64_t> bits;
  for (uint64_t stream = 0; stream < 4; ++stream) {
    FaultStreamScope scope(stream);
    for (int i = 0; i < 64; ++i) {
      for (const int site : {fault_site::kExecScanRead,
                             fault_site::kExecHashJoinBuild,
                             fault_site::kOptimizerDp,
                             fault_site::kOracleCostModel}) {
        const FaultAction act = FaultInjector::Current().Evaluate(site);
        uint64_t u, magnitude;
        std::memcpy(&u, &act.u, sizeof(u));
        std::memcpy(&magnitude, &act.magnitude, sizeof(magnitude));
        bits.insert(bits.end(),
                    {static_cast<uint64_t>(act.kind), u, magnitude});
      }
    }
  }
  return bits;
}

/// Every per-site counter of the calling thread's current injector.
std::vector<int64_t> SnapshotCounts() {
  std::vector<int64_t> counts;
  for (const FaultSiteStats& st : FaultInjector::Current().Snapshot()) {
    counts.insert(counts.end(), {st.evaluations, st.transients,
                                 st.permanents, st.spikes, st.corruptions});
  }
  return counts;
}

struct ArmedDraws {
  std::vector<uint64_t> bits;
  std::vector<int64_t> counts;
};

TEST(FaultArmingTest, ConcurrentThreadsDrawTheirOwnSequences) {
  const std::string spec_a = "exec.*:p=0.3;optimizer.dp:p=0.2,kind=spike";
  const std::string spec_b = "*:p=0.1,kind=corrupt,scale=8";
  ArmedDraws solo_a, solo_b;
  {
    ArmedScope armed(spec_a, 5);
    solo_a = {DrawBits(), SnapshotCounts()};
  }
  {
    ArmedScope armed(spec_b, 9);
    solo_b = {DrawBits(), SnapshotCounts()};
  }
  ASSERT_NE(solo_a.bits, solo_b.bits);

  // Both armers are armed before either draws and stay armed until both
  // have drawn; the observer polls its own arming the whole time.
  std::latch all_armed(3);
  std::latch all_drawn(2);
  std::atomic<bool> done{false};
  ArmedDraws got_a, got_b;
  const auto armer = [&](const std::string& spec, uint64_t seed,
                         ArmedDraws* out) {
    RQP_CHECK(FaultInjector::Configure(spec, seed).ok());
    all_armed.arrive_and_wait();
    out->bits = DrawBits();
    out->counts = SnapshotCounts();
    all_drawn.arrive_and_wait();
    FaultInjector::Disarm();
  };
  bool observer_saw_armed = false;
  int64_t observer_checks = 0;
  std::thread a(armer, spec_a, 5, &got_a);
  std::thread b(armer, spec_b, 9, &got_b);
  std::thread observer([&] {
    all_armed.arrive_and_wait();
    while (!done.load()) {
      observer_saw_armed |= FaultInjector::Armed();
      ++observer_checks;
    }
    observer_saw_armed |= FaultInjector::Armed();
  });
  a.join();
  b.join();
  done.store(true);
  observer.join();

  EXPECT_EQ(got_a.bits, solo_a.bits);
  EXPECT_EQ(got_b.bits, solo_b.bits);
  EXPECT_EQ(got_a.counts, solo_a.counts);
  EXPECT_EQ(got_b.counts, solo_b.counts);
  EXPECT_FALSE(observer_saw_armed);
  EXPECT_GT(observer_checks, 0);
  // Neither armer's arming reached the thread that started them.
  EXPECT_FALSE(FaultInjector::Armed());
}

TEST(FaultArmingTest, FanOutsInheritTheCallersInjectorSubmitDoesNot) {
  ThreadPool pool(4);
  constexpr int64_t kUnits = 64;
  // Per unit: whether the worker saw itself armed, and its first draw.
  const auto fan_out = [&pool] {
    std::vector<int> armed(kUnits, -1);
    std::vector<FaultKind> draws(kUnits, FaultKind::kNone);
    const Status st =
        ParallelFor(&pool, kUnits, [&](int, int64_t begin, int64_t end) {
          for (int64_t u = begin; u < end; ++u) {
            armed[static_cast<size_t>(u)] = FaultInjector::Armed() ? 1 : 0;
            if (!FaultInjector::Armed()) continue;
            FaultStreamScope scope(static_cast<uint64_t>(u));
            draws[static_cast<size_t>(u)] =
                FaultInjector::Current().Evaluate(fault_site::kExecScanRead)
                    .kind;
          }
        });
    RQP_CHECK(st.ok());
    return std::make_pair(armed, draws);
  };
  const auto submitted_task_armed = [&pool] {
    std::atomic<int> armed{0};
    for (int t = 0; t < 2 * pool.num_threads(); ++t) {
      pool.Submit([&armed] { armed += FaultInjector::Armed() ? 1 : 0; });
    }
    RQP_CHECK(pool.Wait().ok());
    return armed.load();
  };

  ArmedScope armed("exec.scan.read:p=0.5", 31);
  std::vector<FaultKind> serial(kUnits);
  for (int64_t u = 0; u < kUnits; ++u) {
    FaultStreamScope scope(static_cast<uint64_t>(u));
    serial[static_cast<size_t>(u)] =
        FaultInjector::Current().Evaluate(fault_site::kExecScanRead).kind;
  }
  ASSERT_TRUE(FaultInjector::Configure("exec.scan.read:p=0.5", 31).ok());

  const auto [armed_units, draws] = fan_out();
  EXPECT_EQ(armed_units, std::vector<int>(kUnits, 1));
  EXPECT_EQ(draws, serial);
  // The workers drew from the caller's injector: its stats count them.
  EXPECT_EQ(FaultInjector::Current()
                .Snapshot()[fault_site::kExecScanRead]
                .evaluations,
            kUnits);
  // ParallelMapReduce inherits as well.
  const Result<int> mapped = ParallelMapReduce<int>(
      &pool, kUnits, 4, 0,
      [](int64_t begin, int64_t end) {
        return FaultInjector::Armed() ? static_cast<int>(end - begin) : 0;
      },
      [](int acc, int partial) { return acc + partial; });
  ASSERT_TRUE(mapped.ok());
  EXPECT_EQ(*mapped, kUnits);
  // A raw task does not, and the fan-outs left no worker armed.
  EXPECT_EQ(submitted_task_armed(), 0);

  // The same pool, fanned out from a thread that never armed.
  std::thread disarmed_caller([&] {
    const auto [armed_units2, draws2] = fan_out();
    EXPECT_EQ(armed_units2, std::vector<int>(kUnits, 0));
    EXPECT_EQ(draws2, std::vector<FaultKind>(kUnits, FaultKind::kNone));
  });
  disarmed_caller.join();
  EXPECT_TRUE(FaultInjector::Armed());
}

TEST(FaultRetryLoopTest, BudgetedTransientStormChargesAtMostBudget) {
  ArmedScope armed("exec.scan.read:p=1", 3);
  FaultStreamScope scope(1);
  int attempts = 0;
  const FaultedRunOutcome outcome = RunWithFaultRetries(
      FaultInjector::Current(), {fault_site::kExecScanRead}, 100.0,
      [&](double eff_budget, const FaultRunState&) {
        ++attempts;
        FaultAttempt a;
        a.completed = true;
        a.cost = std::min(eff_budget, 40.0);
        return a;
      });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_FALSE(outcome.completed);
  EXPECT_FALSE(outcome.final_attempt_valid);
  EXPECT_LE(outcome.cost_used, 100.0 + 1e-9);
  EXPECT_GT(outcome.report.transient_retries, 0);
  EXPECT_GT(outcome.report.retried_cost, 0.0);
  EXPECT_LE(attempts, kMaxFaultAttempts);
}

TEST(FaultRetryLoopTest, UnbudgetedTransientStormSurfacesUnavailable) {
  ArmedScope armed("exec.scan.read:p=1", 3);
  FaultStreamScope scope(1);
  const FaultedRunOutcome outcome = RunWithFaultRetries(
      FaultInjector::Current(), {fault_site::kExecScanRead}, -1.0,
      [&](double, const FaultRunState&) {
        FaultAttempt a;
        a.completed = true;
        a.cost = 40.0;
        return a;
      });
  EXPECT_FALSE(outcome.status.ok());
  EXPECT_TRUE(outcome.status.IsTransient());
  EXPECT_EQ(outcome.report.retries_exhausted, 1);
}

TEST(FaultRetryLoopTest, TransientThenSuccessChargesLostWork) {
  ArmedScope armed("exec.scan.read:after=0", 3);  // first attempt faults
  FaultStreamScope scope(2);
  const FaultedRunOutcome outcome = RunWithFaultRetries(
      FaultInjector::Current(), {fault_site::kExecScanRead}, 1000.0,
      [&](double eff_budget, const FaultRunState&) {
        FaultAttempt a;
        a.completed = true;
        a.cost = std::min(eff_budget, 40.0);
        return a;
      });
  EXPECT_TRUE(outcome.status.ok());
  EXPECT_TRUE(outcome.completed);
  EXPECT_TRUE(outcome.final_attempt_valid);
  EXPECT_EQ(outcome.report.transient_retries, 1);
  // Charged = clean attempt + work lost to the faulted first attempt.
  EXPECT_GE(outcome.cost_used, 40.0);
  EXPECT_DOUBLE_EQ(outcome.cost_used, 40.0 + outcome.report.retried_cost);
}

class FaultedExecutorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    catalog_ = MakeTinyCatalog();
    query_ = std::make_unique<Query>(MakeStarQuery(2));
    optimizer_ = std::make_unique<Optimizer>(catalog_.get(), query_.get());
    plan_ = optimizer_->Optimize({0.01, 0.02});
  }

  ExecutionResult MustRun(const Executor& exec, double budget) {
    Result<ExecutionResult> r = exec.Execute(*plan_, budget);
    RQP_CHECK(r.ok());
    return r.MoveValue();
  }

  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<Query> query_;
  std::unique_ptr<Optimizer> optimizer_;
  std::unique_ptr<Plan> plan_;
};

TEST_F(FaultedExecutorTest, ArmedNeverFiringMatchesDisarmedBitForBit) {
  for (const auto engine :
       {Executor::Engine::kTuple, Executor::Engine::kBatch}) {
    Executor::Options opts;
    opts.engine = engine;
    Executor exec(catalog_.get(), CostModel::PostgresFlavour(), opts);
    const ExecutionResult clean = MustRun(exec, -1.0);
    ExecutionResult armed_result;
    {
      ArmedScope armed("exec.scan.read:after=1000000000", 11);
      FaultStreamScope scope(0);
      armed_result = MustRun(exec, -1.0);
    }
    EXPECT_EQ(armed_result.completed, clean.completed);
    EXPECT_EQ(armed_result.output_rows, clean.output_rows);
    EXPECT_EQ(armed_result.cost_used, clean.cost_used);  // bitwise
    ASSERT_EQ(armed_result.node_stats.size(), clean.node_stats.size());
    for (size_t i = 0; i < clean.node_stats.size(); ++i) {
      EXPECT_EQ(armed_result.node_stats[i].left_in,
                clean.node_stats[i].left_in);
      EXPECT_EQ(armed_result.node_stats[i].right_in,
                clean.node_stats[i].right_in);
      EXPECT_EQ(armed_result.node_stats[i].out, clean.node_stats[i].out);
    }
    EXPECT_FALSE(armed_result.robustness.Any());
  }
}

TEST_F(FaultedExecutorTest, EngineDegradationFallsBackToTupleResults) {
  Executor::Options batch_opts;
  batch_opts.engine = Executor::Engine::kBatch;
  Executor batch_exec(catalog_.get(), CostModel::PostgresFlavour(),
                      batch_opts);
  Executor::Options tuple_opts;
  tuple_opts.engine = Executor::Engine::kTuple;
  Executor tuple_exec(catalog_.get(), CostModel::PostgresFlavour(),
                      tuple_opts);
  const ExecutionResult clean_tuple = MustRun(tuple_exec, -1.0);

  ArmedScope armed("exec.batch.pipeline:p=1", 13);
  FaultStreamScope scope(0);
  const ExecutionResult degraded = MustRun(batch_exec, -1.0);
  EXPECT_GE(degraded.robustness.engine_degradations, 1);
  EXPECT_TRUE(degraded.completed);
  EXPECT_EQ(degraded.output_rows, clean_tuple.output_rows);
  EXPECT_EQ(degraded.cost_used, clean_tuple.cost_used);
}

// The same rung suite-wide: every engine query x sb/pb/ab x resident/mmap
// runs once clean and once with every execution degraded to the tuple
// engine. The degradation must be invisible in the reply: the same cost
// bits, the same discovery steps and the same NodeStats for the
// completing run.
TEST(EngineDegradationSuiteTest, DegradedRepliesEqualCleanOnes) {
  ContextCache cache;
  for (const char* id :
       {"2D_Q91", "3D_Q15", "3D_Q96", "4D_Q91", "2D_QBRAND", "4D_JOB_Q1a"}) {
    for (const RobustnessMode mode :
         {RobustnessMode::kSpillBound, RobustnessMode::kPlanBouquet,
          RobustnessMode::kAlignedBound}) {
      for (const StorageBackend storage :
           {StorageBackend::kResident, StorageBackend::kMmap}) {
        ServiceRequest clean;
        clean.query_id = id;
        clean.mode = mode;
        clean.use_engine = true;
        clean.options.storage = storage;
        ServiceRequest chaos = clean;
        chaos.options.fault_spec = "exec.batch.pipeline:p=1";
        const ServiceResponse want = QueryService::RunOneShot(clean, &cache);
        const ServiceResponse got = QueryService::RunOneShot(chaos, &cache);
        SCOPED_TRACE(std::string(id) + " " + got.algorithm + " " +
                     StorageBackendName(storage));
        ASSERT_TRUE(want.status.ok()) << want.status.ToString();
        ASSERT_TRUE(got.status.ok()) << got.status.ToString();
        EXPECT_FALSE(want.robustness.Any());
        // Every execution ran on the tuple engine.
        EXPECT_EQ(got.robustness.engine_degradations,
                  static_cast<int64_t>(got.discovery.num_executions()));
        EXPECT_EQ(got.completed, want.completed);
        EXPECT_EQ(got.cost_used, want.cost_used);  // bitwise
        EXPECT_EQ(got.discovery.total_cost, want.discovery.total_cost);
        ASSERT_EQ(got.discovery.steps.size(), want.discovery.steps.size());
        for (size_t i = 0; i < got.discovery.steps.size(); ++i) {
          SCOPED_TRACE("step " + std::to_string(i));
          const ExecutionStep& g = got.discovery.steps[i];
          const ExecutionStep& w = want.discovery.steps[i];
          EXPECT_EQ(g.plan_name, w.plan_name);
          EXPECT_EQ(g.spill_dim, w.spill_dim);
          EXPECT_EQ(g.budget, w.budget);
          EXPECT_EQ(g.cost_charged, w.cost_charged);
          EXPECT_EQ(g.completed, w.completed);
          EXPECT_EQ(g.learned_sel, w.learned_sel);
          EXPECT_EQ(g.qrun, w.qrun);
        }
        EXPECT_EQ(got.execution.cost_used, want.execution.cost_used);
        EXPECT_EQ(got.execution.output_rows, want.execution.output_rows);
        ASSERT_EQ(got.execution.node_stats.size(),
                  want.execution.node_stats.size());
        for (size_t i = 0; i < got.execution.node_stats.size(); ++i) {
          SCOPED_TRACE("node " + std::to_string(i));
          const NodeStats& g = got.execution.node_stats[i];
          const NodeStats& w = want.execution.node_stats[i];
          EXPECT_EQ(g.left_in, w.left_in);
          EXPECT_EQ(g.right_in, w.right_in);
          EXPECT_EQ(g.out, w.out);
          EXPECT_EQ(g.filter_in, w.filter_in);
          EXPECT_EQ(g.filter_pass, w.filter_pass);
        }
      }
    }
  }
}

TEST_F(FaultedExecutorTest, MorselDegradationCompletesSerially) {
  Executor::Options opts;
  opts.engine = Executor::Engine::kBatch;
  opts.num_threads = 4;
  Executor exec(catalog_.get(), CostModel::PostgresFlavour(), opts);
  const ExecutionResult clean = MustRun(exec, -1.0);

  ArmedScope armed("exec.morsel.scan:p=1", 17);
  FaultStreamScope scope(0);
  const ExecutionResult degraded = MustRun(exec, -1.0);
  EXPECT_GE(degraded.robustness.serial_degradations, 1);
  EXPECT_TRUE(degraded.completed);
  EXPECT_EQ(degraded.output_rows, clean.output_rows);
  EXPECT_EQ(degraded.cost_used, clean.cost_used);
}

TEST_F(FaultedExecutorTest, PermanentFaultSurfacesAsError) {
  Executor exec(catalog_.get(), CostModel::PostgresFlavour());
  ArmedScope armed("exec.scan.read:p=1,kind=permanent", 19);
  FaultStreamScope scope(0);
  const Result<ExecutionResult> r = exec.Execute(*plan_, -1.0);
  EXPECT_FALSE(r.ok());
}

TEST_F(FaultedExecutorTest, FaultSequenceIdenticalAcrossEnginesAndThreads) {
  // Fault draws happen before each attempt, never inside engine
  // internals, so the per-run draw sequence and RobustnessReport are the
  // same whichever engine executes and at any morsel thread count.
  std::vector<RobustnessReport> reports;
  for (const int threads : {1, 2, 4}) {
    for (const auto engine :
         {Executor::Engine::kTuple, Executor::Engine::kBatch}) {
      Executor::Options opts;
      opts.engine = engine;
      opts.num_threads = threads;
      Executor exec(catalog_.get(), CostModel::PostgresFlavour(), opts);
      ArmedScope armed("exec.*:p=0.3", 23);
      FaultStreamScope scope(99);
      const Result<ExecutionResult> r = exec.Execute(*plan_, 1e9);
      ASSERT_TRUE(r.ok());
      reports.push_back(r->robustness);
    }
  }
  for (size_t i = 1; i < reports.size(); ++i) {
    EXPECT_EQ(reports[i].transient_retries, reports[0].transient_retries);
    EXPECT_EQ(reports[i].cost_spikes, reports[0].cost_spikes);
    EXPECT_DOUBLE_EQ(reports[i].retried_cost, reports[0].retried_cost);
  }
}

class ChaosSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = MakeTinyCatalog().release();
    query_ = new Query(MakeStarQuery(2));
    Ess::Config config;
    config.points_per_dim = 12;
    config.min_sel = 1e-4;
    ess_ = Ess::Build(*catalog_, *query_, config).release();
  }
  static Catalog* catalog_;
  static Query* query_;
  static Ess* ess_;
};
Catalog* ChaosSweepTest::catalog_ = nullptr;
Query* ChaosSweepTest::query_ = nullptr;
Ess* ChaosSweepTest::ess_ = nullptr;

TEST_F(ChaosSweepTest, ArmedNeverFiringMatchesDisarmedSweep) {
  const SpillBound sb(ess_);
  const SuboptimalityStats clean = Evaluate(sb, *ess_, EvalOptions{});
  EvalOptions opts;
  opts.fault_spec = "exec.scan.read:after=1000000000";
  const SuboptimalityStats armed = Evaluate(sb, *ess_, opts);
  EXPECT_EQ(armed.subopt, clean.subopt);  // bitwise
  EXPECT_FALSE(armed.robustness.Any());
  EXPECT_FALSE(FaultInjector::Armed());  // Evaluate disarms afterwards
}

TEST_F(ChaosSweepTest, ChaosSweepIsDeterministicAtAnyThreadCount) {
  const SpillBound sb(ess_);
  EvalOptions base;
  base.fault_spec = "*:p=0.01";
  base.fault_seed = 42;
  base.num_threads = 1;
  const SuboptimalityStats ref = Evaluate(sb, *ess_, base);
  // Every location completed (Evaluate aborts otherwise) and faults
  // actually fired at this probability on this grid.
  EXPECT_TRUE(ref.robustness.Any());
  EXPECT_GT(ref.robustness.transient_retries, 0);
  EXPECT_GE(ref.robustness.mso_delta, 0.0);
  for (const int threads : {2, 4}) {
    EvalOptions opts = base;
    opts.num_threads = threads;
    const SuboptimalityStats got = Evaluate(sb, *ess_, opts);
    EXPECT_EQ(got.subopt, ref.subopt) << "threads=" << threads;
    EXPECT_EQ(got.robustness.transient_retries,
              ref.robustness.transient_retries);
    EXPECT_EQ(got.robustness.cost_spikes, ref.robustness.cost_spikes);
    EXPECT_EQ(got.robustness.escalations, ref.robustness.escalations);
    EXPECT_DOUBLE_EQ(got.robustness.retried_cost,
                     ref.robustness.retried_cost);
    EXPECT_DOUBLE_EQ(got.robustness.mso_delta, ref.robustness.mso_delta);
  }
}

TEST_F(ChaosSweepTest, AllAlgorithmsSurviveChaos) {
  EvalOptions opts;
  opts.fault_spec = "exec.*:p=0.02;optimizer.*:p=0.01";
  opts.fault_seed = 42;
  const PlanBouquet pb(ess_);
  const SpillBound sb(ess_);
  // Evaluate RQP_CHECKs completion at every grid location; surviving the
  // sweep is the assertion.
  const SuboptimalityStats pb_stats = Evaluate(pb, *ess_, opts);
  const SuboptimalityStats sb_stats = Evaluate(sb, *ess_, opts);
  EXPECT_GE(pb_stats.mso, 1.0);
  EXPECT_GE(sb_stats.mso, 1.0);
}

TEST_F(ChaosSweepTest, PcmMonitorFiresOnCorruptedCostModel) {
  // Per-evaluation cost corruption makes the simulated spill cost model
  // genuinely non-monotone along the spill axis; the isotonic-scan
  // monitor must detect and clamp it while the sweep still completes.
  const SpillBound sb(ess_);
  EvalOptions opts;
  opts.fault_spec = "oracle.cost_model:p=0.8,kind=corrupt,scale=8";
  opts.fault_seed = 42;
  const SuboptimalityStats stats = Evaluate(sb, *ess_, opts);
  EXPECT_GT(stats.robustness.pcm_violations, 0);
  EXPECT_GT(stats.robustness.corruptions, 0);
}

TEST(ContourBudgetMonitorTest, ClampsNonMonotoneBudgets) {
  ContourBudgetMonitor monitor;
  RobustnessReport report;
  EXPECT_DOUBLE_EQ(monitor.Clamp(10.0, &report), 10.0);
  EXPECT_DOUBLE_EQ(monitor.Clamp(20.0, &report), 20.0);
  EXPECT_DOUBLE_EQ(monitor.Clamp(15.0, &report), 20.0);  // clamped up
  EXPECT_DOUBLE_EQ(monitor.Clamp(25.0, &report), 25.0);
  EXPECT_EQ(report.contour_clamps, 1);
}

TEST_F(ChaosSweepTest, EssLoadFaultSurfacesTransient) {
  std::stringstream buffer;
  ASSERT_TRUE(ess_->Save(buffer).ok());
  {
    ArmedScope armed("io.ess_load:p=1", 29);
    Result<std::unique_ptr<Ess>> loaded =
        Ess::Load(buffer, *catalog_, *query_);
    EXPECT_FALSE(loaded.ok());
    EXPECT_TRUE(loaded.status().IsTransient());
  }
  buffer.clear();
  buffer.seekg(0);
  Result<std::unique_ptr<Ess>> loaded = Ess::Load(buffer, *catalog_, *query_);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
}

TEST_F(ChaosSweepTest, EssBuildSurvivesOptimizerTransients) {
  Ess::Config config;
  config.points_per_dim = 12;
  config.min_sel = 1e-4;
  config.num_threads = 2;
  const auto clean = Ess::Build(*catalog_, *query_, config);
  ArmedScope armed("optimizer.dp:p=0.05", 37);
  Result<std::unique_ptr<Ess>> chaotic =
      Ess::TryBuild(*catalog_, *query_, config);
  ASSERT_TRUE(chaotic.ok()) << chaotic.status().ToString();
  for (int64_t lin = 0; lin < clean->num_locations(); lin += 3) {
    ASSERT_DOUBLE_EQ((*chaotic)->OptimalCost(lin), clean->OptimalCost(lin));
  }
}

}  // namespace
}  // namespace robustqp
