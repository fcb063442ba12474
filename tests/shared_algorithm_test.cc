// Shared-instance tests for the discovery algorithms. One PlanBouquet,
// SpillBound and AlignedBound instance, run from several threads at once,
// must reproduce step for step what a fresh instance computes at every
// location: the memos they share are synchronized and hold pure functions
// of the ESS. AlignedBound's replacement plans must carry names derived
// from their signatures, never a POSP plan's name.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/alignedbound.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "server/context_cache.h"

namespace robustqp {
namespace {

constexpr int kThreads = 4;

/// A 3D suite query on a small grid.
std::shared_ptr<const ContextCache::Entry> Context3D() {
  static ContextCache* cache = new ContextCache();
  Ess::Config config;
  config.points_per_dim = 6;
  config.num_threads = 1;
  return *cache->Get("3D_Q15", config);
}

std::unique_ptr<DiscoveryAlgorithm> Make(int algo, const Ess* ess) {
  switch (algo) {
    case 0:
      return std::make_unique<PlanBouquet>(ess);
    case 1:
      return std::make_unique<SpillBound>(ess);
    default:
      return std::make_unique<AlignedBound>(ess);
  }
}

DiscoveryResult RunAt(const DiscoveryAlgorithm& algo, const Ess& ess,
                      int64_t lin) {
  SimulatedOracle oracle(&ess, ess.FromLinear(lin));
  return algo.Run(&oracle);
}

void ExpectSameResult(const DiscoveryResult& got, const DiscoveryResult& want) {
  EXPECT_EQ(got.completed, want.completed);
  EXPECT_EQ(got.total_cost, want.total_cost);
  EXPECT_EQ(got.final_contour, want.final_contour);
  EXPECT_EQ(got.max_replacement_penalty, want.max_replacement_penalty);
  ASSERT_EQ(got.steps.size(), want.steps.size());
  for (size_t i = 0; i < got.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const ExecutionStep& g = got.steps[i];
    const ExecutionStep& w = want.steps[i];
    EXPECT_EQ(g.contour, w.contour);
    EXPECT_EQ(g.plan_name, w.plan_name);
    EXPECT_EQ(g.spill_dim, w.spill_dim);
    EXPECT_EQ(g.budget, w.budget);
    EXPECT_EQ(g.cost_charged, w.cost_charged);
    EXPECT_EQ(g.completed, w.completed);
    EXPECT_EQ(g.learned_sel, w.learned_sel);
    EXPECT_EQ(g.qrun, w.qrun);
  }
}

TEST(SharedAlgorithmTest, ConcurrentSharedInstanceMatchesColdInstances) {
  const std::shared_ptr<const ContextCache::Entry> ctx = Context3D();
  const Ess& ess = *ctx->ess;
  ASSERT_EQ(ess.dims(), 3);
  const int64_t total = ess.num_locations();

  for (int algo = 0; algo < 3; ++algo) {
    const std::unique_ptr<DiscoveryAlgorithm> shared = Make(algo, &ess);
    SCOPED_TRACE(shared->name());
    // Workers claim locations from one counter, so which thread fills
    // which memo entry first varies from run to run.
    std::vector<DiscoveryResult> got(static_cast<size_t>(total));
    std::atomic<int64_t> next{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&] {
        for (int64_t lin = next++; lin < total; lin = next++) {
          got[static_cast<size_t>(lin)] = RunAt(*shared, ess, lin);
        }
      });
    }
    for (std::thread& w : workers) w.join();

    for (int64_t lin = 0; lin < total; ++lin) {
      SCOPED_TRACE("location " + std::to_string(lin));
      const std::unique_ptr<DiscoveryAlgorithm> cold = Make(algo, &ess);
      ExpectSameResult(got[static_cast<size_t>(lin)], RunAt(*cold, ess, lin));
    }
  }
}

/// Records the plan of every execution it forwards.
class RecordingOracle : public SimulatedOracle {
 public:
  using SimulatedOracle::SimulatedOracle;

  ExecOutcome ExecuteFull(const Plan& plan, double budget) override {
    plans.push_back(&plan);
    return SimulatedOracle::ExecuteFull(plan, budget);
  }
  ExecOutcome ExecuteSpill(const Plan& plan, int dim, double budget,
                           const std::vector<double>& learned) override {
    plans.push_back(&plan);
    return SimulatedOracle::ExecuteSpill(plan, dim, budget, learned);
  }

  std::vector<const Plan*> plans;
};

TEST(SharedAlgorithmTest, AlignedBoundStepNamesIdentifyTheExecutedPlan) {
  const std::shared_ptr<const ContextCache::Entry> ctx = Context3D();
  const Ess& ess = *ctx->ess;
  const AlignedBound ab(&ess);
  int replacements = 0;
  for (int64_t lin = 0; lin < ess.num_locations(); ++lin) {
    RecordingOracle oracle(&ess, ess.FromLinear(lin));
    const DiscoveryResult r = ab.Run(&oracle);
    ASSERT_EQ(r.steps.size(), oracle.plans.size());
    for (size_t i = 0; i < r.steps.size(); ++i) {
      const Plan& executed = *oracle.plans[i];
      const std::string& name = r.steps[i].plan_name;
      EXPECT_EQ(name, executed.display_name());
      const Plan* posp = ess.pool().Find(executed.signature());
      if (posp != nullptr) {
        // A replacement that is a POSP plan is that very plan.
        EXPECT_EQ(&executed, posp) << name;
        continue;
      }
      ++replacements;
      ASSERT_EQ(name.size(), 9u) << name;
      EXPECT_EQ(name[0], 'R') << name;
      for (const Plan* p : ess.pool().plans()) {
        EXPECT_NE(p->display_name(), name);
      }
    }
  }
  // The grid must actually exercise induced alignment.
  EXPECT_GT(replacements, 0);
}

}  // namespace
}  // namespace robustqp
