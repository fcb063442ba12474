// Tests for the service layer: the session API's concurrency-determinism
// contract, ContextCache LRU/stats behaviour, admission control and
// deadlines, the stable error-code mapping, and the TCP line protocol.

#include <gtest/gtest.h>

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/status.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"

namespace robustqp {
namespace {

/// Small grid so context builds stay cheap.
RequestOptions SmallOptions() {
  RequestOptions opts;
  opts.points_per_dim = 8;
  opts.ess_threads = 1;
  return opts;
}

// ---------------------------------------------------------------------------
// Stable error codes (the client-visible contract shared by CLI exit codes
// and the TCP protocol's ERR code= field). One expectation per StatusCode:
// these numbers must never change meaning.
// ---------------------------------------------------------------------------

TEST(ExitCodeTest, EveryStatusCodeHasItsStableNumber) {
  EXPECT_EQ(ExitCodeFor(StatusCode::kOk), 0);
  EXPECT_EQ(ExitCodeFor(StatusCode::kInvalidArgument), 2);
  EXPECT_EQ(ExitCodeFor(StatusCode::kNotFound), 3);
  EXPECT_EQ(ExitCodeFor(StatusCode::kOutOfRange), 4);
  EXPECT_EQ(ExitCodeFor(StatusCode::kUnsupported), 5);
  EXPECT_EQ(ExitCodeFor(StatusCode::kInternal), 6);
  EXPECT_EQ(ExitCodeFor(StatusCode::kBudgetExhausted), 7);
  EXPECT_EQ(ExitCodeFor(StatusCode::kUnavailable), 8);
  EXPECT_EQ(ExitCodeFor(StatusCode::kResourceExhausted), 9);
  EXPECT_EQ(ExitCodeFor(StatusCode::kDeadlineExceeded), 10);
}

// ---------------------------------------------------------------------------
// ContextCache: LRU eviction and hit/miss goldens.
// ---------------------------------------------------------------------------

TEST(ContextCacheLruTest, EvictionAndStatsGoldens) {
  ContextCache cache(ContextCache::Options{/*capacity=*/2});
  Ess::Config a = SmallOptions().ToEssConfig();
  Ess::Config b = a;
  b.points_per_dim = 6;
  Ess::Config c = a;
  c.points_per_dim = 10;

  bool hit = true;
  ASSERT_TRUE(cache.Get("2D_Q91", a, &hit).ok());
  EXPECT_FALSE(hit);  // cold miss
  ASSERT_TRUE(cache.Get("2D_Q91", a, &hit).ok());
  EXPECT_TRUE(hit);  // warm hit
  ASSERT_TRUE(cache.Get("2D_Q91", b, &hit).ok());
  EXPECT_FALSE(hit);
  // Third distinct key: capacity 2 evicts the least recently used (a).
  ASSERT_TRUE(cache.Get("2D_Q91", c, &hit).ok());
  EXPECT_FALSE(hit);
  {
    const ContextCache::Stats s = cache.stats();
    EXPECT_EQ(s.hits, 1);
    EXPECT_EQ(s.misses, 3);
    EXPECT_EQ(s.evictions, 1);
    EXPECT_EQ(s.failures, 0);
    EXPECT_EQ(s.size, 2u);
  }
  // b was touched more recently than the evicted a: still resident.
  ASSERT_TRUE(cache.Get("2D_Q91", b, &hit).ok());
  EXPECT_TRUE(hit);
  // a misses again (rebuild) and evicts c, the LRU of {c, b-touched}.
  ASSERT_TRUE(cache.Get("2D_Q91", a, &hit).ok());
  EXPECT_FALSE(hit);
  const ContextCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.misses, 4);
  EXPECT_EQ(s.evictions, 2);
  EXPECT_EQ(s.size, 2u);
}

// The key writes every double exactly and includes every CostParams
// field, so a nearby ratio or a cost model that differs in one parameter
// is a different context, never a hit on another's contours.
TEST(ContextCacheLruTest, KeyNeverAliasesNearbyConfigs) {
  ContextCache cache(ContextCache::Options{/*capacity=*/8});
  Ess::Config two = SmallOptions().ToEssConfig();
  two.contour_cost_ratio = 2.0;
  Ess::Config near = two;
  near.contour_cost_ratio = 2.0000001;
  bool hit = true;
  ASSERT_TRUE(cache.Get("2D_Q91", two, &hit).ok());
  EXPECT_FALSE(hit);
  const auto got = cache.Get("2D_Q91", near, &hit);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(hit);
  EXPECT_EQ((*got)->ess->config().contour_cost_ratio, 2.0000001);
  near.contour_cost_ratio = std::nextafter(2.0, 3.0);
  EXPECT_NE(ContextCache::Key("2D_Q91", near), ContextCache::Key("2D_Q91", two));

  Ess::Config fetch = two;
  CostParams p = two.cost_model.params();
  p.index_fetch *= 1.5;
  fetch.cost_model = CostModel(p);
  ASSERT_TRUE(cache.Get("2D_Q91", fetch, &hit).ok());
  EXPECT_FALSE(hit);
  ASSERT_TRUE(cache.Get("2D_Q91", two, &hit).ok());
  EXPECT_TRUE(hit);

  const std::string base = ContextCache::Key("2D_Q91", two);
  for (double CostParams::*field :
       {&CostParams::scan_tuple, &CostParams::hash_build_tuple,
        &CostParams::hash_probe_tuple, &CostParams::nlj_materialize_tuple,
        &CostParams::nlj_pair, &CostParams::join_output_tuple,
        &CostParams::index_probe, &CostParams::index_fetch,
        &CostParams::sort_tuple, &CostParams::merge_tuple}) {
    Ess::Config c = two;
    CostParams q = c.cost_model.params();
    q.*field = std::nextafter(q.*field, 10.0);
    c.cost_model = CostModel(q);
    EXPECT_NE(ContextCache::Key("2D_Q91", c), base);
  }
  Ess::Config sel = two;
  sel.min_sel = std::nextafter(sel.min_sel, 1.0);
  EXPECT_NE(ContextCache::Key("2D_Q91", sel), base);
}

TEST(ContextCacheLruTest, EvictionDoesNotInvalidateHolders) {
  ContextCache cache(ContextCache::Options{/*capacity=*/1});
  Ess::Config a = SmallOptions().ToEssConfig();
  Ess::Config b = a;
  b.points_per_dim = 6;
  const auto held = *cache.Get("2D_Q91", a);
  ASSERT_TRUE(cache.Get("2D_Q91", b).ok());  // evicts a's slot
  EXPECT_EQ(cache.stats().evictions, 1);
  // The shared_ptr keeps the evicted entry alive and usable.
  EXPECT_EQ(held->ess->points(), 8);
  EXPECT_GT(held->ess->num_contours(), 0);
}

TEST(ContextCacheLruTest, UnknownQueryIsNotFoundAndNotCached) {
  ContextCache cache(ContextCache::Options{/*capacity=*/2});
  const auto r = cache.Get("9D_NOPE", SmallOptions().ToEssConfig());
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  const ContextCache::Stats s = cache.stats();
  EXPECT_EQ(s.misses, 0);
  EXPECT_EQ(s.size, 0u);
}

TEST(ContextCacheLruTest, DistinctKeysBuildConcurrently) {
  ContextCache cache(ContextCache::Options{/*capacity=*/8});
  std::vector<std::thread> threads;
  std::vector<Status> results(4, Status::OK());
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&cache, &results, i] {
      Ess::Config config = SmallOptions().ToEssConfig();
      config.points_per_dim = 6 + 2 * (i % 2);  // two distinct keys, raced
      results[static_cast<size_t>(i)] =
          cache.Get("2D_Q91", config).ok() ? Status::OK()
                                           : Status::Internal("get failed");
    });
  }
  for (auto& t : threads) t.join();
  for (const Status& s : results) EXPECT_TRUE(s.ok());
  const ContextCache::Stats s = cache.stats();
  // Two keys were requested twice each: every request is a hit or a miss,
  // and same-key racers that arrived before the build finished count as
  // misses served by the one build.
  EXPECT_EQ(s.hits + s.misses, 4);
  EXPECT_EQ(s.size, 2u);
}

// ---------------------------------------------------------------------------
// QueryService: admission control, deadlines, error mapping.
// ---------------------------------------------------------------------------

/// A gate the pre_run_hook blocks on, holding every worker busy until
/// released — makes queue-full and deadline states deterministic.
class Gate {
 public:
  void Release() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void WaitOpen() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return open_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool open_ = false;
};

TEST(QueryServiceTest, AdmissionControlRejectsBeyondQueueLimit) {
  Gate gate;
  QueryService::Options opts;
  opts.num_threads = 2;
  opts.queue_limit = 2;
  opts.pre_run_hook = [&gate] { gate.WaitOpen(); };
  QueryService service(opts);
  const int64_t session = *service.OpenSession();

  ServiceRequest req;
  req.query_id = "2D_Q91";
  req.options = SmallOptions();
  const Result<int64_t> first = service.Submit(session, req);
  const Result<int64_t> second = service.Submit(session, req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());

  // The queue is full (2 admitted, nothing can finish while gated):
  // rejection is immediate and side-effect free.
  const Result<int64_t> third = service.Submit(session, req);
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ExitCodeFor(third.status().code()), 9);

  gate.Release();
  EXPECT_TRUE(service.Wait(session, *first)->status.ok());
  EXPECT_TRUE(service.Wait(session, *second)->status.ok());

  // Load drained: the same request is admitted now.
  const Result<int64_t> retry = service.Submit(session, req);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(service.Wait(session, *retry)->status.ok());

  const QueryService::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_TRUE(service.CloseSession(session).ok());
}

TEST(QueryServiceTest, DeadlineExpiredInQueueIsNotRun) {
  Gate gate;
  QueryService::Options opts;
  opts.num_threads = 1;
  opts.pre_run_hook = [&gate] { gate.WaitOpen(); };
  QueryService service(opts);
  const int64_t session = *service.OpenSession();

  ServiceRequest blocker;
  blocker.query_id = "2D_Q91";
  blocker.options = SmallOptions();
  ServiceRequest victim = blocker;
  victim.deadline_ms = 0.0;  // any queueing at all exceeds it

  const int64_t blocker_id = *service.Submit(session, blocker);
  const int64_t victim_id = *service.Submit(session, victim);
  gate.Release();

  EXPECT_TRUE(service.Wait(session, blocker_id)->status.ok());
  const ServiceResponse victim_resp = *service.Wait(session, victim_id);
  EXPECT_EQ(victim_resp.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ExitCodeFor(victim_resp.status.code()), 10);
  // Expired before running: no payload was produced.
  EXPECT_FALSE(victim_resp.completed);
  EXPECT_EQ(victim_resp.cost_used, 0.0);
  EXPECT_EQ(service.stats().deadline_expired, 1);
  EXPECT_TRUE(service.CloseSession(session).ok());
}

TEST(QueryServiceTest, EveryRequestFailureMapsToItsCode) {
  QueryService service;
  const int64_t session = *service.OpenSession();

  // Unknown session.
  EXPECT_EQ(service.Submit(session + 99, ServiceRequest{}).status().code(),
            StatusCode::kNotFound);
  // Unknown request id / session mismatch.
  EXPECT_EQ(service.Wait(session, 12345).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Poll(session, 12345).status().code(),
            StatusCode::kNotFound);
  // Unknown session on close.
  EXPECT_EQ(service.CloseSession(session + 99).code(), StatusCode::kNotFound);

  auto run = [&](const ServiceRequest& req) {
    return service.Wait(session, *service.Submit(session, req))->status;
  };

  ServiceRequest base;
  base.query_id = "2D_Q91";
  base.options = SmallOptions();

  // Unknown suite query.
  ServiceRequest unknown = base;
  unknown.query_id = "2D_NOPE";
  EXPECT_EQ(run(unknown).code(), StatusCode::kNotFound);

  // Wrong qa arity.
  ServiceRequest bad_arity = base;
  bad_arity.qa = {0.1};
  EXPECT_EQ(run(bad_arity).code(), StatusCode::kInvalidArgument);

  // qa outside (0, 1].
  ServiceRequest bad_range = base;
  bad_range.qa = {0.1, 2.5};
  EXPECT_EQ(run(bad_range).code(), StatusCode::kOutOfRange);

  // Malformed chaos spec.
  ServiceRequest bad_spec = base;
  bad_spec.options.fault_spec = "::not-a-spec::";
  EXPECT_EQ(run(bad_spec).code(), StatusCode::kInvalidArgument);

  // Service-level budget cap.
  ServiceRequest tiny_budget = base;
  tiny_budget.budget = 1e-6;
  EXPECT_EQ(run(tiny_budget).code(), StatusCode::kBudgetExhausted);

  // And the happy path is OK with a cache hit by now.
  const ServiceResponse ok_resp =
      *service.Wait(session, *service.Submit(session, base));
  EXPECT_TRUE(ok_resp.status.ok());
  EXPECT_TRUE(ok_resp.cache_hit);
  EXPECT_TRUE(service.CloseSession(session).ok());
}

TEST(QueryServiceTest, WaitRetiresTheRequest) {
  QueryService service;
  const int64_t session = *service.OpenSession();
  ServiceRequest req;
  req.query_id = "2D_Q91";
  req.options = SmallOptions();

  // Poll before Wait still sees the response, as often as asked.
  const int64_t id = *service.Submit(session, req);
  std::optional<ServiceResponse> polled;
  while (!polled.has_value()) {
    std::this_thread::yield();
    polled = *service.Poll(session, id);
  }
  ASSERT_TRUE(polled->status.ok());
  ASSERT_TRUE(service.Poll(session, id)->has_value());

  // Wait hands the response over and forgets the id.
  const ServiceResponse waited = *service.Wait(session, id);
  EXPECT_EQ(waited.cost_used, polled->cost_used);
  EXPECT_EQ(waited.discovery.steps.size(), polled->discovery.steps.size());
  EXPECT_EQ(service.Wait(session, id).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.Poll(session, id).status().code(), StatusCode::kNotFound);

  // A request never waited on is dropped by CloseSession.
  const int64_t unwaited = *service.Submit(session, req);
  EXPECT_TRUE(service.CloseSession(session).ok());
  EXPECT_EQ(service.Poll(session, unwaited).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.stats().completed, 2);
}

// ---------------------------------------------------------------------------
// The determinism contract: N concurrent sessions, mixed requests (chaos
// included), every payload bit-identical to a serial RunOneShot of the
// same request on a fresh cache.
// ---------------------------------------------------------------------------

/// Bit-exact payload comparison: no tolerance anywhere.
void ExpectSamePayload(const ServiceResponse& resp,
                       const ServiceResponse& want) {
  ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
  EXPECT_EQ(resp.algorithm, want.algorithm);
  EXPECT_EQ(resp.completed, want.completed);
  EXPECT_EQ(resp.cost_used, want.cost_used);
  EXPECT_EQ(resp.opt_cost, want.opt_cost);
  EXPECT_EQ(resp.suboptimality, want.suboptimality);
  EXPECT_EQ(resp.guarantee, want.guarantee);
  EXPECT_EQ(resp.discovery.total_cost, want.discovery.total_cost);
  EXPECT_EQ(resp.discovery.final_contour, want.discovery.final_contour);
  ASSERT_EQ(resp.discovery.num_executions(), want.discovery.num_executions());
  for (size_t i = 0; i < resp.discovery.steps.size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    const ExecutionStep& g = resp.discovery.steps[i];
    const ExecutionStep& w = want.discovery.steps[i];
    EXPECT_EQ(g.contour, w.contour);
    EXPECT_EQ(g.plan_name, w.plan_name);
    EXPECT_EQ(g.spill_dim, w.spill_dim);
    EXPECT_EQ(g.budget, w.budget);
    EXPECT_EQ(g.cost_charged, w.cost_charged);
    EXPECT_EQ(g.completed, w.completed);
    EXPECT_EQ(g.learned_sel, w.learned_sel);
    EXPECT_EQ(g.qrun, w.qrun);
  }
  const RobustnessReport& g = resp.robustness;
  const RobustnessReport& w = want.robustness;
  EXPECT_EQ(g.transient_retries, w.transient_retries);
  EXPECT_EQ(g.cost_spikes, w.cost_spikes);
  EXPECT_EQ(g.corruptions, w.corruptions);
  EXPECT_EQ(g.retried_cost, w.retried_cost);
  EXPECT_EQ(g.permanent_faults, w.permanent_faults);
  EXPECT_EQ(g.engine_degradations, w.engine_degradations);
  EXPECT_EQ(g.serial_degradations, w.serial_degradations);
  EXPECT_EQ(g.escalations, w.escalations);
  EXPECT_EQ(g.pcm_violations, w.pcm_violations);
  EXPECT_EQ(g.contour_clamps, w.contour_clamps);
  EXPECT_EQ(g.retries_exhausted, w.retries_exhausted);
  EXPECT_EQ(g.shard_stragglers, w.shard_stragglers);
  EXPECT_EQ(g.shard_lost_chunks, w.shard_lost_chunks);
  EXPECT_EQ(g.feedback_degradations, w.feedback_degradations);
  EXPECT_EQ(g.page_fault_degradations, w.page_fault_degradations);
  EXPECT_EQ(g.spike_cost, w.spike_cost);
  EXPECT_EQ(g.mso_delta, w.mso_delta);
  // Engine runs: the completing execution's ledger.
  EXPECT_EQ(resp.execution.completed, want.execution.completed);
  EXPECT_EQ(resp.execution.cost_used, want.execution.cost_used);
  EXPECT_EQ(resp.execution.output_rows, want.execution.output_rows);
  ASSERT_EQ(resp.execution.node_stats.size(), want.execution.node_stats.size());
  for (size_t i = 0; i < resp.execution.node_stats.size(); ++i) {
    SCOPED_TRACE("node " + std::to_string(i));
    const NodeStats& gn = resp.execution.node_stats[i];
    const NodeStats& wn = want.execution.node_stats[i];
    EXPECT_EQ(gn.left_in, wn.left_in);
    EXPECT_EQ(gn.right_in, wn.right_in);
    EXPECT_EQ(gn.out, wn.out);
    EXPECT_EQ(gn.filter_in, wn.filter_in);
    EXPECT_EQ(gn.filter_pass, wn.filter_pass);
  }
}

TEST(QueryServiceTest, SixteenConcurrentClientsBitIdenticalToSerial) {
  // A mixed workload covering both catalogs' cost models is unnecessary —
  // what matters is mode coverage, parameter coverage, and a chaos spec.
  std::vector<ServiceRequest> mix;
  ServiceRequest chaos_ab;
  {
    ServiceRequest r;
    r.query_id = "2D_Q91";
    r.options = SmallOptions();
    r.mode = RobustnessMode::kSpillBound;
    mix.push_back(r);
    r.mode = RobustnessMode::kPlanBouquet;
    mix.push_back(r);
    r.mode = RobustnessMode::kAlignedBound;
    r.qa = {0.04, 0.1};
    mix.push_back(r);
    // The same AB request armed: it runs first, so the clean AB requests
    // read memos its chaos run filled.
    chaos_ab = r;
    chaos_ab.options.fault_spec = "*:p=0.05";
    chaos_ab.options.fault_seed = 11;
    r.mode = RobustnessMode::kNative;
    mix.push_back(r);
    // A chaos request: deterministic injected faults keyed by (spec, seed).
    r.mode = RobustnessMode::kSpillBound;
    r.qa = {0.2, 0.3};
    r.options.fault_spec = "*:p=0.05";
    r.options.fault_seed = 7;
    mix.push_back(r);
    // Different grid = different context cache key.
    ServiceRequest q15;
    q15.query_id = "3D_Q15";
    q15.options = SmallOptions();
    q15.options.points_per_dim = 6;
    q15.mode = RobustnessMode::kSpillBound;
    mix.push_back(q15);
  }

  // Serial references, each on a fresh private cache: the ground truth a
  // fresh one-shot process would produce.
  std::vector<ServiceResponse> expected;
  for (const ServiceRequest& req : mix) {
    ContextCache fresh;
    expected.push_back(QueryService::RunOneShot(req, &fresh));
    ASSERT_TRUE(expected.back().status.ok()) << expected.back().status.ToString();
  }
  ServiceResponse chaos_expected;
  {
    ContextCache fresh;
    chaos_expected = QueryService::RunOneShot(chaos_ab, &fresh);
  }

  constexpr int kClients = 16;
  QueryService::Options opts;
  opts.num_threads = 8;
  opts.queue_limit = 2 * kClients;
  QueryService service(opts);

  {
    SCOPED_TRACE("chaos AlignedBound, run first");
    const int64_t session = *service.OpenSession();
    ExpectSamePayload(*service.Wait(session, *service.Submit(session, chaos_ab)),
                      chaos_expected);
    ASSERT_TRUE(service.CloseSession(session).ok());
  }

  std::vector<ServiceResponse> got(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const ServiceRequest& req = mix[static_cast<size_t>(c) % mix.size()];
      const int64_t session = *service.OpenSession();
      const int64_t id = *service.Submit(session, req);
      got[static_cast<size_t>(c)] = *service.Wait(session, id);
      ASSERT_TRUE(service.CloseSession(session).ok());
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    const ServiceResponse& want = expected[static_cast<size_t>(c) % mix.size()];
    SCOPED_TRACE("client " + std::to_string(c) + " (" + want.query_id + " " +
                 want.algorithm + ")");
    ExpectSamePayload(got[static_cast<size_t>(c)], want);
  }

  // The chaos variants actually injected faults (the test would otherwise
  // not exercise the armed path).
  EXPECT_TRUE(expected[4].robustness.Any());
  EXPECT_TRUE(chaos_expected.robustness.Any());
  // The injector is disarmed once the storm has passed.
  EXPECT_FALSE(FaultInjector::Armed());
}

// Chaos requests arm their own worker thread, so requests with different
// specs and seeds run side by side on the pool, beside clean ones: every
// reply must still equal its serial one-shot, bit for bit.
TEST(QueryServiceTest, ConcurrentChaosRequestsBitIdenticalToSerial) {
  std::vector<ServiceRequest> mix;
  {
    ServiceRequest r;
    r.query_id = "2D_Q91";
    r.options = SmallOptions();
    r.use_engine = true;
    r.mode = RobustnessMode::kSpillBound;
    r.options.fault_spec = "exec.*:p=0.05";
    r.options.fault_seed = 3;
    mix.push_back(r);
    r.mode = RobustnessMode::kPlanBouquet;
    r.options.fault_spec = "exec.scan.read:p=0.3;exec.hashjoin.build:p=0.2,"
                           "kind=spike,mult=2";
    r.options.fault_seed = 21;
    mix.push_back(r);
    // Two chunk workers: the executor's fan-out inherits the arming.
    r.mode = RobustnessMode::kAlignedBound;
    r.options.num_threads = 2;
    r.options.fault_spec = "exec.batch.pipeline:p=0.5;exec.*:p=0.1";
    r.options.fault_seed = 44;
    mix.push_back(r);
    r.mode = RobustnessMode::kNative;
    r.options.num_threads = 1;
    r.options.fault_spec = "exec.*:p=0.2";
    r.options.fault_seed = 5;
    mix.push_back(r);
    // Clean engine and simulated requests on the same contexts.
    r.mode = RobustnessMode::kSpillBound;
    r.options.fault_spec.clear();
    mix.push_back(r);
    r.use_engine = false;
    r.mode = RobustnessMode::kAlignedBound;
    r.qa = {0.04, 0.1};
    mix.push_back(r);
    // Simulated chaos: corrupted cost model and spill transients.
    r.options.fault_spec = "oracle.cost_model:p=0.3,kind=corrupt;"
                           "exec.spill.run:p=0.2";
    r.options.fault_seed = 8;
    mix.push_back(r);
    r.mode = RobustnessMode::kPlanBouquet;
    r.qa = {0.2, 0.3};
    r.options.fault_spec = "*:p=0.05";
    r.options.fault_seed = 12;
    mix.push_back(r);
  }

  std::vector<ServiceResponse> expected;
  for (const ServiceRequest& req : mix) {
    ContextCache fresh;
    expected.push_back(QueryService::RunOneShot(req, &fresh));
    ASSERT_TRUE(expected.back().status.ok())
        << expected.back().status.ToString();
  }
  int faulted = 0;
  for (size_t i = 0; i < mix.size(); ++i) {
    if (!mix[i].options.fault_spec.empty() && expected[i].robustness.Any()) {
      ++faulted;
    }
  }
  EXPECT_GE(faulted, 4);

  constexpr int kClients = 12;
  constexpr int kRounds = 3;
  QueryService::Options opts;
  opts.num_threads = 4;
  opts.queue_limit = 2 * kClients;
  QueryService service(opts);
  std::vector<std::vector<ServiceResponse>> got(
      kClients, std::vector<ServiceResponse>(kRounds));
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int64_t session = *service.OpenSession();
      for (int round = 0; round < kRounds; ++round) {
        const ServiceRequest& req =
            mix[static_cast<size_t>(c + round) % mix.size()];
        const int64_t id = *service.Submit(session, req);
        got[static_cast<size_t>(c)][static_cast<size_t>(round)] =
            *service.Wait(session, id);
      }
      ASSERT_TRUE(service.CloseSession(session).ok());
    });
  }
  for (auto& t : clients) t.join();

  for (int c = 0; c < kClients; ++c) {
    for (int round = 0; round < kRounds; ++round) {
      const size_t m = static_cast<size_t>(c + round) % mix.size();
      SCOPED_TRACE("client " + std::to_string(c) + " round " +
                   std::to_string(round) + " (mix " + std::to_string(m) +
                   ": " + expected[m].algorithm + " faults=\"" +
                   mix[m].options.fault_spec + "\")");
      ExpectSamePayload(
          got[static_cast<size_t>(c)][static_cast<size_t>(round)],
          expected[m]);
    }
  }
  EXPECT_FALSE(FaultInjector::Armed());
}

// Submit never hands the submitting thread's arming to the request: a
// clean request submitted from an armed thread runs clean, and a chaos
// one runs under its own spec and seed only.
TEST(QueryServiceTest, SubmitFromAnArmedThreadRunsUnderTheRequestsOwnSpec) {
  ServiceRequest clean;
  clean.query_id = "2D_Q91";
  clean.options = SmallOptions();
  clean.use_engine = true;
  clean.mode = RobustnessMode::kSpillBound;
  ServiceRequest chaos = clean;
  chaos.options.fault_spec = "exec.*:p=0.05";
  chaos.options.fault_seed = 3;
  ServiceResponse clean_expected, chaos_expected;
  {
    ContextCache fresh;
    clean_expected = QueryService::RunOneShot(clean, &fresh);
    chaos_expected = QueryService::RunOneShot(chaos, &fresh);
  }
  ASSERT_TRUE(clean_expected.status.ok());
  ASSERT_FALSE(clean_expected.robustness.Any());
  ASSERT_TRUE(chaos_expected.robustness.Any());

  QueryService::Options opts;
  opts.num_threads = 2;
  QueryService service(opts);
  const int64_t session = *service.OpenSession();
  ASSERT_TRUE(FaultInjector::Configure("*:p=0.5", 77).ok());
  const ServiceResponse clean_got =
      *service.Wait(session, *service.Submit(session, clean));
  const ServiceResponse chaos_got =
      *service.Wait(session, *service.Submit(session, chaos));
  EXPECT_TRUE(FaultInjector::Armed());
  EXPECT_EQ(FaultInjector::Current().spec(), "*:p=0.5");
  FaultInjector::Disarm();
  ASSERT_TRUE(service.CloseSession(session).ok());
  {
    SCOPED_TRACE("clean request");
    ExpectSamePayload(clean_got, clean_expected);
  }
  {
    SCOPED_TRACE("chaos request");
    ExpectSamePayload(chaos_got, chaos_expected);
  }
}

// ---------------------------------------------------------------------------
// TCP line protocol: parsing and formatting units, then a socket round-trip.
// ---------------------------------------------------------------------------

TEST(TcpProtocolTest, ParseSubmitLineRoundTrip) {
  ServiceRequest req;
  ASSERT_TRUE(ParseSubmitLine(
                  "SUBMIT query=3D_Q15 mode=ab qa=0.1,0.2,0.3 budget=500 "
                  "deadline_ms=2000 threads=2 shards=4 points=6 "
                  "ratio=1.5 build=exact faults=exec.*:p=0.01 seed=9",
                  &req)
                  .ok());
  EXPECT_EQ(req.query_id, "3D_Q15");
  EXPECT_EQ(req.mode, RobustnessMode::kAlignedBound);
  EXPECT_EQ(req.qa, (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(req.budget, 500.0);
  EXPECT_EQ(req.deadline_ms, 2000.0);
  EXPECT_EQ(req.options.num_threads, 2);
  EXPECT_EQ(req.options.num_shards, 4);
  EXPECT_EQ(req.options.points_per_dim, 6);
  EXPECT_EQ(req.options.contour_cost_ratio, 1.5);
  EXPECT_EQ(req.options.fault_spec, "exec.*:p=0.01");
  EXPECT_EQ(req.options.fault_seed, 9u);
}

// Every ESS is the exact sweep: build=exhaustive and build=exact are kept
// for the clients that send them and select the same context; any other
// value, the retired recost:<lambda> included, is refused.
TEST(TcpProtocolTest, BuildKeyNamesTheOneSweep) {
  ServiceRequest plain, exhaustive, exact;
  ASSERT_TRUE(ParseSubmitLine("SUBMIT query=2D_Q91 points=8", &plain).ok());
  ASSERT_TRUE(ParseSubmitLine("SUBMIT query=2D_Q91 points=8 build=exhaustive",
                              &exhaustive)
                  .ok());
  ASSERT_TRUE(
      ParseSubmitLine("SUBMIT query=2D_Q91 points=8 build=exact", &exact).ok());
  const std::string key =
      ContextCache::Key("2D_Q91", plain.options.ToEssConfig());
  EXPECT_EQ(ContextCache::Key("2D_Q91", exhaustive.options.ToEssConfig()), key);
  EXPECT_EQ(ContextCache::Key("2D_Q91", exact.options.ToEssConfig()), key);

  for (const char* bad : {"recost:2", "recost:1.5", "refine", "EXACT", ""}) {
    ServiceRequest req;
    ServiceResponse resp;
    resp.status = ParseSubmitLine(
        std::string("SUBMIT query=2D_Q91 build=").append(bad), &req);
    EXPECT_EQ(resp.status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_EQ(FormatResponseLine(resp).rfind("ERR code=2 ", 0), 0u) << bad;
  }
}

TEST(TcpProtocolTest, ParseSubmitLineRejectsMalformedInput) {
  ServiceRequest req;
  EXPECT_EQ(ParseSubmitLine("FROBNICATE", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT nonsense", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT color=blue", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT mode=warp", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT qa=1,two,3", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT build=sideways", &req).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseSubmitLine("SUBMIT query=", &req).code(),
            StatusCode::kInvalidArgument);
  // Batch is the only serving engine: engine= is an unknown key.
  EXPECT_EQ(ParseSubmitLine("SUBMIT engine=tuple", &req).code(),
            StatusCode::kInvalidArgument);
}

// threads= and shards= size per-request pools and per-shard vectors, so
// both must be whole integers inside their documented ranges.
TEST(TcpProtocolTest, ParseSubmitLineBoundsThreadsAndShards) {
  const auto parse = [](const std::string& kv, ServiceRequest* req) {
    return ParseSubmitLine("SUBMIT query=2D_Q91 " + kv, req).code();
  };
  for (const std::string bad :
       {"threads=100000", "threads=65", "threads=-1", "threads=abc",
        "threads=2x", "threads=1.5", "threads=99999999999999999999",
        "shards=2000000000", "shards=1025", "shards=-4", "shards=four",
        "shards=4abc"}) {
    ServiceRequest req;
    EXPECT_EQ(parse(bad, &req), StatusCode::kInvalidArgument) << bad;
  }

  ServiceRequest req;
  ASSERT_EQ(parse("threads=0 shards=0", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.num_threads, 0);  // all cores
  EXPECT_EQ(req.options.num_shards, 0);   // unsharded
  ASSERT_EQ(parse("threads=1 shards=1", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.num_shards, 1);
  ASSERT_EQ(parse("threads=" + std::to_string(kMaxSubmitThreads) +
                      " shards=" + std::to_string(kMaxSubmitShards),
                  &req),
            StatusCode::kOk);
  EXPECT_EQ(req.options.num_threads, kMaxSubmitThreads);
  EXPECT_EQ(req.options.num_shards, kMaxSubmitShards);
}

// Numeric keys are whole, finite numbers; points is bounded like threads.
// Values that parse but cannot build an ESS (points=1, ratio=1) are left
// to Ess::TryBuild, which refuses them with the same InvalidArgument.
TEST(TcpProtocolTest, ParseSubmitLineRejectsNonNumericValues) {
  const auto parse = [](const std::string& kv, ServiceRequest* req) {
    return ParseSubmitLine("SUBMIT query=2D_Q91 " + kv, req).code();
  };
  const std::vector<std::string> bad_values = {
      "points=abc", "points=8x", "points=2.5", "points=-3",
      "points=" + std::to_string(kMaxEssLocations + 1),
      "points=99999999999999999999", "ratio=abc", "ratio=2x", "ratio=inf",
      "ratio=nan", "budget=lots", "budget=1e999", "deadline_ms=soon",
      "deadline_ms=5ms", "build=recost:abc", "build=recost:inf",
      "build=recost:1", "build=recost:", "qa=0.1,nan"};
  for (const std::string& bad : bad_values) {
    ServiceRequest req;
    EXPECT_EQ(parse(bad, &req), StatusCode::kInvalidArgument) << bad;
  }

  ServiceRequest req;
  ASSERT_EQ(parse("points=0 ratio=1.8 budget=-1 deadline_ms=0.5", &req),
            StatusCode::kOk);
  EXPECT_EQ(req.options.points_per_dim, 0);  // per-D default
  EXPECT_EQ(req.options.contour_cost_ratio, 1.8);
  EXPECT_EQ(req.budget, -1.0);
  EXPECT_EQ(req.deadline_ms, 0.5);
  ASSERT_EQ(parse("points=1 ratio=1", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.points_per_dim, 1);
  EXPECT_EQ(req.options.contour_cost_ratio, 1.0);
  ASSERT_EQ(parse("points=" + std::to_string(kMaxEssLocations), &req),
            StatusCode::kOk);
  EXPECT_EQ(req.options.points_per_dim, kMaxEssLocations);
}

TEST(TcpProtocolTest, ParseSubmitLineAcceptsOnlyUnsignedDecimalSeeds) {
  const auto parse = [](const std::string& seed, ServiceRequest* req) {
    return ParseSubmitLine("SUBMIT query=2D_Q91 seed=" + seed, req).code();
  };
  // 2^64 is one past the largest uint64_t.
  for (const std::string bad :
       {"abc", "-1", "1e3", "", "18446744073709551616", "+5", "7x", "0x10"}) {
    ServiceRequest req;
    EXPECT_EQ(parse(bad, &req), StatusCode::kInvalidArgument) << bad;
    ServiceResponse resp;
    resp.status = ParseSubmitLine("SUBMIT query=2D_Q91 seed=" + bad, &req);
    EXPECT_EQ(FormatResponseLine(resp).rfind("ERR code=2 ", 0), 0u) << bad;
  }
  ServiceRequest req;
  ASSERT_EQ(parse("0", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.fault_seed, 0u);
  ASSERT_EQ(parse("64", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.fault_seed, 64u);
  ASSERT_EQ(parse("18446744073709551615", &req), StatusCode::kOk);
  EXPECT_EQ(req.options.fault_seed, UINT64_MAX);
}

// Deterministic fuzz of the server's outside input: seeded mutations of
// valid SUBMIT lines — truncation at every byte, duplicate and unknown
// keys, NaN / inf / negative / huge values, random byte edits and a qa
// list of 10^5 entries. Every input must parse to OK or InvalidArgument
// (ERR code=2), the same way every time, and never abort.
TEST(TcpProtocolTest, ParseSubmitLineFuzzGivesOkOrStableErr) {
  const std::vector<std::string> valid = {
      "SUBMIT query=3D_Q15 mode=ab qa=0.1,0.2,0.3 budget=500 "
      "deadline_ms=2000 threads=2 shards=4 points=6 ratio=1.5 "
      "build=exhaustive faults=exec.*:p=0.01 seed=9",
      "SUBMIT query=4D_Q91 mode=pb use_engine=1 threads=1 storage=mmap "
      "compression=dict fused=0 feedback=1",
      "SUBMIT query=2D_Q91 mode=sb points=8 build=exact",
  };
  const std::vector<std::string> keys = {
      "query", "mode",   "qa",    "budget",      "deadline_ms", "use_engine",
      "threads", "shards", "points", "ratio",     "build",       "compression",
      "fused", "storage", "feedback", "faults",   "seed"};
  const std::vector<std::string> values = {
      "nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e308", "1e309",
      "-1e309", "-1", "-0", "0", "1e-320", "99999999999999999999",
      "18446744073709551616", "0x10", "+3", "3.", "1e", ".", "-", "",
      "recost:nan", "recost:1e999", "0.5,nan", "1,,2", ",", "1,-inf",
      std::string(300, '9')};

  std::vector<std::string> inputs;
  for (const std::string& line : valid) {
    for (size_t n = 0; n <= line.size(); ++n) inputs.push_back(line.substr(0, n));
  }
  Rng rng(20);
  for (int i = 0; i < 3000; ++i) {
    std::string line = valid[static_cast<size_t>(rng.UniformInt(0, 2))];
    switch (rng.UniformInt(0, 4)) {
      case 0:  // a duplicate of a known key with any value
      case 1:  // a known key with a hostile value
        line += " " + keys[static_cast<size_t>(rng.UniformInt(
                          0, static_cast<int64_t>(keys.size()) - 1))] +
                "=" +
                values[static_cast<size_t>(rng.UniformInt(
                    0, static_cast<int64_t>(values.size()) - 1))];
        break;
      case 2:  // an unknown or malformed key
        line += std::vector<std::string>{" zz=1", " QUERY=x", " =5",
                                         " a=b=c", " qa", " ==",
                                         " query=a=b"}[static_cast<size_t>(
            rng.UniformInt(0, 6))];
        break;
      default: {  // random byte edits: replace, insert or delete
        const int edits = static_cast<int>(rng.UniformInt(1, 4));
        for (int e = 0; e < edits && !line.empty(); ++e) {
          const size_t at = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(line.size()) - 1));
          const char c = static_cast<char>(rng.UniformInt(0, 255));
          const int64_t op = rng.UniformInt(0, 2);
          if (op == 0) line[at] = c;
          if (op == 1) line.insert(at, 1, c);
          if (op == 2) line.erase(at, 1);
        }
      }
    }
    inputs.push_back(line);
  }
  std::string qa = "SUBMIT query=4D_Q91 qa=";
  for (int i = 0; i < 100000; ++i) {
    qa += i == 0 ? "" : ",";
    qa += std::to_string(1e-5 * (i % 7 + 1));
  }
  inputs.push_back(qa);
  inputs.push_back(qa + ",nan");

  for (const std::string& line : inputs) {
    ServiceRequest first, second;
    const Status a = ParseSubmitLine(line, &first);
    const Status b = ParseSubmitLine(line, &second);
    EXPECT_TRUE(a.ok() || a.code() == StatusCode::kInvalidArgument)
        << line << " -> " << a.ToString();
    EXPECT_EQ(a.code(), b.code()) << line;
    EXPECT_EQ(a.message(), b.message()) << line;
    if (!a.ok()) {
      ServiceResponse resp;
      resp.status = a;
      EXPECT_EQ(FormatResponseLine(resp).rfind("ERR code=2 ", 0), 0u) << line;
    }
  }
  // The 10^5-entry list parses whole; one NaN entry refuses all of it.
  ServiceRequest req;
  ASSERT_TRUE(ParseSubmitLine(qa, &req).ok());
  EXPECT_EQ(req.qa.size(), 100000u);
  EXPECT_EQ(ParseSubmitLine(qa + ",nan", &req).code(),
            StatusCode::kInvalidArgument);
}

TEST(TcpProtocolTest, FormatResponseLineShapes) {
  ServiceResponse ok;
  ok.status = Status::OK();
  ok.request_id = 3;
  ok.algorithm = "SpillBound";
  ok.completed = true;
  ok.cost_used = 10.0;
  ok.opt_cost = 5.0;
  ok.suboptimality = 2.0;
  const std::string ok_line = FormatResponseLine(ok);
  EXPECT_EQ(ok_line.rfind("OK id=3 algo=SpillBound completed=1", 0), 0u)
      << ok_line;

  ServiceResponse err;
  err.status = Status::ResourceExhausted("queue full");
  const std::string err_line = FormatResponseLine(err);
  EXPECT_EQ(err_line.rfind("ERR code=9 status=ResourceExhausted", 0), 0u)
      << err_line;
}

namespace {

/// Minimal blocking line client for the round-trip test.
class LineClient {
 public:
  explicit LineClient(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    connected_ = ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0;
  }
  ~LineClient() {
    if (fd_ >= 0) ::close(fd_);
  }
  bool connected() const { return connected_; }
  std::string RoundTrip(const std::string& line) {
    const std::string out = line + "\n";
    if (::send(fd_, out.data(), out.size(), 0) < 0) return "";
    while (buffer_.find('\n') == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
    const size_t nl = buffer_.find('\n');
    std::string reply = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return reply;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
  std::string buffer_;
};

}  // namespace

TEST(TcpServerTest, ServesSubmitsOverALiveSocket) {
  QueryService service;
  TcpServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_EQ(client.RoundTrip("PING"), "PONG");

  const std::string ok =
      client.RoundTrip("SUBMIT query=2D_Q91 mode=sb points=8 threads=1");
  EXPECT_EQ(ok.rfind("OK ", 0), 0u) << ok;

  const std::string err = client.RoundTrip("SUBMIT query=2D_NOPE mode=sb");
  EXPECT_EQ(err.rfind("ERR code=3 status=NotFound", 0), 0u) << err;

  // Both submits above are terminal by the time their replies arrived, so
  // the counters and the shard/queue extensions are fully deterministic.
  const std::string stats = client.RoundTrip("STATS");
  EXPECT_EQ(stats.rfind("STATS hits=", 0), 0u) << stats;
  EXPECT_NE(stats.find(" submitted=2 completed=2 rejected=0 queue_depth=0"),
            std::string::npos)
      << stats;
  EXPECT_NE(stats.find(" shard_chunks_scanned=0 shard_chunks_pruned=0"
                       " shard_straggler_retries=0 shard_lost_chunks=0"),
            std::string::npos)
      << stats;

  // A sharded engine run scatters its scans; STATS must account the
  // chunks it committed.
  const std::string sharded = client.RoundTrip(
      "SUBMIT query=2D_Q91 mode=native use_engine=1 shards=2 points=8 "
      "threads=1");
  EXPECT_EQ(sharded.rfind("OK ", 0), 0u) << sharded;
  const std::string stats2 = client.RoundTrip("STATS");
  const size_t pos = stats2.find(" shard_chunks_scanned=");
  ASSERT_NE(pos, std::string::npos) << stats2;
  EXPECT_GT(std::atoll(stats2.c_str() + pos + 22), 0) << stats2;

  server.Stop();
}

TEST(TcpServerTest, UnbuildableGridIsInvalidArgumentAndServerKeepsServing) {
  QueryService service;
  TcpServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const std::string line :
       {"SUBMIT query=2D_Q91 mode=sb points=1",
        "SUBMIT query=2D_Q91 mode=sb points=8 threads=1 ratio=1",
        "SUBMIT query=2D_Q91 mode=sb points=8 threads=1 ratio=abc",
        "SUBMIT query=3D_Q15 mode=sb points=102"}) {
    const std::string reply = client.RoundTrip(line);
    EXPECT_EQ(reply.rfind("ERR code=2 status=InvalidArgument", 0), 0u)
        << line << " -> " << reply;
    EXPECT_EQ(client.RoundTrip("PING"), "PONG") << line;
  }
  const std::string ok =
      client.RoundTrip("SUBMIT query=2D_Q91 mode=sb points=8 threads=1");
  EXPECT_EQ(ok.rfind("OK ", 0), 0u) << ok;
  server.Stop();
}

// A faults= spec the injector would refuse is refused by the parser, so
// the request is never admitted and builds no context.
TEST(TcpServerTest, BadFaultSpecIsRefusedBeforeAnyContextIsBuilt) {
  QueryService service;
  TcpServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  for (const std::string line :
       {"SUBMIT query=3D_Q15 mode=sb points=10 faults=bogus",
        "SUBMIT query=4D_Q91 mode=sb points=8 faults=exec.nope:p=0.1",
        "SUBMIT query=2D_Q91 mode=sb points=8 faults=exec.*:p=2",
        "SUBMIT query=2D_Q91 mode=pb points=8 use_engine=1 "
        "faults=exec.*:kind=sometimes seed=4"}) {
    const std::string reply = client.RoundTrip(line);
    EXPECT_EQ(reply.rfind("ERR code=2 status=InvalidArgument", 0), 0u)
        << line << " -> " << reply;
  }
  const std::string stats = client.RoundTrip("STATS");
  EXPECT_NE(stats.find("STATS hits=0 misses=0 evictions=0 cache_size=0 "
                       "submitted=0 completed=0 "),
            std::string::npos)
      << stats;
  server.Stop();
}

/// Opens a loopback connection to `port`; -1 on failure.
int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (fd >= 0 && ::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                           sizeof(addr)) == 0) {
    return fd;
  }
  if (fd >= 0) ::close(fd);
  return -1;
}

/// Sends `payload` from a second thread, then half-closes; returns
/// everything the server sends until it closes.
std::string SendAndReadUntilClose(int fd, const std::string& payload) {
  std::thread sender([fd, &payload] {
    size_t off = 0;
    while (off < payload.size()) {
      const ssize_t n = ::send(fd, payload.data() + off, payload.size() - off,
                               MSG_NOSIGNAL);
      if (n <= 0) break;
      off += static_cast<size_t>(n);
    }
    ::shutdown(fd, SHUT_WR);
  });
  std::string got;
  char chunk[4096];
  while (true) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    got.append(chunk, static_cast<size_t>(n));
  }
  sender.join();
  return got;
}

// A line longer than kMaxLineBytes — a 10 MB one, or an unterminated
// buffer past the cap — gets exactly one ERR code=2 and the connection
// closes; a line of exactly the cap is served, with an LF or a CRLF
// ending, and so is every other connection.
TEST(TcpServerTest, OverlongLineGetsOneErrAndTheConnectionCloses) {
  QueryService service;
  TcpServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<std::string> hostile = {
      "PING\n" + std::string(10 << 20, 'x') + "\nPING\n",
      std::string(kMaxLineBytes + 1, 'y')};
  for (const std::string& payload : hostile) {
    const int fd = ConnectLoopback(server.port());
    ASSERT_GE(fd, 0);
    const std::string got = SendAndReadUntilClose(fd, payload);
    ::close(fd);
    const bool leading_ping = payload.rfind("PING\n", 0) == 0;
    const std::string err = leading_ping ? got.substr(got.find('\n') + 1) : got;
    if (leading_ping) {
      EXPECT_EQ(got.rfind("PONG\n", 0), 0u) << got;
    }
    EXPECT_EQ(err.rfind("ERR code=2 status=InvalidArgument", 0), 0u) << got;
    EXPECT_EQ(std::count(err.begin(), err.end(), '\n'), 1) << got;

    LineClient other(server.port());
    ASSERT_TRUE(other.connected());
    EXPECT_EQ(other.RoundTrip("PING"), "PONG");
  }

  // Exactly at the cap: parsed and answered like any other line.
  LineClient client(server.port());
  ASSERT_TRUE(client.connected());
  std::string at_cap = "SUBMIT query=2D_NOPE mode=sb";
  at_cap.resize(kMaxLineBytes, ' ');
  const std::string reply = client.RoundTrip(at_cap);
  EXPECT_EQ(reply.rfind("ERR code=3 status=NotFound", 0), 0u) << reply;
  EXPECT_EQ(client.RoundTrip("PING"), "PONG");
  // The same line ending in CRLF: the '\r' is not counted against the cap.
  const std::string crlf_reply = client.RoundTrip(at_cap + "\r");
  EXPECT_EQ(crlf_reply.rfind("ERR code=3 status=NotFound", 0), 0u)
      << crlf_reply;
  EXPECT_EQ(client.RoundTrip("PING\r"), "PONG");
  server.Stop();
}

/// This process's VmSize in kB and its number of memory mappings.
std::pair<int64_t, int64_t> VmSizeAndMaps() {
  int64_t vm_kb = -1;
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) vm_kb = std::atoll(line.c_str() + 7);
  }
  std::ifstream maps("/proc/self/maps");
  int64_t n = 0;
  for (std::string line; std::getline(maps, line);) ++n;
  return {vm_kb, n};
}

// 1,000 sequential PING-and-close connections, never more than one open:
// each finished connection's thread is joined by a later accept, so the
// address space and the mapping count end near where they started. An
// unjoined thread keeps its stack (8 MB here) mapped until Stop, 8 GB over
// the run; the VmSize bound leaves room for a new 64 MB malloc arena.
TEST(TcpServerTest, SequentialConnectionsAreReaped) {
  QueryService service;
  TcpServer server(&service, /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  const auto ping_and_close = [&] {
    LineClient client(server.port());
    ASSERT_TRUE(client.connected());
    ASSERT_EQ(client.RoundTrip("PING"), "PONG");
  };
  for (int i = 0; i < 20; ++i) ping_and_close();  // allocator warm-up
  const auto [vm0, maps0] = VmSizeAndMaps();
  ASSERT_GT(vm0, 0);
  for (int i = 0; i < 1000; ++i) ping_and_close();
  const auto [vm1, maps1] = VmSizeAndMaps();
  EXPECT_LT(vm1 - vm0, 256 * 1024)
      << "VmSize " << vm0 << " -> " << vm1 << " kB";
  EXPECT_LT(maps1 - maps0, 32) << "maps " << maps0 << " -> " << maps1;
  server.Stop();
}

}  // namespace
}  // namespace robustqp
