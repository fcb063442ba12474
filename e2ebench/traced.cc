#include "traced.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/fault.h"
#include "core/alignedbound.h"
#include "core/oracle.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "feedback/feedback_store.h"
#include "feedback/warm_start.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"
#include "stats.h"

namespace e2e {

using namespace robustqp;

namespace {

using Clock = std::chrono::steady_clock;

double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The layers a request's time is charged to, named after src/ modules.
/// kServer is the service's own request body (qa snapping, response
/// assembly); kFault is arming and disarming the injector.
enum Layer { kServer, kContextCache, kEss, kFeedback, kOptimizer, kExec,
             kCore, kFault, kNumLayers };
const char* const kLayerNames[kNumLayers] = {
    "server", "context_cache", "ess", "feedback", "optimizer", "exec",
    "core", "fault"};

/// Everything the replay accumulates.
struct Tally {
  double self_ms[kNumLayers] = {};
  std::vector<double> get_hit_us, get_miss_ms;
  int64_t builds = 0, build_optimizer_calls = 0;
  double recost_ms = 0, optimize_ms = 0;
  double exec_full_ms = 0, exec_spill_ms = 0;
  /// Engine executions: wall ms and cost charged, per backend and query.
  double exec_ms[2] = {}, exec_cost[2] = {};
  std::map<std::string, std::pair<double, double>> exec_by_query;
  /// Discovery requests: DiscoveryAlgorithm::Run wall time, Run minus its
  /// oracle calls, and constructing the algorithm (with its guarantee).
  double discovery_ms = 0, run_self_ms = 0, construct_ms = 0;
  int64_t discoveries = 0, steps = 0, spill_steps = 0;
  double wasted_cost = 0, discovery_cost = 0;
  double fb_get_ms = 0, fb_observe_ms = 0;
  double replica_ms = 0, reference_ms = 0;
  int64_t requests = 0;
};

/// Forwards to the request's real oracle and times every execution:
/// engine executions are the exec layer, simulated ones are optimizer
/// recosting.
class TimedOracle : public ExecutionOracle {
 public:
  TimedOracle(ExecutionOracle* inner, bool engine, int backend,
              const std::string& query, Tally* tally)
      : inner_(inner), engine_(engine), backend_(backend), query_(query),
        tally_(tally) {}

  ExecOutcome ExecuteFull(const Plan& plan, double budget) override {
    const auto t0 = Clock::now();
    const ExecOutcome out = inner_->ExecuteFull(plan, budget);
    Record(t0, out, &tally_->exec_full_ms);
    return out;
  }
  ExecOutcome ExecuteSpill(const Plan& plan, int dim, double budget,
                           const std::vector<double>& learned) override {
    const auto t0 = Clock::now();
    const ExecOutcome out = inner_->ExecuteSpill(plan, dim, budget, learned);
    Record(t0, out, &tally_->exec_spill_ms);
    return out;
  }
  int num_shards() const override { return inner_->num_shards(); }
  std::vector<double> ObservedSelectivities() const override {
    return inner_->ObservedSelectivities();
  }

  double elapsed_ms() const { return elapsed_ms_; }

 private:
  void Record(Clock::time_point t0, const ExecOutcome& out, double* kind_ms) {
    const double ms = Ms(t0, Clock::now());
    report_ = inner_->report();
    elapsed_ms_ += ms;
    if (!engine_) {
      tally_->recost_ms += ms;
      tally_->self_ms[kOptimizer] += ms;
      return;
    }
    *kind_ms += ms;
    tally_->self_ms[kExec] += ms;
    tally_->exec_ms[backend_] += ms;
    tally_->exec_cost[backend_] += out.cost_charged;
    auto& q = tally_->exec_by_query[query_];
    q.first += ms;
    q.second += out.cost_charged;
  }

  ExecutionOracle* inner_;
  bool engine_;
  int backend_;
  std::string query_;
  Tally* tally_;
  double elapsed_ms_ = 0.0;
};

std::unique_ptr<DiscoveryAlgorithm> MakeAlgorithm(RobustnessMode mode,
                                                  const Ess* ess) {
  switch (mode) {
    case RobustnessMode::kPlanBouquet:
      return std::make_unique<PlanBouquet>(ess);
    case RobustnessMode::kSpillBound:
      return std::make_unique<SpillBound>(ess);
    case RobustnessMode::kAlignedBound:
      return std::make_unique<AlignedBound>(ess);
    case RobustnessMode::kNative:
      break;
  }
  return nullptr;
}

/// The replica of QueryService::Execute / RunResolved. Each block is
/// charged to the layer whose calls it makes; keep it in step with
/// src/server/query_service.cc (the reply comparison fails otherwise).
class Replica {
 public:
  explicit Replica(size_t cache_capacity)
      : cache_(ContextCache::Options{cache_capacity}) {}

  ServiceResponse Run(const ServiceRequest& request, Tally* t) {
    ServiceResponse resp;
    resp.query_id = request.query_id;
    auto t0 = Clock::now();
    auto ctx_or = cache_.Get(request.query_id, request.options.ToEssConfig(),
                             request.options.encoding,
                             request.options.use_compression,
                             request.options.storage, &resp.cache_hit);
    const double get_ms = Ms(t0, Clock::now());
    if (resp.cache_hit) {
      t->self_ms[kContextCache] += get_ms;
      t->get_hit_us.push_back(get_ms * 1e3);
    } else {
      // A miss is an ESS build (the catalogs were built up front).
      t->self_ms[kEss] += get_ms;
      t->get_miss_ms.push_back(get_ms);
      if (ctx_or.ok()) {
        ++t->builds;
        t->build_optimizer_calls += (*ctx_or)->ess->build_stats().optimizer_calls;
      }
    }
    if (!ctx_or.ok()) {
      resp.status = ctx_or.status();
      return resp;
    }
    const std::shared_ptr<const ContextCache::Entry> ctx = ctx_or.MoveValue();

    if (request.options.fault_spec.empty()) {
      resp.status = RunResolved(request, *ctx, &resp, t);
    } else {
      t0 = Clock::now();
      const Status st = FaultInjector::Configure(request.options.fault_spec,
                                                 request.options.fault_seed);
      t->self_ms[kFault] += Ms(t0, Clock::now());
      if (!st.ok()) {
        resp.status = st;
        return resp;
      }
      {
        FaultStreamScope scope(request.options.fault_seed);
        resp.status = RunResolved(request, *ctx, &resp, t);
      }
      t0 = Clock::now();
      FaultInjector::Disarm();
      t->self_ms[kFault] += Ms(t0, Clock::now());
    }
    if (resp.feedback_drift) {
      t0 = Clock::now();
      cache_.InvalidateQuery(request.query_id);
      t->self_ms[kContextCache] += Ms(t0, Clock::now());
    }
    return resp;
  }

 private:
  Status RunResolved(const ServiceRequest& request,
                     const ContextCache::Entry& ctx, ServiceResponse* resp,
                     Tally* t) {
    auto t0 = Clock::now();
    const Ess& ess = *ctx.ess;
    const int dims = ess.dims();
    GridLoc qa(static_cast<size_t>(dims), ess.points() / 2);
    if (!request.qa.empty()) {
      if (static_cast<int>(request.qa.size()) != dims) {
        return Status::InvalidArgument("qa dimensionality mismatch");
      }
      for (int d = 0; d < dims; ++d) {
        const double s = request.qa[static_cast<size_t>(d)];
        if (!(s > 0.0) || s > 1.0) {
          return Status::OutOfRange("qa selectivity out of (0, 1]");
        }
        qa[static_cast<size_t>(d)] = ess.axis().NearestIndex(s);
      }
    }
    const EssPoint qa_sel = ess.SelAt(qa);
    resp->opt_cost = ess.OptimalCost(qa);
    t->self_ms[kServer] += Ms(t0, Clock::now());

    const bool use_fb = request.options.use_feedback;
    feedback::FeedbackStore::Calibration cal;
    RobustnessReport fb_report;
    std::string fb_key;
    if (use_fb) {
      t0 = Clock::now();
      fb_key = feedback::FeedbackStore::Key(
          request.query_id, dims, StorageBackendName(request.options.storage));
      cal = store_.Get(fb_key, &fb_report);
      resp->feedback_hit = cal.valid;
      const double ms = Ms(t0, Clock::now());
      t->self_ms[kFeedback] += ms;
      t->fb_get_ms += ms;
    }

    const int backend = request.options.storage == StorageBackend::kMmap;
    std::unique_ptr<Executor> executor;
    if (request.use_engine) {
      t0 = Clock::now();
      executor = std::make_unique<Executor>(
          ctx.catalog.get(), ess.config().cost_model,
          request.options.ToExecutorOptions());
      t->self_ms[kExec] += Ms(t0, Clock::now());
    }

    std::vector<double> observed;
    int observed_contour = -1;
    if (request.mode == RobustnessMode::kNative) {
      t0 = Clock::now();
      resp->algorithm = "native";
      EssPoint qe = ess.optimizer().estimator().NativeEstimatePoint();
      if (use_fb && cal.valid && static_cast<int>(cal.sel.size()) == dims) {
        for (int d = 0; d < dims; ++d) {
          qe[static_cast<size_t>(d)] = std::min(
              1.0, std::max(cal.sel[static_cast<size_t>(d)],
                            ess.axis().value(0)));
        }
      }
      std::unique_ptr<Plan> plan = ess.optimizer().Optimize(qe);
      const double opt_ms = Ms(t0, Clock::now());
      t->self_ms[kOptimizer] += opt_ms;
      t->optimize_ms += opt_ms;
      t0 = Clock::now();
      if (request.use_engine) {
        Result<ExecutionResult> res = executor->Execute(*plan, request.budget);
        if (!res.ok()) return res.status();
        resp->execution = res.MoveValue();
        resp->completed = resp->execution.completed;
        resp->cost_used = resp->execution.cost_used;
        resp->robustness = resp->execution.robustness;
        if (resp->completed) {
          observed = ObservedEppSelectivities(*plan, resp->execution);
        }
        plan.reset();
        const double ms = Ms(t0, Clock::now());
        t->self_ms[kExec] += ms;
        t->exec_full_ms += ms;
        t->exec_ms[backend] += ms;
        t->exec_cost[backend] += resp->cost_used;
        auto& q = t->exec_by_query[request.query_id];
        q.first += ms;
        q.second += resp->cost_used;
      } else {
        resp->completed = true;
        resp->cost_used = ess.optimizer().PlanCost(*plan, qa_sel);
        observed = qa_sel;
        plan.reset();
        const double ms = Ms(t0, Clock::now());
        t->self_ms[kOptimizer] += ms;
        t->recost_ms += ms;
      }
    } else {
      Clock::time_point teardown;
      {
        t0 = Clock::now();
        const std::unique_ptr<DiscoveryAlgorithm> algo =
            MakeAlgorithm(request.mode, &ess);
        resp->algorithm = algo->name();
        resp->guarantee = algo->MsoGuarantee();
        const double construct_ms = Ms(t0, Clock::now());
        t->construct_ms += construct_ms;
        double core_ms = construct_ms;

        t0 = Clock::now();
        std::unique_ptr<ExecutionOracle> inner;
        EngineOracle* engine_oracle = nullptr;
        if (request.use_engine) {
          auto eo = std::make_unique<EngineOracle>(executor.get());
          engine_oracle = eo.get();
          inner = std::move(eo);
        } else {
          auto so = std::make_unique<SimulatedOracle>(&ess, qa);
          so->set_num_shards(request.options.num_shards);
          inner = std::move(so);
        }
        t->self_ms[request.use_engine ? kExec : kOptimizer] +=
            Ms(t0, Clock::now());
        TimedOracle oracle(inner.get(), request.use_engine, backend,
                           request.query_id, t);

        WarmStartHint hint;
        if (use_fb) {
          t0 = Clock::now();
          hint = feedback::MakeWarmStartHint(ess, cal);
          t->self_ms[kFeedback] += Ms(t0, Clock::now());
        }
        t0 = Clock::now();
        resp->discovery = algo->Run(&oracle, hint.valid ? &hint : nullptr);
        const double run_ms = Ms(t0, Clock::now());
        t->discovery_ms += run_ms;
        ++t->discoveries;
        core_ms += run_ms - oracle.elapsed_ms();
        t->run_self_ms += run_ms - oracle.elapsed_ms();

        t0 = Clock::now();
        resp->completed = resp->discovery.completed;
        resp->cost_used = resp->discovery.total_cost;
        resp->robustness = resp->discovery.robustness;
        resp->warm_started = resp->discovery.warm_started;
        resp->warm_completed = resp->discovery.warm_completed;
        if (engine_oracle != nullptr &&
            engine_oracle->last_completed_full() != nullptr) {
          resp->execution = *engine_oracle->last_completed_full();
        }
        if (resp->completed) {
          observed = oracle.ObservedSelectivities();
          observed_contour = resp->discovery.final_contour;
        }
        for (const ExecutionStep& step : resp->discovery.steps) {
          ++t->steps;
          if (step.spill_dim >= 0) ++t->spill_steps;
          if (!step.completed) t->wasted_cost += step.cost_charged;
        }
        t->discovery_cost += resp->discovery.total_cost;
        core_ms += Ms(t0, Clock::now());
        t->self_ms[kCore] += core_ms;
        teardown = Clock::now();
      }
      // Destroying the algorithm's memo caches and the oracles.
      t->self_ms[kCore] += Ms(teardown, Clock::now());
    }

    if (use_fb) {
      t0 = Clock::now();
      resp->robustness.Merge(fb_report);
      if (resp->completed && !observed.empty()) {
        const feedback::FeedbackStore::DriftSignal drift = store_.Observe(
            fb_key, observed, resp->cost_used, observed_contour);
        resp->feedback_drift = drift.drifted;
      }
      const double ms = Ms(t0, Clock::now());
      t->self_ms[kFeedback] += ms;
      t->fb_observe_ms += ms;
    }

    t0 = Clock::now();
    resp->suboptimality =
        resp->opt_cost > 0.0 ? resp->cost_used / resp->opt_cost : 0.0;
    Status out = Status::OK();
    if (!resp->completed) {
      out = Status::BudgetExhausted("execution did not complete within " +
                                    std::to_string(request.budget) +
                                    " cost units");
    } else if (request.budget >= 0.0 && resp->cost_used > request.budget) {
      out = Status::BudgetExhausted(
          "cost_used " + std::to_string(resp->cost_used) +
          " exceeded the request budget " + std::to_string(request.budget));
    }
    executor.reset();
    t->self_ms[kServer] += Ms(t0, Clock::now());
    return out;
  }

  ContextCache cache_;
  feedback::FeedbackStore store_;
};

}  // namespace

void TimeCatalogBuilds(Metrics* out) {
  double ms[2] = {};
  for (int backend = 0; backend < 2; ++backend) {
    const StorageBackend b =
        backend == 0 ? StorageBackend::kResident : StorageBackend::kMmap;
    const auto t0 = Clock::now();
    ContextCache::TpcdsCatalog(Encoding::kAuto, b);
    ContextCache::JobCatalog(Encoding::kAuto, b);
    ms[backend] = Ms(t0, Clock::now());
  }
  (*out)["storage.catalog_build_ms.resident"] = ms[0];
  (*out)["storage.catalog_build_ms.mmap"] = ms[1];
}

void RunTraced(const Workload& w, uint64_t seed, int clients,
               int max_requests, double max_seconds, Metrics* out,
               std::vector<std::string>* failures) {
  std::vector<Stream> streams;
  for (int c = 0; c < clients; ++c) streams.emplace_back(&w, seed, c);
  ContextCache ref_cache(ContextCache::Options{w.cache_capacity});
  feedback::FeedbackStore ref_store;
  Replica replica(w.cache_capacity);
  Tally t;

  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(max_seconds));
  for (int i = 0; i < max_requests && Clock::now() < deadline; ++i) {
    const Line& line =
        w.pool[static_cast<size_t>(streams[static_cast<size_t>(i % clients)].Next())];
    ServiceRequest req;
    if (!ParseSubmitLine(line.text, &req).ok()) {
      failures->push_back("unparsable line " + line.text);
      return;
    }
    ServiceResponse ref, rep;
    // Alternate which side runs first, so neither always finds the CPU
    // caches warm.
    for (int side = 0; side < 2; ++side) {
      const auto t0 = Clock::now();
      if ((side == 0) == (i % 2 == 0)) {
        ref = QueryService::RunOneShot(req, &ref_cache, &ref_store);
        t.reference_ms += Ms(t0, Clock::now());
      } else {
        rep = replica.Run(req, &t);
        t.replica_ms += Ms(t0, Clock::now());
      }
    }
    ++t.requests;
    const std::string want = FormatResponseLine(ref);
    const std::string got = FormatResponseLine(rep);
    if (want != got && failures->size() < 20) {
      failures->push_back("replica of \"" + line.text + "\" replied \"" + got +
                          "\", RunOneShot \"" + want + "\"");
    }
  }

  double attributed = 0.0;
  Metrics& m = *out;
  const double wall = std::max(t.replica_ms, 1e-9);
  for (int l = 0; l < kNumLayers; ++l) {
    attributed += t.self_ms[l];
    m[std::string(kLayerNames[l]) + ".self_share"] = t.self_ms[l] / wall;
  }
  const double unattributed = 1.0 - attributed / wall;
  if (std::abs(unattributed) > 0.05) {
    failures->push_back("layer self-times cover " +
                        std::to_string(100.0 * attributed / wall) +
                        "% of the replica's wall time (need 95-105%)");
  }
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
  m["trace.requests"] = static_cast<double>(t.requests);
  m["trace.unattributed_frac"] = unattributed;
  m["trace.overhead_frac"] = ratio(t.replica_ms - t.reference_ms, t.reference_ms);
  m["trace.request_ms"] = ratio(t.replica_ms, static_cast<double>(t.requests));
  m["context_cache.get_hit_us"] = Median(t.get_hit_us);
  m["context_cache.get_miss_ms"] = Median(t.get_miss_ms);
  m["ess.optimizer_calls_per_build"] =
      ratio(static_cast<double>(t.build_optimizer_calls),
            static_cast<double>(t.builds));
  double miss_ms = 0.0;
  for (double v : t.get_miss_ms) miss_ms += v;
  m["ess.build_us_per_call"] =
      ratio(miss_ms * 1e3, static_cast<double>(t.build_optimizer_calls));
  m["optimizer.recost_share"] = t.recost_ms / wall;
  m["optimizer.optimize_share"] = t.optimize_ms / wall;
  m["exec.full_share"] = t.exec_full_ms / wall;
  m["exec.spill_share"] = t.exec_spill_ms / wall;
  // Cost units the engine retires per wall second: if cost stood in for
  // time (the paper's Table 3 premise), this would be one constant.
  m["exec.mcost_per_s.resident"] = ratio(t.exec_cost[0] / 1e6, t.exec_ms[0] / 1e3);
  m["exec.mcost_per_s.mmap"] = ratio(t.exec_cost[1] / 1e6, t.exec_ms[1] / 1e3);
  double lo = 0.0, hi = 0.0;
  for (const auto& [query, ms_cost] : t.exec_by_query) {
    const double rate = ratio(ms_cost.second, ms_cost.first);
    if (rate <= 0.0) continue;
    lo = lo == 0.0 ? rate : std::min(lo, rate);
    hi = std::max(hi, rate);
  }
  m["exec.mcost_per_s.spread"] = ratio(hi, lo);
  m["core.discovery_ms"] = ratio(t.discovery_ms, static_cast<double>(t.discoveries));
  m["core.self_ms"] = ratio(t.run_self_ms, static_cast<double>(t.discoveries));
  m["core.construct_ms"] =
      ratio(t.construct_ms, static_cast<double>(t.discoveries));
  m["core.executions_per_req"] =
      ratio(static_cast<double>(t.steps), static_cast<double>(t.discoveries));
  m["core.spill_frac"] =
      ratio(static_cast<double>(t.spill_steps), static_cast<double>(t.steps));
  m["core.wasted_cost_frac"] = ratio(t.wasted_cost, t.discovery_cost);
  m["feedback.get_share"] = t.fb_get_ms / wall;
  m["feedback.observe_share"] = t.fb_observe_ms / wall;
}

}  // namespace e2e
