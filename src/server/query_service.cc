#include "server/query_service.h"

#include <algorithm>

#include "common/fault.h"
#include "common/thread_pool.h"
#include "core/oracle.h"
#include "feedback/warm_start.h"

namespace robustqp {

namespace {

double MsSince(std::chrono::steady_clock::time_point t0,
               std::chrono::steady_clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

Status RequestNotFound(int64_t session_id, int64_t request_id) {
  return Status::NotFound("unknown request " + std::to_string(request_id) +
                          " in session " + std::to_string(session_id));
}

}  // namespace

QueryService::QueryService(Options options)
    : options_(options),
      cache_(ContextCache::Options{options.cache_capacity}),
      pool_(std::make_unique<ThreadPool>(options.num_threads)) {}

QueryService::~QueryService() {
  // Drain: every admitted task must reach its terminal state before the
  // request map (which tasks write into) is destroyed.
  (void)pool_->Wait();
  pool_.reset();
}

Result<int64_t> QueryService::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = next_session_id_++;
  sessions_[id] = {};
  return id;
}

Status QueryService::CloseSession(int64_t session_id) {
  std::vector<std::shared_ptr<RequestState>> in_flight;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown session " +
                              std::to_string(session_id));
    }
    for (int64_t rid : it->second) {
      auto rit = requests_.find(rid);
      if (rit != requests_.end()) in_flight.push_back(rit->second);
    }
  }
  // Wait for the session's requests outside the service lock, then drop
  // them and the session in one sweep.
  for (const auto& state : in_flight) {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done; });
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::NotFound("session closed concurrently");
  }
  for (int64_t rid : it->second) requests_.erase(rid);
  sessions_.erase(it);
  return Status::OK();
}

Result<int64_t> QueryService::Submit(int64_t session_id,
                                     ServiceRequest request) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) {
      return Status::NotFound("unknown session " +
                              std::to_string(session_id));
    }
    if (admitted_ >= options_.queue_limit) {
      ++stats_.rejected;
      return Status::ResourceExhausted(
          "admission queue full (" + std::to_string(options_.queue_limit) +
          " in flight); resubmit after load drains");
    }
    ++admitted_;
    ++stats_.submitted;
    state = std::make_shared<RequestState>();
    state->id = next_request_id_++;
    state->session = session_id;
    state->request = std::move(request);
    state->submit_time = std::chrono::steady_clock::now();
    it->second.insert(state->id);
    requests_[state->id] = state;
  }
  pool_->Submit([this, state] { RunRequest(state); });
  return state->id;
}

void QueryService::RunRequest(const std::shared_ptr<RequestState>& state) {
  if (options_.pre_run_hook) options_.pre_run_hook();
  const auto start = std::chrono::steady_clock::now();

  ServiceResponse resp;
  resp.request_id = state->id;
  resp.query_id = state->request.query_id;
  resp.queue_ms = MsSince(state->submit_time, start);

  const double deadline = state->request.deadline_ms;
  if (deadline >= 0.0 && resp.queue_ms > deadline) {
    resp.status = Status::DeadlineExceeded(
        "deadline (" + std::to_string(deadline) + " ms) elapsed after " +
        std::to_string(resp.queue_ms) + " ms in the queue");
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.deadline_expired;
  } else {
    Execute(state->request, &cache_, &feedback_store_, &resp);
    resp.request_id = state->id;
  }
  resp.run_ms = MsSince(start, std::chrono::steady_clock::now());

  // Service counters first, then publish: a client that has seen Wait()
  // return must also see the counters reflect its request.
  {
    std::lock_guard<std::mutex> lock(mu_);
    --admitted_;
    ++stats_.completed;
    const shard::ShardReport& srep = resp.execution.shard;
    stats_.shard_chunks_scanned += srep.chunks_scanned;
    stats_.shard_chunks_pruned += srep.chunks_pruned;
    stats_.shard_straggler_retries += srep.straggler_retries;
    stats_.shard_lost_chunks += srep.lost_chunks;
    if (state->request.options.use_feedback) {
      resp.feedback_hit ? ++stats_.feedback_hits : ++stats_.feedback_misses;
      stats_.warm_starts += resp.warm_started ? 1 : 0;
      stats_.warm_completions += resp.warm_completed ? 1 : 0;
      stats_.drift_events += resp.feedback_drift ? 1 : 0;
      stats_.feedback_degraded += resp.robustness.feedback_degradations;
    }
  }
  {
    std::lock_guard<std::mutex> lock(state->mu);
    state->response = std::move(resp);
    state->done = true;
  }
  state->cv.notify_all();
}

Result<std::optional<ServiceResponse>> QueryService::Poll(
    int64_t session_id, int64_t request_id) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second->session != session_id) {
      return RequestNotFound(session_id, request_id);
    }
    state = it->second;
  }
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->retired) return RequestNotFound(session_id, request_id);
  if (!state->done) return std::optional<ServiceResponse>{};
  return std::optional<ServiceResponse>{state->response};
}

Result<ServiceResponse> QueryService::Wait(int64_t session_id,
                                           int64_t request_id) {
  std::shared_ptr<RequestState> state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = requests_.find(request_id);
    if (it == requests_.end() || it->second->session != session_id) {
      return RequestNotFound(session_id, request_id);
    }
    state = it->second;
  }
  ServiceResponse response;
  {
    std::unique_lock<std::mutex> lock(state->mu);
    state->cv.wait(lock, [&] { return state->done; });
    // A concurrent Wait on the same id may have retired it meanwhile.
    if (state->retired) return RequestNotFound(session_id, request_id);
    state->retired = true;
    response = std::move(state->response);
  }
  // Retire: the response is handed over, so the service keeps nothing of
  // the request — a long-lived session's memory stays flat.
  std::lock_guard<std::mutex> lock(mu_);
  requests_.erase(request_id);
  auto sit = sessions_.find(session_id);
  if (sit != sessions_.end()) sit->second.erase(request_id);
  return response;
}

QueryService::ServiceStats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats out = stats_;
  out.queue_depth = static_cast<int64_t>(admitted_);
  return out;
}

ServiceResponse QueryService::RunOneShot(const ServiceRequest& request,
                                         ContextCache* cache,
                                         feedback::FeedbackStore* store) {
  ServiceResponse resp;
  resp.query_id = request.query_id;
  Execute(request, cache != nullptr ? cache : &ContextCache::Default(), store,
          &resp);
  return resp;
}

void QueryService::Execute(const ServiceRequest& request, ContextCache* cache,
                           feedback::FeedbackStore* store,
                           ServiceResponse* resp) {
  // Resolve the context and its prepared algorithm while this thread is
  // disarmed, so cache builds and algorithm preparation are always clean
  // and independent of request interleaving.
  Result<std::shared_ptr<const ContextCache::Entry>> ctx_or =
      cache->Get(request.query_id, request.options.ToEssConfig(),
                 request.options.encoding, request.options.use_compression,
                 request.options.storage, &resp->cache_hit);
  if (!ctx_or.ok()) {
    resp->status = ctx_or.status();
    return;
  }
  const std::shared_ptr<const ContextCache::Entry> ctx = ctx_or.MoveValue();
  const DiscoveryAlgorithm* algo = ctx->Algorithm(request.mode);

  // Run. A chaos request arms this thread's own injector for its run and
  // disarms it after; other threads, running other requests, never see it.
  if (request.options.fault_spec.empty()) {
    resp->status = RunResolved(request, *ctx, algo, store, resp);
  } else {
    const Status st = FaultInjector::Configure(request.options.fault_spec,
                                               request.options.fault_seed);
    if (!st.ok()) {
      resp->status = st;
      return;
    }
    {
      // Stream keyed by the request's seed: the draw sequence depends only
      // on (spec, seed), never on scheduling or request order.
      FaultStreamScope scope(request.options.fault_seed);
      resp->status = RunResolved(request, *ctx, algo, store, resp);
    }
    FaultInjector::Disarm();
  }

  // Drift invalidation: the run's observation left the calibration's
  // confidence regime, so every cached context (and thereby cached plan)
  // for this query is stale — drop them; the next request rebuilds with
  // freshly costed plans.
  if (resp->feedback_drift) cache->InvalidateQuery(request.query_id);
}

Status QueryService::RunResolved(const ServiceRequest& request,
                                 const ContextCache::Entry& ctx,
                                 const DiscoveryAlgorithm* algo,
                                 feedback::FeedbackStore* store,
                                 ServiceResponse* resp) {
  const Ess& ess = *ctx.ess;
  const int dims = ess.dims();

  // Resolve the (snapped) true location. Engine runs take their truth
  // from the data; the simulated midpoint default keeps parameterless
  // requests deterministic.
  GridLoc qa(static_cast<size_t>(dims), ess.points() / 2);
  if (!request.qa.empty()) {
    if (static_cast<int>(request.qa.size()) != dims) {
      return Status::InvalidArgument(
          "qa needs exactly " + std::to_string(dims) + " selectivities, got " +
          std::to_string(request.qa.size()));
    }
    for (int d = 0; d < dims; ++d) {
      const double s = request.qa[static_cast<size_t>(d)];
      if (!(s > 0.0) || s > 1.0) {
        return Status::OutOfRange("qa selectivity out of (0, 1]: " +
                                  std::to_string(s));
      }
      qa[static_cast<size_t>(d)] = ess.axis().NearestIndex(s);
    }
  }
  const EssPoint qa_sel = ess.SelAt(qa);
  resp->opt_cost = ess.OptimalCost(qa);

  // Feedback read side: fetch the calibration (a no-op Calibration when
  // feedback is off or no store is attached — those paths are
  // bit-identical to an empty store by construction). A store_load fault
  // degrades to the same cold path, charged into fb_report.
  const bool use_fb = request.options.use_feedback && store != nullptr;
  feedback::FeedbackStore::Calibration cal;
  RobustnessReport fb_report;
  std::string fb_key;
  if (use_fb) {
    fb_key = feedback::FeedbackStore::Key(
        request.query_id, dims, StorageBackendName(request.options.storage));
    cal = store->Get(fb_key, &fb_report);
    resp->feedback_hit = cal.valid;
  }

  std::unique_ptr<Executor> executor;
  if (request.use_engine) {
    executor = std::make_unique<Executor>(ctx.catalog.get(),
                                          ess.config().cost_model,
                                          request.options.ToExecutorOptions());
  }

  // What this run observed, for the feedback write side: the simulated
  // oracle's q_a is exact; engine runs report per-epp observed counts
  // from the committed attempt (empty until a full execution completes).
  std::vector<double> observed;
  int observed_contour = -1;

  if (request.mode == RobustnessMode::kNative) {
    resp->algorithm = "native";
    EssPoint qe = ess.optimizer().estimator().NativeEstimatePoint();
    if (use_fb && cal.valid &&
        static_cast<int>(cal.sel.size()) == dims) {
      // Calibrated seed: optimize at the observed geometric mean instead
      // of the statistics estimate (the stale_stats closing move).
      for (int d = 0; d < dims; ++d) {
        qe[static_cast<size_t>(d)] = std::min(
            1.0, std::max(cal.sel[static_cast<size_t>(d)],
                          ess.axis().value(0)));
      }
    }
    const std::unique_ptr<Plan> plan = ess.optimizer().Optimize(qe);
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
    } else {
      resp->completed = true;
      resp->cost_used = ess.optimizer().PlanCost(*plan, qa_sel);
      observed = qa_sel;
    }
  } else {
    resp->algorithm = algo->name();
    resp->guarantee = algo->MsoGuarantee();
    std::unique_ptr<ExecutionOracle> oracle;
    EngineOracle* engine_oracle = nullptr;
    if (request.use_engine) {
      auto eo = std::make_unique<EngineOracle>(executor.get());
      engine_oracle = eo.get();
      oracle = std::move(eo);
    } else {
      auto so = std::make_unique<SimulatedOracle>(&ess, qa);
      so->set_num_shards(request.options.num_shards);
      oracle = std::move(so);
    }
    // Warm start: shrink the search to the calibration's confidence
    // region. MakeWarmStartHint rejects invalid/degraded calibrations,
    // and Run with a null/invalid hint is the cold path verbatim — the
    // MSO guarantee is never weakened, only the constant improved.
    WarmStartHint hint;
    if (use_fb) hint = feedback::MakeWarmStartHint(ess, cal);
    resp->discovery =
        algo->Run(oracle.get(), hint.valid ? &hint : nullptr);
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
      observed = oracle->ObservedSelectivities();
      observed_contour = resp->discovery.final_contour;
    }
  }

  // Feedback accounting merges after the run's own robustness snapshot so
  // a store_load degradation is never overwritten.
  if (use_fb) {
    resp->robustness.Merge(fb_report);
    if (resp->completed && !observed.empty()) {
      const feedback::FeedbackStore::DriftSignal drift = store->Observe(
          fb_key, observed, resp->cost_used, observed_contour);
      resp->feedback_drift = drift.drifted;
    }
  }

  resp->suboptimality =
      resp->opt_cost > 0.0 ? resp->cost_used / resp->opt_cost : 0.0;
  if (!resp->completed) {
    return Status::BudgetExhausted("execution did not complete within " +
                                   std::to_string(request.budget) +
                                   " cost units");
  }
  if (request.budget >= 0.0 && resp->cost_used > request.budget) {
    return Status::BudgetExhausted(
        "cost_used " + std::to_string(resp->cost_used) +
        " exceeded the request budget " + std::to_string(request.budget));
  }
  return Status::OK();
}

}  // namespace robustqp
