// QueryService — robust query processing as a long-lived, concurrently
// shared service.
//
// The one-shot CLI/bench drivers rebuild their whole context per
// invocation; QueryService instead keeps a ContextCache of built ESS
// surfaces and serves a *stream* of requests from many concurrent clients
// through a session API:
//
//   QueryService service;
//   int64_t session = service.OpenSession().value();
//   ServiceRequest req;
//   req.query_id = "2D_Q91";
//   req.mode = RobustnessMode::kSpillBound;
//   int64_t id = service.Submit(session, req).value();
//   ServiceResponse resp = service.Wait(session, id).value();
//   service.CloseSession(session);
//
// Execution model. Submitted requests run on a shared ThreadPool.
// Admission control is a bounded queue: at most Options::queue_limit
// requests may be admitted (queued + running) at once; Submit rejects
// beyond that with kResourceExhausted, immediately and without side
// effects — the client decides whether to back off and resubmit. A
// request whose deadline elapses while queued is answered with
// kDeadlineExceeded instead of being run.
//
// Determinism contract. Each request's payload (cost_used, discovery
// steps, NodeStats, RobustnessReport) is bit-identical to running the
// same ServiceRequest serially via RunOneShot on a fresh process — no
// matter how many clients run concurrently or in which order the pool
// schedules them. Three mechanisms make this hold:
//  * contexts are immutable after build and built only on a disarmed
//    thread (resolution happens before a request's chaos spec is armed),
//    so cache state cannot leak into results;
//  * each context's discovery algorithms are prepared once per mode,
//    lazily, at resolution time (so also disarmed), and shared by every
//    request on the context. Their memos are synchronized and hold pure
//    functions of (Ess, key) filled on paths without fault sites, so a
//    memo filled by an earlier request — chaos or clean — returns what a
//    cold instance would compute;
//  * fault arming is per thread (common/fault.h). A chaos request
//    (non-empty fault_spec) arms its worker thread's own injector, runs
//    inside a FaultStreamScope keyed by the request's fault_seed, and
//    disarms; the fan-outs it makes inherit that injector and no other
//    thread sees it. A clean request runs on a disarmed worker, and a pool
//    task never inherits the arming of the thread that submitted it. Chaos
//    and clean requests therefore run side by side, and a chaos request's
//    draw sequence depends only on (spec, seed), exactly as in a serial
//    run.
// Timing fields (queue_ms, run_ms) are measurements and obviously not
// part of the contract.
//
// RunOneShot runs on the calling thread and arms and disarms that thread
// for a chaos request, so call it from a disarmed thread.

#ifndef ROBUSTQP_SERVER_QUERY_SERVICE_H_
#define ROBUSTQP_SERVER_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/discovery.h"
#include "exec/executor.h"
#include "feedback/feedback_store.h"
#include "server/context_cache.h"
#include "server/request_options.h"

namespace robustqp {

class ThreadPool;

/// One unit of client work: which suite query to answer, with which
/// robustness machinery, under which knobs.
struct ServiceRequest {
  std::string query_id = "2D_Q91";
  RobustnessMode mode = RobustnessMode::kSpillBound;
  /// Hypothetical true epp selectivities (simulated-oracle runs). Empty
  /// means the ESS grid midpoint. Ignored when use_engine is set — the
  /// stored data decides the truth there.
  std::vector<double> qa;
  /// Run against the real execution engine (EngineOracle / Executor) over
  /// the stored catalog data instead of the cost-model-backed simulation.
  bool use_engine = false;
  /// Service-level cost cap: when >= 0 and the request's cost_used ends
  /// above it, the response's terminal status is kBudgetExhausted (the
  /// payload is still attached). < 0 means uncapped.
  double budget = -1.0;
  /// Wall-clock deadline in milliseconds from Submit. A request still
  /// queued past its deadline is answered kDeadlineExceeded without
  /// running. < 0 means none.
  double deadline_ms = -1.0;
  /// Everything else: threads, shards, storage, ESS build knobs, chaos spec.
  RequestOptions options;
};

/// Terminal answer for one request.
struct ServiceResponse {
  /// Terminal status; ExitCodeFor(status.code()) is the stable
  /// client-visible error number. OK covers completed discovery runs;
  /// budget/deadline/admission outcomes carry their dedicated codes.
  Status status;
  int64_t request_id = -1;
  std::string query_id;
  /// Display name of the algorithm that ran ("SpillBound"; "native" for
  /// the baseline mode).
  std::string algorithm;
  bool completed = false;
  /// Total cost units charged (discovery total_cost, or the engine run's
  /// cost_used in native mode).
  double cost_used = 0.0;
  /// Optimal cost at the (snapped) true location; 0 when unknown.
  double opt_cost = 0.0;
  /// cost_used / opt_cost (the paper's SubOpt); 0 when opt_cost is 0.
  double suboptimality = 0.0;
  /// The algorithm's MSO guarantee for this instance (0 for native).
  double guarantee = 0.0;
  /// Full discovery trace (empty in native mode).
  DiscoveryResult discovery;
  /// Engine-mode runs: the completing full execution's ledger — NodeStats
  /// per plan node, output rows, per-run robustness. Empty otherwise.
  ExecutionResult execution;
  /// Per-request fault/degradation accounting (all zeros without chaos).
  RobustnessReport robustness;
  /// True iff the context came out of the cache warm.
  bool cache_hit = false;
  /// Feedback loop (all false unless options.use_feedback):
  /// the store held a valid calibration for this query...
  bool feedback_hit = false;
  /// ...discovery opened with warm-start probes from it...
  bool warm_started = false;
  /// ...and one of those probes completed (no cold fallback needed).
  bool warm_completed = false;
  /// This run's observation tripped the drift monitor: the calibration
  /// was invalidated and the serving cache's contexts for this query
  /// evicted (rebuilt — with re-costed plans — on next use).
  bool feedback_drift = false;
  /// Wall-clock measurements; NOT part of the determinism contract.
  double queue_ms = 0.0;
  double run_ms = 0.0;
};

/// A long-lived, thread-safe query-serving object. All public methods may
/// be called from any thread.
class QueryService {
 public:
  struct Options {
    /// Width of the shared worker pool; 0 = ThreadPool::DefaultThreads().
    int num_threads = 0;
    /// Admission bound: maximum requests admitted (queued + running) at
    /// once. Submit beyond this returns kResourceExhausted.
    size_t queue_limit = 64;
    /// ContextCache capacity (entries); 0 = unbounded.
    size_t cache_capacity = 16;
    /// Test hook: runs on the worker at the start of every request, before
    /// any processing. Lets tests hold workers busy deterministically.
    std::function<void()> pre_run_hook;
  };

  struct ServiceStats {
    int64_t submitted = 0;  // admitted requests
    int64_t completed = 0;  // terminal responses produced (any status)
    int64_t rejected = 0;   // kResourceExhausted admissions
    int64_t deadline_expired = 0;
    /// Requests admitted but not yet terminal (queued + running) at the
    /// moment stats() was taken.
    int64_t queue_depth = 0;
    /// Sharded scatter-gather accounting, accumulated from the shard
    /// report of every terminal engine-mode response (zeros until some
    /// request ran with num_shards > 1).
    int64_t shard_chunks_scanned = 0;
    int64_t shard_chunks_pruned = 0;
    int64_t shard_straggler_retries = 0;
    int64_t shard_lost_chunks = 0;
    /// Feedback-loop accounting, accumulated from every terminal
    /// feedback-enabled response (zeros until some request ran with
    /// use_feedback).
    int64_t feedback_hits = 0;    // requests served with a valid calibration
    int64_t feedback_misses = 0;  // feedback requests without one
    int64_t warm_starts = 0;      // discoveries opened with warm probes
    int64_t warm_completions = 0; // ...that finished without cold fallback
    int64_t drift_events = 0;     // runs whose observation tripped drift
    int64_t feedback_degraded = 0;  // store_load faults absorbed
  };

  // (Two constructors rather than one defaulted argument: in-class default
  // arguments may not use Options{} before the enclosing class is complete.)
  QueryService() : QueryService(Options{}) {}
  explicit QueryService(Options options);
  /// Drains all in-flight requests, then shuts the pool down.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Opens a client session; the returned id scopes Submit/Wait/Close.
  Result<int64_t> OpenSession();

  /// Closes `session_id`: waits for its in-flight requests to reach a
  /// terminal state, then drops the session and its stored responses
  /// (those not yet retired by Wait).
  /// Fails with kNotFound for unknown ids.
  Status CloseSession(int64_t session_id);

  /// Admits `request` into the bounded queue. Returns the request id to
  /// Poll/Wait on, kResourceExhausted when the queue is full, or
  /// kNotFound for an unknown session.
  Result<int64_t> Submit(int64_t session_id, ServiceRequest request);

  /// Non-blocking probe: empty optional while the request is still
  /// running, a copy of the response once terminal. kNotFound for unknown
  /// ids, a session mismatch, or a request already retired by Wait.
  Result<std::optional<ServiceResponse>> Poll(int64_t session_id,
                                              int64_t request_id);

  /// Blocks until the request is terminal and returns its response.
  /// kNotFound for unknown ids or a session mismatch. Wait retires the
  /// request: the response is handed over and the service forgets the id,
  /// so a second Wait (or a later Poll) on it returns kNotFound. This
  /// keeps a long-lived session's memory flat however many requests it
  /// serves.
  Result<ServiceResponse> Wait(int64_t session_id, int64_t request_id);

  ContextCache::Stats cache_stats() const { return cache_.stats(); }
  feedback::FeedbackStore::Stats feedback_stats() const {
    return feedback_store_.stats();
  }
  ServiceStats stats() const;

  /// The serial one-shot reference: runs `request` to completion on the
  /// calling thread against `cache` (Default() when null) with exactly the
  /// semantics of the concurrent path — the payload a Submit/Wait of the
  /// same request must match bit-for-bit. Admission, deadline, and timing
  /// fields do not apply. `store` is the feedback store consulted when the
  /// request sets use_feedback (null = no store: behaves exactly like
  /// use_feedback off, matching a service whose store is empty). Note the
  /// feedback loop is deliberately stateful — a response depends on the
  /// store's accumulated history, so bit-equality with a concurrent run
  /// holds per store state, i.e. for the same sequence of prior
  /// feedback-enabled completions on the key.
  static ServiceResponse RunOneShot(const ServiceRequest& request,
                                    ContextCache* cache = nullptr,
                                    feedback::FeedbackStore* store = nullptr);

 private:
  struct RequestState {
    int64_t id = -1;
    int64_t session = -1;
    ServiceRequest request;
    std::chrono::steady_clock::time_point submit_time;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    bool retired = false;  // a Wait took the response
    ServiceResponse response;
  };

  /// Worker-side: runs one admitted request to a terminal response.
  void RunRequest(const std::shared_ptr<RequestState>& state);

  /// The request body shared by the concurrent path and RunOneShot:
  /// resolves the context, arms the calling thread for a chaos request,
  /// runs, fills `resp` (everything except ids and timing), and — when the
  /// run trips the drift monitor — evicts the query's cached contexts.
  static void Execute(const ServiceRequest& request, ContextCache* cache,
                      feedback::FeedbackStore* store, ServiceResponse* resp);

  /// Runs against a resolved context with its prepared algorithm (null
  /// for kNative); the calling thread's arming is already arranged by
  /// Execute. `store` may be null (feedback off).
  static Status RunResolved(const ServiceRequest& request,
                            const ContextCache::Entry& ctx,
                            const DiscoveryAlgorithm* algo,
                            feedback::FeedbackStore* store,
                            ServiceResponse* resp);

  const Options options_;
  ContextCache cache_;
  /// The serving instance's selectivity memory (see feedback_store.h):
  /// written by every completed feedback-enabled request, read to
  /// calibrate native estimates and warm-start discovery.
  feedback::FeedbackStore feedback_store_;
  std::unique_ptr<ThreadPool> pool_;

  mutable std::mutex mu_;
  int64_t next_session_id_ = 1;
  int64_t next_request_id_ = 1;
  size_t admitted_ = 0;  // queued + running
  std::map<int64_t, std::set<int64_t>> sessions_;  // session -> request ids
  std::map<int64_t, std::shared_ptr<RequestState>> requests_;
  ServiceStats stats_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_SERVER_QUERY_SERVICE_H_
