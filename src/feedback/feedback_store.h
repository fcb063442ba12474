// FeedbackStore — the selectivity memory that closes the robustness loop.
//
// Every execution already *measures* true selectivities (the engine's
// observed per-node counts, the simulated oracle's q_a); this store is
// where those measurements accumulate so that repeated queries stop
// paying the full discovery cost. It is keyed like the ContextCache — one
// entry per (query shape, ESS dimensionality) — and holds, per entry, a
// bounded ring of recent observations for each ESS dimension in log10
// space (selectivities are log-uniform by construction of the grid).
//
// Three consumers:
//  * calibration — Get() condenses the rings into a per-dim point
//    estimate plus a confidence region; the service layer rewrites the
//    optimizer's native seed estimate toward it (kNative mode) and the
//    warm-start builder shrinks the ESS search box to it;
//  * warm-started discovery — feedback/warm_start.h turns a calibration
//    into a WarmStartHint (probe plan + cold-schedule budgets) that
//    DiscoveryAlgorithm::Run executes before falling back to the full
//    doubling sequence, so the MSO guarantee is never weakened;
//  * drift detection — Observe() runs a CUSUM monitor per key over the
//    standardized residual of each new observation against the current
//    calibration. When the statistic crosses its threshold the entry's
//    history is invalidated (the new regime's observation seeds a fresh
//    ring) and the caller is told to evict dependent cached state
//    (ContextCache entries, cached plans).
//
// Fault surface: Get() evaluates the feedback.store_load site. An armed
// fault there models a corrupt or unavailable store — the lookup degrades
// to a cold start (invalid calibration), the degradation is counted in
// the store's stats and charged to the caller's RobustnessReport, and
// correctness is untouched because an invalid calibration produces
// exactly the disabled-store execution path.
//
// Thread safety: all methods are safe from any thread (one internal
// mutex; the store is bounded, so no operation blocks on I/O or builds).

#ifndef ROBUSTQP_FEEDBACK_FEEDBACK_STORE_H_
#define ROBUSTQP_FEEDBACK_FEEDBACK_STORE_H_

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/fault.h"

namespace robustqp {
namespace feedback {

class FeedbackStore {
 public:
  struct Options {
    /// Maximum keys resident; least-recently-used beyond this are
    /// evicted. 0 means unbounded.
    size_t capacity = 64;
    /// Observations retained per (key, dimension) ring.
    int ring_capacity = 32;
    /// Observations required per dimension before a calibration is
    /// considered valid.
    int min_observations = 2;
    /// Half-width of the confidence region in (floored) standard
    /// deviations of the log10 observations.
    double confidence_z = 2.0;
    /// Floor on the per-dim log10 standard deviation, so a run of
    /// identical observations still yields a non-degenerate region and
    /// the drift residual stays finite.
    double sigma_floor = 0.05;
    /// CUSUM drift threshold: the one-sided statistic
    ///   S <- max(0, S + |residual| - drift_slack)
    /// crossing this value invalidates the calibration. With the default
    /// slack, one 5-sigma observation trips it immediately while
    /// sub-slack residuals decay S back toward zero.
    double drift_threshold = 3.0;
    /// Residual slack absorbed per observation before CUSUM accumulates.
    double drift_slack = 1.0;
  };

  /// Condensed view of one key's observation history.
  struct Calibration {
    /// False until min_observations have accumulated on every dimension
    /// (and immediately after a drift invalidation). Invalid calibrations
    /// must produce exactly the store-disabled execution path.
    bool valid = false;
    /// True when feedback.store_load degraded this lookup; valid is false.
    bool degraded = false;
    /// Per-dim geometric mean of the observed selectivities.
    std::vector<double> sel;
    /// Confidence region corners: lo <= sel <= hi, clamped to (0, 1].
    std::vector<double> lo;
    std::vector<double> hi;
    /// Cost and contour of the most recent confirmed (completed) run;
    /// -1 until one is recorded.
    double confirmed_cost = -1.0;
    int confirmed_contour = -1;
    /// Bumped on every drift invalidation of this key.
    int64_t version = 0;
  };

  /// What Observe() concluded about the newest observation.
  struct DriftSignal {
    /// True iff the CUSUM monitor fired: the calibration was invalidated
    /// and dependent cached state (ContextCache entries, cached plans)
    /// should be evicted / re-costed by the caller.
    bool drifted = false;
    /// Dimension with the largest residual when drifted.
    int dim = -1;
    /// The CUSUM statistic that crossed the threshold.
    double score = 0.0;
  };

  /// Cumulative counters since construction.
  struct Stats {
    int64_t observations = 0;  // Observe() calls that recorded data
    int64_t hits = 0;          // Get() with a valid calibration
    int64_t misses = 0;        // Get() without one (incl. degraded)
    int64_t drift_events = 0;  // CUSUM invalidations
    int64_t evictions = 0;     // LRU evictions
    int64_t load_degradations = 0;  // feedback.store_load faults absorbed
    size_t size = 0;           // keys currently resident
  };

  FeedbackStore() : FeedbackStore(Options{}) {}
  explicit FeedbackStore(Options options);

  FeedbackStore(const FeedbackStore&) = delete;
  FeedbackStore& operator=(const FeedbackStore&) = delete;

  /// The store key for a suite query with a D-dimensional ESS. Encodings,
  /// engines and ESS grids deliberately do NOT key the store: the
  /// data's true selectivities are identical across all of them, so their
  /// observations pool. The *storage backend* ("resident" / "mmap") DOES
  /// key it: a mapped catalog can be an externally built store (e.g.
  /// robustqp_server --scale-dir) holding different data under the same
  /// query ids, so observations from distinct backends must never pool.
  static std::string Key(const std::string& query_id, int dims,
                         const std::string& storage = "resident");

  /// Records one completed run's observed per-dim selectivities (entries
  /// <= 0 are unknown and skipped). `total_cost` / `final_contour`
  /// describe the completed run and become the calibration's confirmed
  /// fields. Runs the CUSUM drift monitor first: when it fires, the key's
  /// history is dropped, `observed` seeds the new regime, and the
  /// returned signal tells the caller to invalidate dependent caches.
  DriftSignal Observe(const std::string& key,
                      const std::vector<double>& observed, double total_cost,
                      int final_contour);

  /// Current calibration for `key` (hit/miss counted). Evaluates the
  /// feedback.store_load fault site when the injector is armed: a fault
  /// degrades the lookup to a cold start — Calibration{valid=false,
  /// degraded=true} — counted in stats and, when `report` is non-null,
  /// charged as a feedback degradation.
  Calibration Get(const std::string& key, RobustnessReport* report = nullptr);

  /// Drops one key's history (calibration becomes invalid until
  /// min_observations accumulate again).
  void Invalidate(const std::string& key);

  /// Drops everything (counters are kept).
  void Clear();

  Stats stats() const;
  const Options& options() const { return options_; }

 private:
  /// Per-dimension observation ring in log10 space.
  struct DimRing {
    std::vector<double> log_obs;  // ring storage, size <= ring_capacity
    int next = 0;                 // overwrite position once full
    int64_t total = 0;            // observations ever recorded

    int count() const { return static_cast<int>(log_obs.size()); }
    void Add(int capacity, double v);
    void Reset();
    double Mean() const;
    /// Sample standard deviation (0 for < 2 observations).
    double Sigma() const;
  };

  struct Entry {
    std::vector<DimRing> rings;
    double cusum = 0.0;
    double confirmed_cost = -1.0;
    int confirmed_contour = -1;
    int64_t version = 0;
    std::list<std::string>::iterator lru_it;
  };

  /// Caller holds mu_. Returns the entry, creating + LRU-bumping it.
  Entry* Touch(const std::string& key, int dims);
  /// Caller holds mu_. Fills `out` from `e` (valid iff every dim has
  /// enough observations).
  void Condense(const Entry& e, Calibration* out) const;

  const Options options_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  // front = most recently used
  std::map<std::string, Entry> entries_;
  Stats stats_;
};

}  // namespace feedback
}  // namespace robustqp

#endif  // ROBUSTQP_FEEDBACK_FEEDBACK_STORE_H_
