#include "feedback/feedback_store.h"

#include <algorithm>
#include <cmath>

namespace robustqp {
namespace feedback {

namespace {
/// Selectivities live in (0, 1]; log10 values below this are treated as
/// the floor so a zero-ish observation cannot produce -inf.
constexpr double kMinLogSel = -12.0;

double Log10Clamped(double sel) {
  const double l = std::log10(sel);
  return std::max(l, kMinLogSel);
}
}  // namespace

void FeedbackStore::DimRing::Add(int capacity, double v) {
  if (count() < capacity) {
    log_obs.push_back(v);
  } else {
    log_obs[static_cast<size_t>(next)] = v;
    next = (next + 1) % capacity;
  }
  ++total;
}

void FeedbackStore::DimRing::Reset() {
  log_obs.clear();
  next = 0;
}

double FeedbackStore::DimRing::Mean() const {
  double s = 0.0;
  for (double v : log_obs) s += v;
  return count() > 0 ? s / static_cast<double>(count()) : 0.0;
}

double FeedbackStore::DimRing::Sigma() const {
  const int n = count();
  if (n < 2) return 0.0;
  const double m = Mean();
  double ss = 0.0;
  for (double v : log_obs) ss += (v - m) * (v - m);
  return std::sqrt(ss / static_cast<double>(n - 1));
}

FeedbackStore::FeedbackStore(Options options) : options_(options) {}

std::string FeedbackStore::Key(const std::string& query_id, int dims,
                               const std::string& storage) {
  return query_id + "|d" + std::to_string(dims) + "|" + storage;
}

FeedbackStore::Entry* FeedbackStore::Touch(const std::string& key, int dims) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    lru_.push_front(key);
    Entry e;
    e.rings.resize(static_cast<size_t>(dims));
    e.lru_it = lru_.begin();
    it = entries_.emplace(key, std::move(e)).first;
    if (options_.capacity > 0 && entries_.size() > options_.capacity) {
      const std::string victim = lru_.back();
      lru_.pop_back();
      entries_.erase(victim);
      ++stats_.evictions;
      // The victim cannot be the key just inserted: capacity >= 1 and the
      // new key sits at the front.
      it = entries_.find(key);
    }
  } else {
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
  }
  return &it->second;
}

void FeedbackStore::Condense(const Entry& e, Calibration* out) const {
  out->valid = !e.rings.empty();
  out->sel.clear();
  out->lo.clear();
  out->hi.clear();
  for (const DimRing& r : e.rings) {
    if (r.count() < options_.min_observations) {
      out->valid = false;
      break;
    }
    const double mean = r.Mean();
    const double sigma = std::max(r.Sigma(), options_.sigma_floor);
    const double half = options_.confidence_z * sigma;
    out->sel.push_back(std::min(std::pow(10.0, mean), 1.0));
    out->lo.push_back(std::pow(10.0, std::max(mean - half, kMinLogSel)));
    out->hi.push_back(std::min(std::pow(10.0, mean + half), 1.0));
  }
  if (!out->valid) {
    out->sel.clear();
    out->lo.clear();
    out->hi.clear();
  }
  out->confirmed_cost = e.confirmed_cost;
  out->confirmed_contour = e.confirmed_contour;
  out->version = e.version;
}

FeedbackStore::DriftSignal FeedbackStore::Observe(
    const std::string& key, const std::vector<double>& observed,
    double total_cost, int final_contour) {
  DriftSignal signal;
  if (observed.empty()) return signal;
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Touch(key, static_cast<int>(observed.size()));
  if (e->rings.size() != observed.size()) {
    // Dimensionality changed under the same key (shouldn't happen with
    // Key() discipline); start over rather than mix regimes.
    e->rings.assign(observed.size(), DimRing{});
    e->cusum = 0.0;
  }

  // Drift check BEFORE admitting the observation: residuals are measured
  // against the calibration the previous regime established.
  Calibration cal;
  Condense(*e, &cal);
  if (cal.valid) {
    double worst = 0.0;
    int worst_dim = -1;
    for (size_t d = 0; d < observed.size(); ++d) {
      if (!(observed[d] > 0.0)) continue;
      const DimRing& r = e->rings[d];
      const double sigma = std::max(r.Sigma(), options_.sigma_floor);
      const double resid = std::abs(Log10Clamped(observed[d]) - r.Mean()) / sigma;
      if (resid > worst) {
        worst = resid;
        worst_dim = static_cast<int>(d);
      }
    }
    e->cusum = std::max(0.0, e->cusum + worst - options_.drift_slack);
    if (e->cusum >= options_.drift_threshold) {
      // New regime: drop the history, seed it with this observation, and
      // tell the caller to evict dependent cached state.
      for (DimRing& r : e->rings) r.Reset();
      signal.drifted = true;
      signal.dim = worst_dim;
      signal.score = e->cusum;
      e->cusum = 0.0;
      e->confirmed_cost = -1.0;
      e->confirmed_contour = -1;
      ++e->version;
      ++stats_.drift_events;
    }
  }

  bool recorded = false;
  for (size_t d = 0; d < observed.size(); ++d) {
    if (!(observed[d] > 0.0)) continue;  // unknown dims don't pollute rings
    e->rings[d].Add(options_.ring_capacity, Log10Clamped(observed[d]));
    recorded = true;
  }
  if (recorded) {
    ++stats_.observations;
    e->confirmed_cost = total_cost;
    e->confirmed_contour = final_contour;
  }
  return signal;
}

FeedbackStore::Calibration FeedbackStore::Get(const std::string& key,
                                              RobustnessReport* report) {
  Calibration out;
  // Fault surface: a corrupt/unavailable store degrades the lookup to a
  // cold start. Evaluated before touching state so the draw sequence is
  // position-independent.
  if (FaultInjector::Armed()) {
    const FaultAction act =
        FaultInjector::Current().Evaluate(fault_site::kFeedbackStoreLoad);
    if (act) {
      out.degraded = true;
      if (report != nullptr) ++report->feedback_degradations;
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.load_degradations;
      ++stats_.misses;
      return out;
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.erase(it->second.lru_it);
    lru_.push_front(key);
    it->second.lru_it = lru_.begin();
    Condense(it->second, &out);
  }
  if (out.valid) {
    ++stats_.hits;
  } else {
    ++stats_.misses;
  }
  return out;
}

void FeedbackStore::Invalidate(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  entries_.erase(it);
}

void FeedbackStore::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  entries_.clear();
}

FeedbackStore::Stats FeedbackStore::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats out = stats_;
  out.size = entries_.size();
  return out;
}

}  // namespace feedback
}  // namespace robustqp
