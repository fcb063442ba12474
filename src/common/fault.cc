#include "common/fault.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace robustqp {

namespace {

constexpr const char* kSiteNames[fault_site::kNumSites] = {
    "exec.scan.read",      // kExecScanRead
    "exec.hashjoin.build", // kExecHashJoinBuild
    "exec.nljoin.pair",    // kExecNlJoinPair
    "exec.sort.merge",     // kExecSortMerge
    "storage.index.probe", // kStorageIndexProbe
    "exec.batch.pipeline", // kExecBatchPipeline
    "exec.morsel.scan",    // kExecMorselScan
    "exec.spill.run",      // kExecSpillRun
    "optimizer.dp",        // kOptimizerDp
    "",                    // kRetiredSite
    "io.ess_load",         // kIoEssLoad
    "oracle.cost_model",   // kOracleCostModel
    "shard.straggler",     // kShardStraggler
    "shard.lost_chunk",    // kShardLostChunk
    "feedback.store_load", // kFeedbackStoreLoad
    "storage.page_fault",  // kStoragePageFault
};

uint64_t SplitMix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double ToUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Thread-local draw stream: a stream id plus one counter per site.
struct StreamState {
  uint64_t stream = 0;
  uint64_t counters[fault_site::kNumSites] = {};
};

thread_local StreamState t_stream;

bool MatchSite(const std::string& pattern, const char* name) {
  if (*name == '\0') return false;  // kRetiredSite
  if (!pattern.empty() && pattern.back() == '*') {
    return std::strncmp(name, pattern.c_str(), pattern.size() - 1) == 0;
  }
  return pattern == name;
}

}  // namespace

const char* FaultSiteName(int site) {
  RQP_CHECK(site >= 0 && site < fault_site::kNumSites);
  return kSiteNames[site];
}

FaultInjector& FaultInjector::Own() {
  static thread_local FaultInjector injector;
  return injector;
}

FaultInjector& FaultInjector::Current() {
  return armed_ != nullptr ? *armed_ : Own();
}

Status FaultInjector::ValidateSpec(const std::string& spec) {
  Clause resolved[fault_site::kNumSites];
  return ParseSpec(spec, resolved);
}

Status FaultInjector::Configure(const std::string& spec, uint64_t seed) {
  if (spec.empty()) {
    Disarm();
    return Status::OK();
  }
  Clause resolved[fault_site::kNumSites];
  RQP_RETURN_NOT_OK(ParseSpec(spec, resolved));

  FaultInjector& inj = Own();
  for (int s = 0; s < fault_site::kNumSites; ++s) {
    inj.clauses_[s] = resolved[s];
    inj.counters_[s].evaluations.store(0, std::memory_order_relaxed);
    inj.counters_[s].transients.store(0, std::memory_order_relaxed);
    inj.counters_[s].permanents.store(0, std::memory_order_relaxed);
    inj.counters_[s].spikes.store(0, std::memory_order_relaxed);
    inj.counters_[s].corruptions.store(0, std::memory_order_relaxed);
  }
  inj.seed_ = seed;
  inj.spec_ = spec;
  armed_ = &inj;
  return Status::OK();
}

void FaultInjector::Disarm() { armed_ = nullptr; }

Status FaultInjector::ParseSpec(const std::string& spec,
                                Clause (&resolved)[fault_site::kNumSites]) {
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find(';', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string clause_str = spec.substr(pos, end - pos);
    pos = end + 1;
    if (clause_str.empty()) continue;

    const size_t colon = clause_str.find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("fault clause '" + clause_str +
                                     "' is not 'pattern:params'");
    }
    const std::string pattern = clause_str.substr(0, colon);
    // A non-wildcard pattern must name a registered site (catch typos).
    if (pattern.find('*') == std::string::npos) {
      bool known = false;
      for (int s = 0; s < fault_site::kNumSites; ++s) {
        if (pattern == kSiteNames[s]) known = true;
      }
      if (!known) {
        return Status::InvalidArgument("unknown fault site '" + pattern + "'");
      }
    }

    Clause clause;
    clause.active = true;
    size_t p = colon + 1;
    while (p < clause_str.size()) {
      size_t pend = clause_str.find(',', p);
      if (pend == std::string::npos) pend = clause_str.size();
      const std::string param = clause_str.substr(p, pend - p);
      p = pend + 1;
      if (param.empty()) continue;
      const size_t eq = param.find('=');
      if (eq == std::string::npos) {
        return Status::InvalidArgument("fault param '" + param +
                                       "' is not 'key=value'");
      }
      const std::string key = param.substr(0, eq);
      const std::string value = param.substr(eq + 1);
      try {
        if (key == "p") {
          clause.p = std::stod(value);
          if (!(clause.p >= 0.0 && clause.p <= 1.0)) {
            return Status::InvalidArgument("fault probability out of [0,1]: " +
                                           value);
          }
        } else if (key == "after") {
          clause.after = std::stoll(value);
          if (clause.after < 0) {
            return Status::InvalidArgument("fault 'after' must be >= 0");
          }
        } else if (key == "kind") {
          if (value == "transient") {
            clause.kind = FaultKind::kTransient;
          } else if (value == "permanent") {
            clause.kind = FaultKind::kPermanent;
          } else if (value == "spike") {
            clause.kind = FaultKind::kCostSpike;
          } else if (value == "corrupt") {
            clause.kind = FaultKind::kCorrupt;
          } else {
            return Status::InvalidArgument("unknown fault kind '" + value +
                                           "'");
          }
        } else if (key == "mult") {
          clause.mult = std::stod(value);
          if (!(clause.mult >= 1.0)) {
            return Status::InvalidArgument("fault 'mult' must be >= 1");
          }
        } else if (key == "scale") {
          clause.scale = std::stod(value);
          if (!(clause.scale >= 1.0)) {
            return Status::InvalidArgument("fault 'scale' must be >= 1");
          }
        } else {
          return Status::InvalidArgument("unknown fault param '" + key + "'");
        }
      } catch (const std::exception&) {
        return Status::InvalidArgument("unparsable fault value '" + value +
                                       "'");
      }
    }

    // Later clauses override earlier ones on the sites they match.
    for (int s = 0; s < fault_site::kNumSites; ++s) {
      if (MatchSite(pattern, kSiteNames[s])) resolved[s] = clause;
    }
  }
  return Status::OK();
}

FaultAction FaultInjector::Evaluate(int site) {
  RQP_CHECK(site >= 0 && site < fault_site::kNumSites);
  FaultAction action;
  const Clause& clause = clauses_[site];
  StreamState& st = t_stream;
  const uint64_t counter = st.counters[site]++;
  counters_[site].evaluations.fetch_add(1, std::memory_order_relaxed);
  if (!clause.active) return action;

  bool fire;
  uint64_t h = seed_;
  h = SplitMix64(h ^ (0x9E3779B97F4A7C15ull * (st.stream + 1)));
  h = SplitMix64(h ^ (0xBF58476D1CE4E5B9ull * (static_cast<uint64_t>(site) + 1)));
  h = SplitMix64(h + counter);
  if (clause.after >= 0) {
    fire = counter == static_cast<uint64_t>(clause.after);
  } else {
    fire = ToUnit(h) < clause.p;
  }
  if (!fire) return action;

  const uint64_t h2 = SplitMix64(h ^ 0x94D049BB133111EBull);
  action.kind = clause.kind;
  action.u = ToUnit(h2);
  switch (clause.kind) {
    case FaultKind::kTransient:
      counters_[site].transients.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kPermanent:
      counters_[site].permanents.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kCostSpike:
      action.magnitude = clause.mult;
      counters_[site].spikes.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kCorrupt:
      // Log-uniform factor in [1/scale, scale].
      action.magnitude = std::pow(clause.scale, 2.0 * action.u - 1.0);
      counters_[site].corruptions.fetch_add(1, std::memory_order_relaxed);
      break;
    case FaultKind::kNone:
      break;
  }
  return action;
}

std::vector<FaultSiteStats> FaultInjector::Snapshot() const {
  std::vector<FaultSiteStats> out(fault_site::kNumSites);
  for (int s = 0; s < fault_site::kNumSites; ++s) {
    out[static_cast<size_t>(s)].evaluations =
        counters_[s].evaluations.load(std::memory_order_relaxed);
    out[static_cast<size_t>(s)].transients =
        counters_[s].transients.load(std::memory_order_relaxed);
    out[static_cast<size_t>(s)].permanents =
        counters_[s].permanents.load(std::memory_order_relaxed);
    out[static_cast<size_t>(s)].spikes =
        counters_[s].spikes.load(std::memory_order_relaxed);
    out[static_cast<size_t>(s)].corruptions =
        counters_[s].corruptions.load(std::memory_order_relaxed);
  }
  return out;
}

std::string FaultInjector::StatsSummary() const {
  const std::vector<FaultSiteStats> snap = Snapshot();
  std::string out;
  char line[160];
  for (int s = 0; s < fault_site::kNumSites; ++s) {
    const FaultSiteStats& st = snap[static_cast<size_t>(s)];
    if (st.evaluations == 0) continue;
    std::snprintf(line, sizeof(line),
                  "  %-20s %10lld evals  %lld transient  %lld permanent  "
                  "%lld spike  %lld corrupt\n",
                  kSiteNames[s], static_cast<long long>(st.evaluations),
                  static_cast<long long>(st.transients),
                  static_cast<long long>(st.permanents),
                  static_cast<long long>(st.spikes),
                  static_cast<long long>(st.corruptions));
    out += line;
  }
  return out;
}

FaultStreamScope::FaultStreamScope(uint64_t stream) {
  StreamState& st = t_stream;
  saved_stream_ = st.stream;
  for (int s = 0; s < fault_site::kNumSites; ++s) {
    saved_counters_[s] = st.counters[s];
    st.counters[s] = 0;
  }
  st.stream = stream;
}

FaultStreamScope::~FaultStreamScope() {
  StreamState& st = t_stream;
  st.stream = saved_stream_;
  for (int s = 0; s < fault_site::kNumSites; ++s) {
    st.counters[s] = saved_counters_[s];
  }
}

void RobustnessReport::Merge(const RobustnessReport& o) {
  transient_retries += o.transient_retries;
  permanent_faults += o.permanent_faults;
  cost_spikes += o.cost_spikes;
  corruptions += o.corruptions;
  engine_degradations += o.engine_degradations;
  serial_degradations += o.serial_degradations;
  escalations += o.escalations;
  pcm_violations += o.pcm_violations;
  contour_clamps += o.contour_clamps;
  retries_exhausted += o.retries_exhausted;
  shard_stragglers += o.shard_stragglers;
  shard_lost_chunks += o.shard_lost_chunks;
  feedback_degradations += o.feedback_degradations;
  page_fault_degradations += o.page_fault_degradations;
  retried_cost += o.retried_cost;
  spike_cost += o.spike_cost;
  // mso_delta is a harness-level derived quantity, not additive.
}

bool RobustnessReport::Any() const {
  return transient_retries || permanent_faults || cost_spikes || corruptions ||
         engine_degradations || serial_degradations || escalations ||
         pcm_violations || contour_clamps || retries_exhausted ||
         shard_stragglers || shard_lost_chunks || feedback_degradations ||
         page_fault_degradations || retried_cost != 0.0 || spike_cost != 0.0;
}

std::string RobustnessReport::Summary() const {
  if (!Any()) return "";
  std::string out;
  char buf[64];
  const auto add = [&](const char* name, int64_t v) {
    if (v == 0) return;
    std::snprintf(buf, sizeof(buf), "%s%s=%lld", out.empty() ? "" : " ", name,
                  static_cast<long long>(v));
    out += buf;
  };
  add("retries", transient_retries);
  add("permanent", permanent_faults);
  add("spikes", cost_spikes);
  add("corruptions", corruptions);
  add("degrade_engine", engine_degradations);
  add("degrade_serial", serial_degradations);
  add("escalations", escalations);
  add("pcm_violations", pcm_violations);
  add("contour_clamps", contour_clamps);
  add("retries_exhausted", retries_exhausted);
  add("shard_stragglers", shard_stragglers);
  add("shard_lost_chunks", shard_lost_chunks);
  add("feedback_degraded", feedback_degradations);
  add("page_fault_degraded", page_fault_degradations);
  if (retried_cost != 0.0) {
    std::snprintf(buf, sizeof(buf), " retried_cost=%.3g", retried_cost);
    out += buf;
  }
  if (spike_cost != 0.0) {
    std::snprintf(buf, sizeof(buf), " spike_cost=%.3g", spike_cost);
    out += buf;
  }
  if (mso_delta != 0.0) {
    std::snprintf(buf, sizeof(buf), " mso_delta=%.3g", mso_delta);
    out += buf;
  }
  return out;
}

FaultedRunOutcome RunWithFaultRetries(
    FaultInjector& inj, const std::vector<int>& sites, double budget,
    const std::function<FaultAttempt(double eff_budget,
                                     const FaultRunState& state)>& attempt) {
  FaultedRunOutcome out;
  FaultRunState state;
  double remaining = budget;  // < 0: unlimited
  double wasted = 0.0;

  for (int a = 0; a < kMaxFaultAttempts; ++a) {
    state.attempt = a;
    bool transient = false;
    double transient_u = 0.0;
    int permanent_site = -1;
    double spike = 1.0;
    for (int site : sites) {
      const FaultAction act = inj.Evaluate(site);
      if (!act) continue;
      // Degradation sites reroute execution instead of failing it; any
      // fault kind on them triggers the downgrade.
      if (site == fault_site::kExecBatchPipeline) {
        if (!state.degrade_engine) {
          state.degrade_engine = true;
          ++out.report.engine_degradations;
        }
        continue;
      }
      if (site == fault_site::kExecMorselScan) {
        if (!state.degrade_serial) {
          state.degrade_serial = true;
          ++out.report.serial_degradations;
        }
        continue;
      }
      switch (act.kind) {
        case FaultKind::kTransient:
          transient = true;
          transient_u = std::max(transient_u, act.u);
          break;
        case FaultKind::kPermanent:
          permanent_site = site;
          break;
        case FaultKind::kCostSpike:
          spike *= act.magnitude;
          ++out.report.cost_spikes;
          break;
        case FaultKind::kCorrupt:
          // Only statistic-producing sites interpret corruption; on an
          // execution site the draw is counted but has no effect.
          break;
        case FaultKind::kNone:
          break;
      }
    }

    if (permanent_site >= 0) {
      ++out.report.permanent_faults;
      out.status = Status::Internal(std::string("injected permanent fault at ") +
                                    FaultSiteName(permanent_site));
      out.cost_used = wasted;
      return out;
    }

    const double eff = remaining < 0.0 ? -1.0 : remaining / spike;
    const FaultAttempt res = attempt(eff, state);
    if (!res.status.ok()) {
      out.status = res.status;
      out.cost_used = wasted;
      return out;
    }
    const double attempt_cost = res.cost * spike;

    if (transient) {
      // The fault struck after fraction u of the attempt: that work is
      // lost, charged, and the attempt retried.
      const double lost = transient_u * attempt_cost;
      wasted += lost;
      ++out.report.transient_retries;
      out.report.retried_cost += lost;
      if (remaining >= 0.0) {
        remaining -= lost;
        if (remaining <= 0.0) {
          // Retries ate the whole budget: report the same non-completion a
          // failed contour execution has, with cost_used == budget.
          out.completed = false;
          out.cost_used = budget;
          return out;
        }
      }
      continue;
    }

    out.completed = res.completed;
    out.final_attempt_valid = true;
    if (res.completed) {
      out.cost_used = attempt_cost + wasted;
      if (spike > 1.0) out.report.spike_cost += (spike - 1.0) * res.cost;
      if (budget >= 0.0 && out.cost_used > budget) out.cost_used = budget;
    } else {
      // The attempt itself exhausted its effective budget; together with
      // the wasted work that is exactly the full budget.
      out.cost_used = budget >= 0.0 ? budget : attempt_cost + wasted;
    }
    return out;
  }

  ++out.report.retries_exhausted;
  if (budget >= 0.0) {
    out.completed = false;
    out.cost_used = std::min(budget, wasted);
    return out;
  }
  out.status = Status::Unavailable("transient-fault retries exhausted");
  return out;
}

}  // namespace robustqp
