#include "ess/ess.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace robustqp {

namespace {

/// FNV-1a over a PlanKey's words.
struct PlanKeyHash {
  size_t operator()(const PlanKey& key) const {
    uint64_t h = 1469598103934665603ull;
    for (const uint64_t word : key) h = (h ^ word) * 1099511628211ull;
    return static_cast<size_t>(h ^ (h >> 32));
  }
};

/// The sweep of Section 2.2: one optimizer call per grid location. The
/// calls are pure and, on grids of kSweepFanOutLocations or more, fan out
/// on a pool. A worker identifies each location's winner by its PlanKey
/// and builds one Plan per distinct key it meets; each location is costed
/// on that plan and keeps a pointer to it. The plans are interned
/// afterwards in ascending linear order, so the pool and both surfaces are
/// identical at any thread count. Odometer order makes the calls cheap,
/// not correct: consecutive locations differ mostly in the last dimension,
/// so each OptimizeKey recomputes only the DP cells that dimension reaches
/// (a worker's first location runs a full DP), and any order would yield
/// the same surfaces. With an armed FaultInjector each location draws from
/// its own stream, keyed to the location rather than the thread, and
/// retries transient optimizer faults up to kMaxFaultAttempts times.
Status Sweep(const Ess& ess, int num_threads, PlanPool* pool,
             std::vector<double>* cost, std::vector<const Plan*>* plan) {
  const int64_t total = ess.num_locations();
  const int dims = ess.dims();
  const Optimizer& optimizer = ess.optimizer();
  const LogAxis& axis = ess.axis();
  const bool armed = FaultInjector::Armed();
  const int threads = num_threads > 0 ? std::min(num_threads, 16)
                                      : ThreadPool::DefaultThreads();
  const int workers =
      threads > 1 && total >= kSweepFanOutLocations ? threads : 1;

  // A distinct winner of one worker; `interned` is its pool instance.
  struct Winner {
    std::unique_ptr<Plan> plan;
    const Plan* interned = nullptr;
  };
  struct WorkerWinners {
    std::unordered_map<PlanKey, size_t, PlanKeyHash> index;
    std::deque<Winner> winners;  // stable addresses for `winner_of`
  };
  std::vector<WorkerWinners> per_worker(static_cast<size_t>(workers));
  std::vector<Winner*> winner_of(static_cast<size_t>(total));

  auto work = [&](int worker, int64_t begin, int64_t end) {
    WorkerWinners& mine = per_worker[static_cast<size_t>(worker)];
    // The location is decoded by an odometer (the last dimension is the
    // linear index's least significant digit) into reused scratch.
    GridLoc loc = ess.FromLinear(begin);
    EssPoint q = ess.SelAt(loc);
    PlanKey key;
    for (int64_t lin = begin; lin < end; ++lin) {
      const size_t i = static_cast<size_t>(lin);
      if (!armed) {
        optimizer.OptimizeKey(q, &key);
      } else {
        FaultStreamScope scope(static_cast<uint64_t>(lin));
        Status st;
        for (int attempt = 0; attempt < kMaxFaultAttempts; ++attempt) {
          st = optimizer.TryOptimizeKey(q, &key);
          if (!st.IsTransient()) break;
        }
        // ParallelFor converts this to the Status returned below.
        if (!st.ok()) throw std::runtime_error(st.ToString());
      }
      const auto [it, inserted] =
          mine.index.try_emplace(key, mine.winners.size());
      if (inserted) mine.winners.push_back({optimizer.PlanFromKey(key)});
      Winner& winner = mine.winners[it->second];
      // The stored cost is the plan's recosted total.
      (*cost)[i] = optimizer.PlanCost(*winner.plan, q);
      winner_of[i] = &winner;
      for (int d = dims - 1; d >= 0; --d) {
        int& v = loc[static_cast<size_t>(d)];
        if (++v == axis.points()) v = 0;
        q[static_cast<size_t>(d)] = axis.value(v);
        if (v != 0) break;
      }
    }
  };
  if (workers > 1) {
    ThreadPool pool_threads(workers);
    RQP_RETURN_NOT_OK(ParallelFor(&pool_threads, total, work));
  } else {
    try {
      work(0, 0, total);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("task failed: ") + e.what());
    }
  }
  for (size_t i = 0; i < winner_of.size(); ++i) {
    Winner& winner = *winner_of[i];
    if (winner.interned == nullptr) {
      winner.interned = pool->Intern(std::move(winner.plan));
    }
    (*plan)[i] = winner.interned;
  }
  return Status::OK();
}

}  // namespace

int DefaultPointsPerDim(int dims) {
  switch (dims) {
    case 1:
      return 64;
    case 2:
      return 40;
    case 3:
      return 16;
    case 4:
      return 10;
    case 5:
      return 8;
    default:
      return 6;
  }
}

int64_t Ess::ToLinear(const GridLoc& loc) const {
  int64_t idx = 0;
  for (int d = 0; d < dims_; ++d) {
    idx += static_cast<int64_t>(loc[static_cast<size_t>(d)]) *
           strides_[static_cast<size_t>(d)];
  }
  return idx;
}

GridLoc Ess::FromLinear(int64_t idx) const {
  GridLoc loc(static_cast<size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    loc[static_cast<size_t>(d)] =
        static_cast<int>((idx / strides_[static_cast<size_t>(d)]) % axis_.points());
  }
  return loc;
}

EssPoint Ess::SelAt(const GridLoc& loc) const {
  EssPoint q(static_cast<size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    q[static_cast<size_t>(d)] = axis_.value(loc[static_cast<size_t>(d)]);
  }
  return q;
}

int Ess::ContourOf(double cost) const {
  for (int i = 0; i < num_contours(); ++i) {
    if (cost <= contour_costs_[static_cast<size_t>(i)] * (1.0 + 1e-12)) return i;
  }
  return num_contours() - 1;
}

std::vector<const Plan*> Ess::ContourPlans(int i) const {
  // Dedup via a hash set; the returned vector keeps first-seen order
  // (PlanBouquet's bouquet execution order depends on it).
  std::vector<const Plan*> plans;
  std::unordered_set<const Plan*> seen;
  for (int64_t lin : frontiers_[static_cast<size_t>(i)]) {
    const Plan* p = plan_[static_cast<size_t>(lin)];
    if (seen.insert(p).second) plans.push_back(p);
  }
  return plans;
}

std::vector<int64_t> Ess::SliceFrontier(int i, const std::vector<int>& fixed) const {
  RQP_CHECK(static_cast<int>(fixed.size()) == dims_);
  const double budget = contour_costs_[static_cast<size_t>(i)] * (1.0 + 1e-12);
  std::vector<int> free_dims;
  for (int d = 0; d < dims_; ++d) {
    if (fixed[static_cast<size_t>(d)] < 0) free_dims.push_back(d);
  }

  std::vector<int64_t> out;
  GridLoc loc(static_cast<size_t>(dims_), 0);
  for (int d = 0; d < dims_; ++d) {
    if (fixed[static_cast<size_t>(d)] >= 0) {
      loc[static_cast<size_t>(d)] = fixed[static_cast<size_t>(d)];
    }
  }
  // Odometer over the free dimensions.
  while (true) {
    const int64_t lin = ToLinear(loc);
    if (cost_[static_cast<size_t>(lin)] <= budget) {
      bool frontier = true;
      for (int d : free_dims) {
        if (loc[static_cast<size_t>(d)] + 1 >= axis_.points()) continue;
        const int64_t up = lin + strides_[static_cast<size_t>(d)];
        if (cost_[static_cast<size_t>(up)] <= budget) {
          frontier = false;
          break;
        }
      }
      if (frontier) out.push_back(lin);
    }
    // Advance odometer.
    int k = static_cast<int>(free_dims.size()) - 1;
    while (k >= 0) {
      int& v = loc[static_cast<size_t>(free_dims[static_cast<size_t>(k)])];
      if (++v < axis_.points()) break;
      v = 0;
      --k;
    }
    if (k < 0) break;
  }
  return out;
}

void Ess::InitStrides() {
  strides_.resize(static_cast<size_t>(dims_));
  int64_t stride = 1;
  for (int d = dims_ - 1; d >= 0; --d) {
    strides_[static_cast<size_t>(d)] = stride;
    stride *= axis_.points();
  }
}

void Ess::ComputeContoursAndFrontiers() {
  const int64_t total = num_locations();
  const int points = axis_.points();
  cmin_ = cost_[0];
  cmax_ = cost_[static_cast<size_t>(total - 1)];
  RQP_CHECK(cmax_ >= cmin_);

  // Contour budgets: CC_0 = cmin; geometric with the configured ratio;
  // final contour capped at cmax (Section 2.5 discretization).
  const double ratio = config_.contour_cost_ratio;
  RQP_CHECK(ratio > 1.0);
  contour_costs_.clear();
  double cc = cmin_;
  while (cc < cmax_ * (1.0 - 1e-12)) {
    contour_costs_.push_back(cc);
    cc *= ratio;
  }
  contour_costs_.push_back(cmax_);

  // Frontier membership per contour. The grid location is decoded
  // incrementally (odometer; the last dimension is the linear-index LSB)
  // instead of dividing out strides per location, and the contours a
  // location belongs to are found by binary search: location lin is on
  // frontier i iff c <= CC_i (budget covers it) and CC_i < min_up (every
  // up-neighbour is outside). Both predicates are monotone in i over the
  // sorted geometric contour_costs_ array, so the member contours form the
  // contiguous index range [begin, end) bounded by the two searches, which
  // evaluate the exact same float comparisons as the direct scan.
  frontiers_.assign(contour_costs_.size(), {});
  const int m = static_cast<int>(contour_costs_.size());
  GridLoc loc(static_cast<size_t>(dims_), 0);
  for (int64_t lin = 0; lin < total; ++lin) {
    const double c = cost_[static_cast<size_t>(lin)];
    // Cheapest up-neighbour cost (infinity at the grid's top corner).
    double min_up = std::numeric_limits<double>::infinity();
    for (int d = 0; d < dims_; ++d) {
      if (loc[static_cast<size_t>(d)] + 1 >= points) continue;
      const int64_t up = lin + strides_[static_cast<size_t>(d)];
      min_up = std::min(min_up, cost_[static_cast<size_t>(up)]);
    }
    // First contour whose budget covers c.
    int lo = 0, hi = m;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (c <= contour_costs_[static_cast<size_t>(mid)] * (1.0 + 1e-12)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    const int begin = lo;
    // First contour whose budget reaches an up-neighbour.
    hi = m;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (contour_costs_[static_cast<size_t>(mid)] * (1.0 + 1e-12) < min_up) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (int i = begin; i < lo; ++i) {
      frontiers_[static_cast<size_t>(i)].push_back(lin);
    }
    // Advance the odometer.
    for (int d = dims_ - 1; d >= 0; --d) {
      if (++loc[static_cast<size_t>(d)] < points) break;
      loc[static_cast<size_t>(d)] = 0;
    }
  }
}

std::unique_ptr<Ess> Ess::Build(const Catalog& catalog, const Query& query,
                                const Config& config) {
  Result<std::unique_ptr<Ess>> r = TryBuild(catalog, query, config);
  RQP_CHECK(r.ok());
  return r.MoveValue();
}

Result<std::unique_ptr<Ess>> Ess::TryBuild(const Catalog& catalog,
                                           const Query& query,
                                           const Config& config) {
  const int dims = query.num_epps();
  RQP_CHECK(dims >= 1);
  const int points = config.points_per_dim > 0 ? config.points_per_dim
                                               : DefaultPointsPerDim(dims);
  // Reject what LogAxis and the contour ladder would abort on, and grids
  // past kMaxEssLocations (points^D, multiplied out one step at a time so
  // it cannot overflow).
  if (points < 2) {
    return Status::InvalidArgument("ESS needs >= 2 points per dimension, got " +
                                   std::to_string(points));
  }
  int64_t locations = 1;
  for (int d = 0; d < dims; ++d) {
    locations *= points;
    if (locations > kMaxEssLocations) {
      return Status::InvalidArgument(
          "ESS grid of " + std::to_string(points) + "^" + std::to_string(dims) +
          " locations exceeds " + std::to_string(kMaxEssLocations));
    }
  }
  if (!std::isfinite(config.contour_cost_ratio) ||
      config.contour_cost_ratio <= 1.0) {
    return Status::InvalidArgument("contour cost ratio must be finite and > 1");
  }

  auto ess = std::unique_ptr<Ess>(new Ess());
  ess->query_ = &query;
  ess->config_ = config;
  ess->dims_ = dims;
  ess->axis_ = LogAxis(config.min_sel, points);
  ess->optimizer_ = std::make_unique<Optimizer>(&catalog, &query, config.cost_model);
  ess->InitStrides();
  ess->cost_.assign(static_cast<size_t>(locations), 0.0);
  ess->plan_.assign(static_cast<size_t>(locations), nullptr);

  RQP_RETURN_NOT_OK(Sweep(*ess, config.num_threads, &ess->pool_, &ess->cost_,
                          &ess->plan_));
  ess->build_stats_.optimizer_calls = ess->optimizer_->num_optimize_calls();
  ess->ComputeContoursAndFrontiers();
  return ess;
}

}  // namespace robustqp
