#include "ess/ess_builder.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>

#include "common/fault.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace robustqp {

EssBuilder::EssBuilder(Ess* ess) : ess_(ess), dims_(ess->dims()) {
  RQP_CHECK(ess_->config_.build_mode != EssBuildMode::kRecost ||
            ess_->config_.recost_lambda > 1.0);
}

EssBuilder::~EssBuilder() = default;

Status EssBuilder::EnsureExactBatch(const std::vector<int64_t>& lins) {
  const int64_t n = static_cast<int64_t>(lins.size());
  if (n == 0) return Status::OK();
  // Optimizer calls are pure and fan out; interning stays sequential and
  // in ascending-lin order so the plan pool is deterministic.
  const bool armed = FaultInjector::Armed();
  std::vector<std::unique_ptr<Plan>> raw(lins.size());
  std::vector<double> costs(lins.size());
  auto work = [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      const int64_t lin = lins[static_cast<size_t>(i)];
      const GridLoc loc = ess_->FromLinear(lin);
      const EssPoint q = ess_->SelAt(loc);
      if (!armed) {
        raw[static_cast<size_t>(i)] = ess_->optimizer_->Optimize(q);
        costs[static_cast<size_t>(i)] =
            ess_->optimizer_->PlanCost(*raw[static_cast<size_t>(i)], q);
        continue;
      }
      // Fault draws are keyed to the grid location, not the thread, so
      // the sequence is deterministic at any thread count.
      FaultStreamScope scope(static_cast<uint64_t>(lin));
      if (!in_sweep_ &&
          FaultInjector::Global().Evaluate(fault_site::kEssCornerOpt)) {
        // Refinement corner faulted: abandon refinement for the
        // exhaustive sweep instead of failing the build. The corner stays
        // unassigned; the sweep will cover it.
        degrade_to_sweep_.store(true, std::memory_order_relaxed);
        continue;
      }
      Status st;
      for (int attempt = 0; attempt < kMaxFaultAttempts; ++attempt) {
        Result<std::unique_ptr<Plan>> r = ess_->optimizer_->TryOptimize(q);
        if (r.ok()) {
          raw[static_cast<size_t>(i)] = r.MoveValue();
          break;
        }
        st = r.status();
        if (!st.IsTransient()) break;
      }
      if (raw[static_cast<size_t>(i)] == nullptr) {
        // ParallelFor converts this to the Status returned to the caller.
        throw std::runtime_error(st.ok() ? "optimizer retries exhausted"
                                         : st.ToString());
      }
      // The stored cost is the plan's recosted total, computed before
      // interning.
      costs[static_cast<size_t>(i)] =
          ess_->optimizer_->PlanCost(*raw[static_cast<size_t>(i)], q);
    }
  };
  Status run_status;
  if (pool_ == nullptr || n < 32) {
    try {
      work(0, n);
    } catch (const std::exception& e) {
      run_status = Status::Internal(std::string("task failed: ") + e.what());
    }
  } else {
    run_status = ParallelFor(pool_.get(), n,
                             [&](int /*worker*/, int64_t begin, int64_t end) {
                               work(begin, end);
                             });
  }
  RQP_RETURN_NOT_OK(run_status);
  for (size_t i = 0; i < lins.size(); ++i) {
    if (raw[i] == nullptr) continue;  // corner skipped by degradation
    const size_t lin = static_cast<size_t>(lins[i]);
    if (state_[lin] == 2) --stats_.recosted_points;
    ess_->plan_[lin] = ess_->pool_.Intern(std::move(raw[i]));
    ess_->cost_[lin] = costs[i];
    state_[lin] = 1;
    ++stats_.exact_points;
  }
  return Status::OK();
}

std::vector<int64_t> EssBuilder::Corners(const Box& box) const {
  std::vector<int64_t> corners;
  GridLoc loc = box.lo;
  // Odometer over {lo_d, hi_d} per dimension; dims with lo == hi
  // contribute a single choice.
  std::vector<int> choice(static_cast<size_t>(dims_), 0);
  while (true) {
    corners.push_back(ess_->ToLinear(loc));
    int d = dims_ - 1;
    for (; d >= 0; --d) {
      const size_t sd = static_cast<size_t>(d);
      if (choice[sd] == 0 && box.lo[sd] != box.hi[sd]) {
        choice[sd] = 1;
        loc[sd] = box.hi[sd];
        break;
      }
      choice[sd] = 0;
      loc[sd] = box.lo[sd];
    }
    if (d < 0) break;
  }
  return corners;
}

template <typename Fn>
void EssBuilder::ForEachPoint(const Box& box, Fn fn) const {
  GridLoc loc = box.lo;
  while (true) {
    fn(ess_->ToLinear(loc));
    int d = dims_ - 1;
    for (; d >= 0; --d) {
      const size_t sd = static_cast<size_t>(d);
      if (++loc[sd] <= box.hi[sd]) break;
      loc[sd] = box.lo[sd];
    }
    if (d < 0) break;
  }
}

void EssBuilder::CertifyOrSplit(const Box& box, std::vector<Box>* next) {
  const std::vector<int64_t> corners = Corners(box);

  bool unit = true;
  for (int d = 0; d < dims_; ++d) {
    const size_t sd = static_cast<size_t>(d);
    if (box.hi[sd] - box.lo[sd] > 1) {
      unit = false;
      break;
    }
  }
  // Every location of a unit cell is a corner: fully optimized above.
  if (unit) return;

  // Distinct corner plans in first-seen (row-major corner) order.
  std::vector<const Plan*> plans;
  for (int64_t lin : corners) {
    const Plan* p = ess_->plan_[static_cast<size_t>(lin)];
    if (std::find(plans.begin(), plans.end(), p) == plans.end()) {
      plans.push_back(p);
    }
  }

  const double bottom = ess_->cost_[static_cast<size_t>(corners.front())];
  const double top = ess_->cost_[static_cast<size_t>(corners.back())];

  // Witness scan: every location inside the box that an earlier
  // refinement already optimized (shared faces of sibling cells, centre
  // witnesses) must be covered by the candidate plan set, else the cell
  // is provably not homogeneous in that set and must be refined.
  const auto witnesses_covered = [&]() {
    bool covered = true;
    ForEachPoint(box, [&](int64_t lin) {
      if (state_[static_cast<size_t>(lin)] == 1 &&
          std::find(plans.begin(), plans.end(),
                    ess_->plan_[static_cast<size_t>(lin)]) == plans.end()) {
        covered = false;
      }
    });
    return covered;
  };

  bool certified = false;
  if (plans.size() == 1) {
    certified = witnesses_covered();
  }
  if (!certified && ess_->config_.build_mode == EssBuildMode::kRecost &&
      top <= ess_->config_.recost_lambda * bottom) {
    certified = true;
  }
  if (!certified) {
    // Leaf cell (see the header): a narrow disagreeing cell is filled
    // with the minimum over the corner and in-cell witness plans instead
    // of being traced down to unit cells; the post-fill relaxation sweep
    // repairs any interior point whose optimal plan region missed this
    // cell's candidate set.
    int max_span = 0;
    for (int d = 0; d < dims_; ++d) {
      const size_t sd = static_cast<size_t>(d);
      max_span = std::max(max_span, box.hi[sd] - box.lo[sd]);
    }
    if (max_span <= leaf_span_) {
      ForEachPoint(box, [&](int64_t lin) {
        if (state_[static_cast<size_t>(lin)] != 1) return;
        const Plan* p = ess_->plan_[static_cast<size_t>(lin)];
        if (std::find(plans.begin(), plans.end(), p) == plans.end()) {
          plans.push_back(p);
        }
      });
      certified = true;
    }
  }

  if (certified) {
    ++stats_.cells_certified;
    fills_.push_back(FillJob{box, std::move(plans), bottom});
    return;
  }

  ++stats_.cells_refined;
  // Split every dimension of length >= 2 at its midpoint; children share
  // the midpoint faces (their corners are memoized).
  std::vector<std::vector<std::pair<int, int>>> ranges(
      static_cast<size_t>(dims_));
  for (int d = 0; d < dims_; ++d) {
    const size_t sd = static_cast<size_t>(d);
    const int lo = box.lo[sd];
    const int hi = box.hi[sd];
    if (hi - lo >= 2) {
      const int mid = lo + (hi - lo) / 2;
      ranges[sd] = {{lo, mid}, {mid, hi}};
    } else {
      ranges[sd] = {{lo, hi}};
    }
  }
  std::vector<int> choice(static_cast<size_t>(dims_), 0);
  while (true) {
    Box child;
    child.lo.resize(static_cast<size_t>(dims_));
    child.hi.resize(static_cast<size_t>(dims_));
    for (int d = 0; d < dims_; ++d) {
      const size_t sd = static_cast<size_t>(d);
      child.lo[sd] = ranges[sd][static_cast<size_t>(choice[sd])].first;
      child.hi[sd] = ranges[sd][static_cast<size_t>(choice[sd])].second;
    }
    next->push_back(std::move(child));
    int d = dims_ - 1;
    for (; d >= 0; --d) {
      const size_t sd = static_cast<size_t>(d);
      if (++choice[sd] < static_cast<int>(ranges[sd].size())) break;
      choice[sd] = 0;
    }
    if (d < 0) break;
  }
}

void EssBuilder::Fill(int job_index) {
  const FillJob& job = fills_[static_cast<size_t>(job_index)];
  ForEachPoint(job.box, [&](int64_t lin) {
    if (state_[static_cast<size_t>(lin)] != 0) return;
    Decode(lin);
    LoadSel();
    double best = ess_->optimizer_->PlanCost(*job.plans.front(), q_);
    const Plan* best_plan = job.plans.front();
    for (size_t i = 1; i < job.plans.size(); ++i) {
      const double c = ess_->optimizer_->PlanCost(*job.plans[i], q_);
      if (c < best) {
        best = c;
        best_plan = job.plans[i];
      }
    }
    ess_->cost_[static_cast<size_t>(lin)] = best;
    ess_->plan_[static_cast<size_t>(lin)] = best_plan;
    state_[static_cast<size_t>(lin)] = 2;
    filled_by_[static_cast<size_t>(lin)] = job_index;
    dirty_[static_cast<size_t>(lin)] = 1;
    ++stats_.recosted_points;
    // PCM: the true optimum at q is at least the cell's bottom-corner
    // optimum, so best/bottom soundly bounds the realized deviation (it
    // stays sound as later relaxation only lowers recosted values, and is
    // conservative — in kExact mode the surface ends exact regardless).
    stats_.max_deviation_bound =
        std::max(stats_.max_deviation_bound, best / job.bottom_cost);
  });
}

void EssBuilder::InitGridPasses() {
  const size_t total = static_cast<size_t>(ess_->num_locations());
  filled_by_.assign(total, -1);
  dirty_.assign(total, 0);
  changed_at_.assign(total, 0);
  visited_at_.assign(total, -1);
  // Odometer over {-1, 0, +1}^D offsets (last dimension fastest),
  // skipping the all-zero one.
  const size_t dims = static_cast<size_t>(dims_);
  std::vector<int> off(dims, -1);
  while (true) {
    Neighbour n;
    for (size_t d = 0; d < dims; ++d) {
      n.delta += off[d] * ess_->strides_[d];
      if (off[d] < 0) n.down |= uint32_t{1} << d;
      if (off[d] > 0) n.up |= uint32_t{1} << d;
    }
    if (n.delta != 0) stencil_.push_back(n);
    int d = dims_ - 1;
    for (; d >= 0; --d) {
      const size_t sd = static_cast<size_t>(d);
      if (++off[sd] <= 1) break;
      off[sd] = -1;
    }
    if (d < 0) break;
  }
  loc_.assign(dims, 0);
  q_.assign(dims, 0.0);
}

bool EssBuilder::Decode(int64_t lin) {
  const int points = ess_->points();
  at_low_ = 0;
  at_high_ = 0;
  for (int d = 0; d < dims_; ++d) {
    const size_t sd = static_cast<size_t>(d);
    const int v = static_cast<int>((lin / ess_->strides_[sd]) % points);
    loc_[sd] = v;
    if (v == 0) at_low_ |= uint32_t{1} << d;
    if (v == points - 1) at_high_ |= uint32_t{1} << d;
  }
  return (at_low_ | at_high_) == 0;
}

void EssBuilder::LoadSel() {
  for (int d = 0; d < dims_; ++d) {
    const size_t sd = static_cast<size_t>(d);
    q_[sd] = ess_->axis_.value(loc_[sd]);
  }
}

template <typename Fn>
void EssBuilder::ForEachNeighbour(int64_t lin, Fn fn) const {
  for (const Neighbour& n : stencil_) {
    // Off the grid: a step down from the low face or up from the high one.
    if (((n.down & at_low_) | (n.up & at_high_)) != 0) continue;
    fn(lin + n.delta);
  }
}

// Flood each discovered plan across its true region: any recosted
// location with a neighbouring plan that is strictly cheaper at it adopts
// that plan, until a fixpoint. Every adopted value is a genuine plan cost
// at the location, so the surface decreases monotonically towards the
// optimal-cost surface and never crosses it, and exact locations (already
// at the optimum) can never change. The stencil includes diagonals:
// region tips are regularly connected to their region only diagonally.
//
// Passes run in ascending lin order (Gauss-Seidel), as a worklist: a pass
// visits only dirty locations, and a visit costs only plans it has not
// costed before, taken from neighbours that changed since its previous
// visit. Both cuts are exact, so every pass ends in the state a full pass
// would reach:
//  * a location's cost only falls, and a recosted location's cost is its
//    own plan's PlanCost. So a plan costed there before (by Fill, as one
//    of its cell's candidates, at an earlier visit, or earlier in this
//    one) was not cheaper then and cannot be now, and the location's own
//    plan cannot win back either;
//  * so a neighbour that kept its plan since the previous visit offers
//    nothing new, and a visit with no such neighbour changes nothing.
//    Fill marks each location it fills dirty; every later plan change
//    (adoption here, re-optimization in junction repair) goes through
//    MarkChanged, which stamps it and marks the neighbours dirty.
// A pass that changes nothing ends the loop.
void EssBuilder::Relax() {
  const int64_t total = ess_->num_locations();
  seen_at_.resize(static_cast<size_t>(ess_->pool_.size()), 0);
  bool changed = true;
  while (changed) {
    changed = false;
    for (int64_t lin = 0; lin < total; ++lin) {
      const size_t slin = static_cast<size_t>(lin);
      if (!dirty_[slin]) continue;
      dirty_[slin] = 0;
      if (state_[slin] != 2) continue;
      const int64_t since = visited_at_[slin];
      visited_at_[slin] = events_;
      Decode(lin);
      const Plan* plan = ess_->plan_[slin];
      double cost = ess_->cost_[slin];
      // Marks p seen at this visit; false if it already was.
      const int64_t visit = ++visits_;
      const auto newly_seen = [&](const Plan* p) {
        int64_t& at = seen_at_[static_cast<size_t>(p->pool_index())];
        if (at == visit) return false;
        at = visit;
        return true;
      };
      const FillJob& job = fills_[static_cast<size_t>(filled_by_[slin])];
      for (const Plan* p : job.plans) newly_seen(p);
      newly_seen(plan);
      bool have_q = false;
      ForEachNeighbour(lin, [&](int64_t nlin) {
        const size_t sn = static_cast<size_t>(nlin);
        if (changed_at_[sn] <= since) return;
        const Plan* np = ess_->plan_[sn];
        if (!newly_seen(np)) return;
        if (!have_q) {
          LoadSel();
          have_q = true;
        }
        const double c = ess_->optimizer_->PlanCost(*np, q_);
        if (c < cost) {
          cost = c;
          plan = np;
        }
      });
      if (plan == ess_->plan_[slin]) continue;
      ess_->cost_[slin] = cost;
      ess_->plan_[slin] = plan;
      MarkChanged(lin);
      changed = true;
    }
  }
}

void EssBuilder::MarkChanged(int64_t lin) {
  changed_at_[static_cast<size_t>(lin)] = ++events_;
  Decode(lin);
  ForEachNeighbour(lin, [&](int64_t nlin) {
    dirty_[static_cast<size_t>(nlin)] = 1;
  });
}

std::vector<int64_t> EssBuilder::JunctionSuspects() {
  std::vector<int64_t> suspects;
  const int64_t total = ess_->num_locations();
  std::vector<const Plan*> seen;
  for (int64_t lin = 0; lin < total; ++lin) {
    if (state_[static_cast<size_t>(lin)] != 2) continue;
    // On a grid face the stencil is truncated (a sliver there shows fewer
    // distinct neighbours), so any face point next to a plan change is
    // suspect; in the interior three regions must meet.
    const bool interior = Decode(lin);
    const size_t enough = interior ? 3 : 2;
    seen.assign(1, ess_->plan_[static_cast<size_t>(lin)]);
    ForEachNeighbour(lin, [&](int64_t nlin) {
      if (seen.size() == enough) return;
      const Plan* np = ess_->plan_[static_cast<size_t>(nlin)];
      if (std::find(seen.begin(), seen.end(), np) == seen.end()) {
        seen.push_back(np);
      }
    });
    if (seen.size() == enough) suspects.push_back(lin);
  }
  return suspects;
}

Status EssBuilder::Sweep() {
  // Suppress corner-opt fault draws during the sweep: a fallback sweep
  // must not re-trigger its own degradation, and a kExhaustive build has
  // no refinement corners to degrade.
  in_sweep_ = true;
  std::vector<int64_t> rest;
  const int64_t total = ess_->num_locations();
  for (int64_t lin = 0; lin < total; ++lin) {
    if (state_[static_cast<size_t>(lin)] != 1) rest.push_back(lin);
  }
  // Overwrites recosted fills too: after a fallback the surface is the
  // exhaustive sweep's, bit for bit, in every build mode.
  return EnsureExactBatch(rest);
}

Status EssBuilder::Refine() {
  // Every EnsureExactBatch entry is one optimizer call; past this many,
  // refinement has lost against the (parallel) exhaustive sweep.
  const double call_budget = ess_->config_.refine_fallback_fraction *
                             static_cast<double>(ess_->num_locations());
  const auto must_sweep = [&]() {
    return degrade_to_sweep_.load(std::memory_order_relaxed) ||
           static_cast<double>(stats_.exact_points) > call_budget;
  };

  // Breadth-first refinement: optimize all of a level's missing corners
  // in one parallel batch, then certify/split each cell sequentially
  // (cells at one level see exactly the same exact-point state regardless
  // of thread count, so the refinement tree is deterministic).
  Box root;
  root.lo.assign(static_cast<size_t>(dims_), 0);
  root.hi.assign(static_cast<size_t>(dims_), ess_->points() - 1);
  std::vector<Box> frontier;
  frontier.push_back(std::move(root));
  while (!frontier.empty()) {
    std::vector<int64_t> need;
    for (const Box& box : frontier) {
      for (int64_t lin : Corners(box)) {
        if (state_[static_cast<size_t>(lin)] != 1) need.push_back(lin);
      }
    }
    std::sort(need.begin(), need.end());
    need.erase(std::unique(need.begin(), need.end()), need.end());
    RQP_RETURN_NOT_OK(EnsureExactBatch(need));
    if (must_sweep()) {
      stats_.fell_back = true;
      return Sweep();
    }
    std::vector<Box> next;
    for (const Box& box : frontier) CertifyOrSplit(box, &next);
    frontier = std::move(next);
  }

  InitGridPasses();
  for (size_t i = 0; i < fills_.size(); ++i) Fill(static_cast<int>(i));
  Relax();
  if (ess_->config_.build_mode != EssBuildMode::kExact) return Status::OK();
  // Junction repair (see the header): re-optimize recosted locations
  // sitting where three or more plan regions meet, then re-flood.
  // Terminates: each pass converts its suspects to exact locations, which
  // are never suspects again.
  while (true) {
    const std::vector<int64_t> suspects = JunctionSuspects();
    if (suspects.empty()) return Status::OK();
    RQP_RETURN_NOT_OK(EnsureExactBatch(suspects));
    if (must_sweep()) {
      stats_.fell_back = true;
      return Sweep();
    }
    for (int64_t lin : suspects) MarkChanged(lin);
    Relax();
  }
}

Status EssBuilder::Run() {
  const int64_t total = ess_->num_locations();
  state_.assign(static_cast<size_t>(total), 0);

  const int threads = ess_->config_.num_threads > 0
                          ? std::min(ess_->config_.num_threads, 16)
                          : ThreadPool::DefaultThreads();
  if (threads > 1 && total >= 256) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  RQP_RETURN_NOT_OK(ess_->config_.build_mode == EssBuildMode::kExhaustive
                        ? Sweep()
                        : Refine());

  for (int64_t lin = 0; lin < total; ++lin) {
    RQP_CHECK(state_[static_cast<size_t>(lin)] != 0);
  }
  stats_.optimizer_calls = ess_->optimizer_->num_optimize_calls();
  ess_->build_stats_ = stats_;
  return Status::OK();
}

}  // namespace robustqp
