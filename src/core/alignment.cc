#include "core/alignment.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/status.h"

namespace robustqp {

namespace {
uint64_t MaskOf(const std::vector<bool>& unlearned) {
  uint64_t m = 0;
  for (size_t d = 0; d < unlearned.size(); ++d) {
    if (unlearned[d]) m |= uint64_t{1} << d;
  }
  return m;
}

/// "R" + 8 hex digits of the signature's 32-bit FNV-1a hash.
std::string ReplacementName(const std::string& signature) {
  uint32_t h = 2166136261u;
  for (char c : signature) {
    h ^= static_cast<unsigned char>(c);
    h *= 16777619u;
  }
  char name[10];
  std::snprintf(name, sizeof(name), "R%08x", h);
  return name;
}
}  // namespace

const ConstrainedPlanCache::Entry& ConstrainedPlanCache::Get(
    int64_t lin, int dim, const std::vector<bool>& unlearned) const {
  return cache_.GetOrCompute(
      std::make_tuple(lin, dim, MaskOf(unlearned)), [&] {
        Entry entry;
        const EssPoint q = ess_->SelAt(ess_->FromLinear(lin));
        std::unique_ptr<Plan> plan =
            ess_->optimizer().OptimizeConstrainedSpill(q, dim, unlearned);
        if (plan == nullptr) {
          entry.cost = std::numeric_limits<double>::infinity();
        } else {
          entry.cost = ess_->optimizer().PlanCost(*plan, q);
          entry.plan = Canonical(std::move(plan));
        }
        return entry;
      });
}

const Plan* ConstrainedPlanCache::Canonical(std::unique_ptr<Plan> plan) const {
  const std::string signature = plan->signature();
  if (const Plan* posp = ess_->pool().Find(signature)) return posp;
  return plans_
      .GetOrCompute(signature,
                    [&] {
                      plan->set_display_name(ReplacementName(signature));
                      return std::unique_ptr<const Plan>(std::move(plan));
                    })
      .get();
}

std::vector<ContourAlignmentInfo> AnalyzeContourAlignment(
    const Ess& ess, ConstrainedPlanCache* cache, int max_candidates) {
  const int dims = ess.dims();
  const std::vector<bool> unlearned(static_cast<size_t>(dims), true);
  std::vector<ContourAlignmentInfo> infos;

  for (int i = 0; i < ess.num_contours(); ++i) {
    const std::vector<int64_t>& frontier = ess.FrontierLocations(i);
    ContourAlignmentInfo info;
    if (frontier.empty()) {
      infos.push_back(info);
      continue;
    }

    double best_penalty = std::numeric_limits<double>::infinity();
    bool native = false;
    for (int j = 0; j < dims && !native; ++j) {
      // Extreme coordinate along j, and the best coordinate reached by a
      // j-spilling optimal plan.
      int ext = -1;
      int spill_max = -1;
      for (int64_t lin : frontier) {
        const GridLoc loc = ess.FromLinear(lin);
        const int c = loc[static_cast<size_t>(j)];
        ext = std::max(ext, c);
        if (ess.OptimalPlan(lin)->SpillDimension(unlearned) == j) {
          spill_max = std::max(spill_max, c);
        }
      }
      if (spill_max == ext) {
        native = true;
        best_penalty = 1.0;
        break;
      }
      // Cost of inducing alignment along j: cheapest replacement at an
      // extreme location, relative to that location's optimal cost.
      std::vector<int64_t> ext_locs;
      for (int64_t lin : frontier) {
        if (ess.FromLinear(lin)[static_cast<size_t>(j)] == ext) {
          ext_locs.push_back(lin);
        }
      }
      std::sort(ext_locs.begin(), ext_locs.end(),
                [&](int64_t a, int64_t b) {
                  return ess.OptimalCost(a) < ess.OptimalCost(b);
                });
      if (static_cast<int>(ext_locs.size()) > max_candidates) {
        ext_locs.resize(static_cast<size_t>(max_candidates));
      }
      for (int64_t lin : ext_locs) {
        const ConstrainedPlanCache::Entry& e = cache->Get(lin, j, unlearned);
        if (e.plan == nullptr) continue;
        best_penalty = std::min(best_penalty, e.cost / ess.OptimalCost(lin));
      }
    }
    info.natively_aligned = native;
    info.min_induce_penalty = best_penalty;
    infos.push_back(info);
  }
  return infos;
}

}  // namespace robustqp
