#include "server/request_options.h"

namespace robustqp {

bool ParseRobustnessMode(const std::string& name, RobustnessMode* out) {
  if (name == "native") {
    *out = RobustnessMode::kNative;
  } else if (name == "pb") {
    *out = RobustnessMode::kPlanBouquet;
  } else if (name == "sb") {
    *out = RobustnessMode::kSpillBound;
  } else if (name == "ab") {
    *out = RobustnessMode::kAlignedBound;
  } else {
    return false;
  }
  return true;
}

Executor::Options RequestOptions::ToExecutorOptions() const {
  Executor::Options opts;
  opts.num_threads = num_threads;
  opts.use_compression = use_compression;
  opts.num_shards = num_shards;
  return opts;
}

Ess::Config RequestOptions::ToEssConfig() const {
  Ess::Config config;
  config.points_per_dim = points_per_dim;
  config.contour_cost_ratio = contour_cost_ratio;
  config.cost_model = cost_model;
  config.num_threads = ess_threads;
  return config;
}

}  // namespace robustqp
