#include "reference.h"

#include <atomic>
#include <map>
#include <mutex>
#include <thread>

#include "exec/executor.h"
#include "harness/true_selectivity.h"
#include "server/context_cache.h"
#include "server/query_service.h"
#include "server/tcp_server.h"

namespace e2e {

using robustqp::ContextCache;
using robustqp::Executor;
using robustqp::RequestOptions;
using robustqp::ServiceRequest;
using robustqp::ServiceResponse;

namespace {

/// cost_used of the plan the optimizer picks at the data's true
/// selectivities; 0 when the run fails.
double TrueOptimalCost(ContextCache* cache, const std::string& query) {
  const RequestOptions defaults;
  auto ctx = cache->Get(query, defaults.ToEssConfig());
  if (!ctx.ok()) return 0.0;
  const robustqp::Ess& ess = *(*ctx)->ess;
  const robustqp::EssPoint truth =
      robustqp::ComputeTrueSelectivities(*(*ctx)->catalog, *(*ctx)->query);
  const std::unique_ptr<robustqp::Plan> plan = ess.optimizer().Optimize(truth);
  Executor executor((*ctx)->catalog.get(), ess.config().cost_model,
                    defaults.ToExecutorOptions());
  auto run = executor.Execute(*plan, -1.0);
  return run.ok() && run->completed ? run->cost_used : 0.0;
}

}  // namespace

Reference ComputeReferences(const Workload& w, int threads) {
  Reference ref;
  const size_t n = w.pool.size();
  ref.expected.resize(n);
  ref.subopt.assign(n, -1.0);
  ContextCache cache(ContextCache::Options{0});

  std::map<std::string, double> true_opt;
  for (const Line& line : w.pool) {
    if (line.engine && !true_opt.count(line.query)) {
      true_opt[line.query] = TrueOptimalCost(&cache, line.query);
      if (true_opt[line.query] <= 0.0) {
        ref.failures.push_back("no true optimum for " + line.query);
      }
    }
  }

  std::mutex mu;
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      const Line& line = w.pool[i];
      if (line.feedback) continue;
      ServiceRequest req;
      const robustqp::Status parsed = robustqp::ParseSubmitLine(line.text, &req);
      ServiceResponse out;
      if (parsed.ok()) out = robustqp::QueryService::RunOneShot(req, &cache);
      Expected& e = ref.expected[i];
      e.payload = Payload(robustqp::FormatResponseLine(out));
      if (!parsed.ok() || !out.status.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        ref.failures.push_back("reference run of \"" + line.text + "\" failed: " +
                               (parsed.ok() ? out.status : parsed).ToString());
        continue;
      }
      // Native replies carry guarantee 0, which leaves them unchecked.
      if (!line.engine) e.guarantee = out.guarantee;
      const double opt = line.engine ? true_opt.at(line.query) : out.opt_cost;
      ref.subopt[i] = opt > 0.0 ? out.cost_used / opt : 0.0;
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  return ref;
}

}  // namespace e2e
