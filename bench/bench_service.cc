// Service throughput benchmark: a warm QueryService driven through the
// in-process session API by 1 / 4 / 16 concurrent clients, each running a
// closed loop of Submit+Wait over a mixed request stream. Reports
// queries/sec plus client-observed p50/p99 latency per client count —
// the numbers BENCH_service.json records and the perf-smoke CI gate
// watches.
//
// The request mix is the cheap simulated-oracle kind on small grids: the
// point is the service layer's overhead and scaling (locking, admission,
// cache, response plumbing), not ESS build or engine scan time — contexts
// are pre-warmed outside the timed region. BM_ServiceChaosEngine swaps one
// request in four for an engine-backed chaos request (each arms its own
// worker thread), so it shows whether chaos requests run beside the clean
// ones or hold them up; it has no BENCH_service.json baseline.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "server/query_service.h"

namespace robustqp {
namespace {

/// The benchmark's request stream: modes and true locations vary so the
/// discovery work is not one memoized shape, but every request is cheap.
std::vector<ServiceRequest> RequestMix() {
  std::vector<ServiceRequest> mix;
  ServiceRequest base;
  base.query_id = "2D_Q91";
  base.options.points_per_dim = 10;
  base.options.ess_threads = 1;
  for (RobustnessMode mode :
       {RobustnessMode::kSpillBound, RobustnessMode::kPlanBouquet,
        RobustnessMode::kAlignedBound, RobustnessMode::kNative}) {
    for (const std::vector<double>& qa :
         {std::vector<double>{0.01, 0.02}, std::vector<double>{0.2, 0.4}}) {
      ServiceRequest r = base;
      r.mode = mode;
      r.qa = qa;
      mix.push_back(r);
    }
  }
  return mix;
}

/// RequestMix with every fourth request an engine-backed chaos request,
/// each with its own fault seed.
std::vector<ServiceRequest> ChaosEngineMix() {
  std::vector<ServiceRequest> mix = RequestMix();
  for (size_t i = 3; i < mix.size(); i += 4) {
    mix[i].mode = RobustnessMode::kSpillBound;
    mix[i].use_engine = true;
    mix[i].options.fault_spec = "exec.*:p=0.05";
    mix[i].options.fault_seed = i;
  }
  return mix;
}

double PercentileMs(std::vector<double> sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  const size_t idx = std::min(
      sorted_ms.size() - 1,
      static_cast<size_t>(p / 100.0 * static_cast<double>(sorted_ms.size())));
  return sorted_ms[idx];
}

void RunService(benchmark::State& state,
                const std::vector<ServiceRequest>& mix) {
  const int clients = static_cast<int>(state.range(0));
  // Enough per-iteration work that thread spawn and scheduler jitter do
  // not dominate the measurement (the CI gate allows 25% regression).
  constexpr int kRequestsPerClient = 128;

  QueryService::Options opts;
  opts.num_threads = 0;  // all cores — the serving configuration
  opts.queue_limit = 1024;
  QueryService service(opts);

  // Warm the context cache so the timed region measures serving, not the
  // one-time ESS build. Every request in a mix shares one context.
  {
    const int64_t session = *service.OpenSession();
    const int64_t id = *service.Submit(session, mix[0]);
    (void)*service.Wait(session, id);
    RQP_CHECK(service.CloseSession(session).ok());
  }

  std::mutex lat_mu;
  std::vector<double> latencies_ms;
  int64_t total_requests = 0;

  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        std::vector<double> local_ms;
        local_ms.reserve(kRequestsPerClient);
        const int64_t session = *service.OpenSession();
        for (int k = 0; k < kRequestsPerClient; ++k) {
          const ServiceRequest& req =
              mix[static_cast<size_t>(c * kRequestsPerClient + k) %
                  mix.size()];
          const auto t0 = std::chrono::steady_clock::now();
          const int64_t id = *service.Submit(session, req);
          const ServiceResponse resp = *service.Wait(session, id);
          const auto t1 = std::chrono::steady_clock::now();
          RQP_CHECK(resp.status.ok());
          local_ms.push_back(
              std::chrono::duration<double, std::milli>(t1 - t0).count());
        }
        RQP_CHECK(service.CloseSession(session).ok());
        std::lock_guard<std::mutex> lock(lat_mu);
        latencies_ms.insert(latencies_ms.end(), local_ms.begin(),
                            local_ms.end());
      });
    }
    for (auto& t : threads) t.join();
    total_requests += static_cast<int64_t>(clients) * kRequestsPerClient;
  }

  std::sort(latencies_ms.begin(), latencies_ms.end());
  state.SetItemsProcessed(total_requests);
  state.counters["qps"] = benchmark::Counter(
      static_cast<double>(total_requests), benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = PercentileMs(latencies_ms, 50.0);
  state.counters["p99_ms"] = PercentileMs(latencies_ms, 99.0);
}

void BM_Service(benchmark::State& state) { RunService(state, RequestMix()); }
BENCHMARK(BM_Service)
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_ServiceChaosEngine(benchmark::State& state) {
  RunService(state, ChaosEngineMix());
}
BENCHMARK(BM_ServiceChaosEngine)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
}  // namespace robustqp

BENCHMARK_MAIN();
