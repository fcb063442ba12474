// bench_e2e — end-to-end serving benchmark for robustqp_server.
//
//   bench_e2e --workload engine_mix [--seed 1] [--seconds 15] [--trace 0]
//   bench_e2e --workload all                # every workload, one row each
//   bench_e2e --workload sim_sweep --traced # per-layer metrics
//
// For each workload: computes every pool line's expected reply in-process,
// then spawns robustqp_server --threads 4 --cache-capacity <16 or 8> and
// times set-up until every warm-up request has answered (seven times; the
// median is setup_s), runs 3 s of untimed closed-loop load from 4 client
// threads over 4 connections, and measures for --seconds. Every reply is
// checked against its expectation. With --trace 1 the measured window is
// halved and the other half replays the stream in-process with per-layer
// timing (traced.h); the metrics printed are then the per-layer ones.
//
// Prints a stamp line, one row per workload with every metric by name and
// unit, and, last, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit status: 0 when every check passed, 1 when one failed, 2 when the
// run could not be made.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "load.h"
#include "reference.h"
#include "stats.h"
#include "traced.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int kClients = 4;
constexpr int kSetups = 7;
constexpr double kWarmLoadSeconds = 3.0;
/// The traced replay covers at most this prefix of the request stream.
constexpr int kTraceRequests = 1000;

/// The per-layer metrics --trace 1 prints, with units; BENCHMARK.json's
/// per_layer list mirrors it. Layer-specific costs are shares of the
/// replica's wall time, so a layer a workload bypasses reads 0, not a
/// time.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    // From the untraced TCP run's replies and STATS.
    {"server.queue_ms.p50", "ms"},
    {"server.queue_ms.p99", "ms"},
    {"server.run_ms.p50", "ms"},
    {"server.run_ms.p99", "ms"},
    {"server.run_ms.p99.clean", "ms"},
    {"server.protocol_ms.p50", "ms"},
    {"context_cache.hit_rate", "fraction"},
    {"context_cache.evictions_per_kreq", "1/kreq"},
    {"context_cache.invalidations_per_kreq", "1/kreq"},
    {"feedback.hit_rate", "fraction"},
    {"feedback.warm_completion_rate", "fraction"},
    {"feedback.drift_per_kreq", "1/kreq"},
    {"fault.retries_per_req", "1/req"},
    // From the in-process references: too seed-dependent to bound.
    {"core.subopt_max", "ratio"},
    // From the traced replay.
    {"server.self_share", "fraction"},
    {"context_cache.self_share", "fraction"},
    {"ess.self_share", "fraction"},
    {"feedback.self_share", "fraction"},
    {"optimizer.self_share", "fraction"},
    {"exec.self_share", "fraction"},
    {"core.self_share", "fraction"},
    {"fault.self_share", "fraction"},
    {"trace.requests", "count"},
    {"trace.request_ms", "ms"},
    {"trace.unattributed_frac", "fraction"},
    {"trace.overhead_frac", "fraction"},
    {"context_cache.get_hit_us", "us"},
    {"context_cache.get_miss_ms", "ms"},
    {"ess.optimizer_calls_per_build", "count"},
    {"ess.build_us_per_call", "us"},
    {"optimizer.recost_share", "fraction"},
    {"optimizer.optimize_share", "fraction"},
    {"exec.full_share", "fraction"},
    {"exec.spill_share", "fraction"},
    {"exec.mcost_per_s.resident", "Mcost/s"},
    {"exec.mcost_per_s.mmap", "Mcost/s"},
    {"exec.mcost_per_s.spread", "ratio"},
    {"core.discovery_ms", "ms"},
    {"core.self_ms", "ms"},
    {"core.construct_ms", "ms"},
    {"core.executions_per_req", "count"},
    {"core.spill_frac", "fraction"},
    {"core.wasted_cost_frac", "fraction"},
    {"feedback.get_share", "fraction"},
    {"feedback.observe_share", "fraction"},
    {"storage.catalog_build_ms.resident", "ms"},
    {"storage.catalog_build_ms.mmap", "ms"},
};

struct Options {
  std::string server;
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // printed in the row, not in the JSON
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

using Clock = std::chrono::steady_clock;

/// One set-up: spawn, connect, answer every warm-up request. False when
/// the server cannot be started or reached; wrong warm-up replies only add
/// to the failures.
bool SetUp(const Options& opt, const Workload& w, const Reference& ref,
           ServerProcess* server, std::vector<Connection>* conns,
           Connection* control, double* seconds, Outcome* out) {
  const auto t0 = Clock::now();
  std::string err;
  if (!server->Start(opt.server,
                     {"--threads", "4", "--cache-capacity",
                      std::to_string(w.cache_capacity)},
                     &err)) {
    out->failures.push_back(err);
    return false;
  }
  for (Connection& c : *conns) {
    if (!c.Connect(server->port())) {
      out->failures.push_back("cannot connect to the server");
      return false;
    }
  }
  if (!control->Connect(server->port())) {
    out->failures.push_back("cannot connect to the server");
    return false;
  }
  WarmUp(w, ref.expected, conns, &out->failures);
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return true;
}

/// Runs one workload; false when the run could not be made at all.
/// `layer` starts with the process-wide catalog build times.
bool RunWorkload(const Options& opt, const std::string& name, Metrics layer,
                 Outcome* out) {
  const Workload w = *MakeWorkload(name, opt.seed);

  const Reference ref = ComputeReferences(w, kClients);
  out->failures.insert(out->failures.end(), ref.failures.begin(),
                       ref.failures.end());

  ServerProcess server;
  std::vector<Connection> conns(kClients);
  Connection control;
  std::vector<double> setups;
  for (int k = 0; k < (opt.trace ? 1 : kSetups); ++k) {
    if (k > 0) {
      for (Connection& c : conns) c.Close();
      control.Close();
      if (!server.Stop()) {
        out->failures.push_back("server did not exit cleanly after set-up");
      }
    }
    double s = 0.0;
    if (!SetUp(opt, w, ref, &server, &conns, &control, &s, out)) return false;
    setups.push_back(s);
  }

  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const LoadResult load = RunLoad(w, opt.seed, ref.expected, &conns, &control,
                                  server.pid(), kWarmLoadSeconds, window);
  const double rss_mb = ProcPeakRssMb(server.pid());
  for (Connection& c : conns) c.Close();
  control.Close();
  if (!server.Stop()) {
    out->failures.push_back("server did not exit cleanly");
  }
  out->failures.insert(out->failures.end(), load.failures.begin(),
                       load.failures.end());

  // The measured window: requests sent inside it, completions inside it.
  const double ws = load.window_start, we = load.window_end;
  std::vector<double> latency, queue, run, run_clean, protocol;
  int64_t completed = 0, hits = 0, retries = 0;
  int64_t fb_requests = 0, fb_hits = 0, fb_warm_done = 0, drifts = 0;
  for (const Sample& s : load.samples) {
    if (s.ok && s.done_s >= ws && s.done_s <= we) ++completed;
    if (s.sent_s < ws || s.sent_s >= we) continue;
    ++out->attempted;
    if (!s.ok) {
      ++out->failed;
      continue;
    }
    const Line& line = w.pool[static_cast<size_t>(s.line)];
    latency.push_back(s.latency_ms);
    queue.push_back(s.queue_ms);
    run.push_back(s.run_ms);
    if (line.clean()) run_clean.push_back(s.run_ms);
    protocol.push_back(s.latency_ms - s.queue_ms - s.run_ms);
    hits += s.cache_hit;
    retries += s.retries;
    if (line.feedback) {
      ++fb_requests;
      fb_hits += s.fb_hit;
      fb_warm_done += s.warm_done;
      drifts += s.drift;
    }
  }
  if (out->attempted == 0) {
    out->failures.push_back("no request was sent in the measured window");
    out->attempted = 1;
    out->failed = 1;
  }
  const double n_ok = static_cast<double>(latency.size());
  auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  double subopt_sum = 0.0, subopt_max = 0.0;
  int subopt_n = 0;
  for (double v : ref.subopt) {
    if (v < 0.0) continue;
    subopt_sum += v;
    subopt_max = std::max(subopt_max, v);
    ++subopt_n;
  }

  out->notes.push_back("samples=" + std::to_string(latency.size()));
  out->notes.push_back("error_rate=" +
                       std::to_string(ratio(static_cast<double>(out->failed),
                                            static_cast<double>(out->attempted))) +
                       " fraction");
  if (!opt.trace) {
    out->metrics = {
        {"qps", completed / (we - ws), "req/s"},
        {"p50_ms", Median(latency), "ms"},
        {"p99_ms", Quantile(latency, 0.99), "ms"},
        {"setup_s", Median(setups), "s"},
        {"server_rss_mb", rss_mb, "MB"},
        {"server_cpu_ms_per_req",
         ratio((load.cpu_end_s - load.cpu_start_s) * 1e3,
               static_cast<double>(completed)),
         "ms"},
        {"subopt_mean", ratio(subopt_sum, subopt_n), "ratio"},
    };
    return true;
  }

  auto stat_delta = [&](const std::string& key) {
    auto a = load.stats_start.find(key), b = load.stats_end.find(key);
    return a == load.stats_start.end() || b == load.stats_end.end()
               ? 0.0
               : static_cast<double>(b->second - a->second);
  };
  const double kreq = n_ok / 1e3;
  layer["server.queue_ms.p50"] = Median(queue);
  layer["server.queue_ms.p99"] = Quantile(queue, 0.99);
  layer["server.run_ms.p50"] = Median(run);
  layer["server.run_ms.p99"] = Quantile(run, 0.99);
  layer["server.run_ms.p99.clean"] = Quantile(run_clean, 0.99);
  layer["server.protocol_ms.p50"] = Median(protocol);
  layer["context_cache.hit_rate"] = ratio(static_cast<double>(hits), n_ok);
  layer["context_cache.evictions_per_kreq"] =
      ratio(stat_delta("evictions"), kreq);
  layer["context_cache.invalidations_per_kreq"] =
      ratio(stat_delta("invalidations"), kreq);
  layer["feedback.hit_rate"] = ratio(static_cast<double>(fb_hits),
                                     static_cast<double>(fb_requests));
  layer["feedback.warm_completion_rate"] = ratio(
      static_cast<double>(fb_warm_done), static_cast<double>(fb_requests));
  layer["feedback.drift_per_kreq"] = ratio(static_cast<double>(drifts), kreq);
  layer["fault.retries_per_req"] = ratio(static_cast<double>(retries), n_ok);
  layer["core.subopt_max"] = subopt_max;
  RunTraced(w, opt.seed, kClients, kTraceRequests, opt.seconds / 2, &layer,
            &out->failures);
  for (const auto& [key, unit] : kLayerMetrics) {
    auto it = layer.find(key);
    if (it == layer.end()) {
      out->failures.push_back("layer metric " + std::string(key) + " missing");
      continue;
    }
    out->metrics.push_back({key, it->second, unit});
  }
  return true;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", std::isfinite(v) ? v : 0.0);
  return buf;
}

int Usage(const char* msg) {
  std::cerr << msg << "\nusage: bench_e2e --workload <";
  for (const std::string& n : WorkloadNames()) std::cerr << n << "|";
  std::cerr << "all> [--seed n] [--seconds s] [--trace 0|1] [--traced]"
               " [--server path]\n";
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> const char* {
      ++i;
      return value;
    };
    if (arg == "--traced") {
      opt.trace = true;
    } else if (value == nullptr) {
      return Usage(("missing value for " + arg).c_str());
    } else if (arg == "--workload") {
      opt.workload = take();
    } else if (arg == "--seed") {
      opt.seed = std::strtoull(take(), nullptr, 10);
    } else if (arg == "--seconds") {
      opt.seconds = std::atof(take());
    } else if (arg == "--trace") {
      opt.trace = std::string(take()) != "0";
    } else if (arg == "--server") {
      opt.server = take();
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(opt.seconds > 0.0)) return Usage("--seconds must be positive");
  std::vector<std::string> names;
  if (opt.workload == "all") {
    names = WorkloadNames();
  } else if (MakeWorkload(opt.workload, opt.seed)) {
    names = {opt.workload};
  } else {
    return Usage(("unknown workload \"" + opt.workload + "\"").c_str());
  }
  if (opt.server.empty()) {
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof(self) - 1);
    if (n <= 0) return Usage("cannot locate robustqp_server; pass --server");
    const std::string exe(self, static_cast<size_t>(n));
    opt.server = exe.substr(0, exe.rfind('/') + 1) + "robustqp_server";
  }
  if (::access(opt.server.c_str(), X_OK) != 0) {
    return Usage(("no robustqp_server at " + opt.server).c_str());
  }

  char host[256] = "unknown";
  ::gethostname(host, sizeof(host) - 1);
  std::cout << "# bench_e2e commit=" << E2E_COMMIT
            << " source=" << E2E_SOURCE_DIGEST
            << " build_type=" << E2E_BUILD_TYPE << " compiler=" << E2E_COMPILER
            << " nproc=" << std::thread::hardware_concurrency()
            << " host=" << host << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << (opt.trace ? 1 : 0)
            << std::endl;

  // The catalogs are built once per process, before anything else uses
  // them, and shared by every workload.
  Metrics catalogs;
  if (opt.trace) TimeCatalogBuilds(&catalogs);

  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::ostringstream metrics;
  for (const std::string& name : names) {
    Outcome out;
    const bool made = RunWorkload(opt, name, catalogs, &out);
    for (const std::string& f : out.failures) std::cerr << name << ": " << f << "\n";
    if (!made) {
      std::cerr << name << ": the run could not be made\n";
      return 2;
    }
    correct = correct && out.failures.empty() && out.failed == 0;
    attempted += out.attempted;
    failed += out.failed;
    std::cout << name;
    for (const Metric& m : out.metrics) {
      std::cout << "  " << m.name << "=" << Number(m.value) << " " << m.unit;
      const std::string key = names.size() > 1 ? name + "." + m.name : m.name;
      metrics << (metrics.tellp() > 0 ? ", " : "") << "\"" << key
              << "\": {\"value\": " << Number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
    }
    for (const std::string& note : out.notes) std::cout << "  " << note;
    std::cout << "  correct=" << (out.failures.empty() && out.failed == 0)
              << std::endl;
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": {" << metrics.str() << "}}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
