// Shared helpers for the per-table/figure benchmark binaries: a global
// row collector printed after the google-benchmark run, so each binary
// emits both timing output and the paper-style table it regenerates, and
// two flags every binary understands:
//   --threads <n>      worker threads for evaluation sweeps and for the
//                      batch engine's chunk-parallel scans (0 = all cores)
//   --exec-engine <e>  tuple | batch — which execution engine the
//                      engine-backed benchmarks construct (default batch)

#ifndef ROBUSTQP_BENCH_BENCH_UTIL_H_
#define ROBUSTQP_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "exec/executor.h"
#include "harness/evaluator.h"

namespace robustqp {
namespace bench {

/// Worker-thread count for evaluation sweeps, set by --threads.
/// 0 (default) = hardware concurrency.
inline int& Threads() {
  static int threads = 0;
  return threads;
}

/// EvalOptions honouring the --threads flag; pass to every Evaluate call.
inline EvalOptions EvalOpts() { return EvalOptions{Threads()}; }

/// Execution engine selected by --exec-engine (default batch).
inline Executor::Engine& ExecEngine() {
  static Executor::Engine engine = Executor::Engine::kBatch;
  return engine;
}

/// Executor::Options honouring --exec-engine and --threads; pass to every
/// engine-backed Executor construction.
inline Executor::Options ExecOpts() {
  Executor::Options options;
  options.engine = ExecEngine();
  options.num_threads = Threads();
  return options;
}

/// Consumes --threads=N / --threads N and --exec-engine=E /
/// --exec-engine E from argv (before benchmark::Initialize, which rejects
/// unknown flags).
inline void ParseThreads(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      Threads() = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < *argc) {
      Threads() = std::atoi(argv[++i]);
    } else if (std::strncmp(argv[i], "--exec-engine=", 14) == 0) {
      RQP_CHECK(Executor::ParseEngine(argv[i] + 14, &ExecEngine()));
    } else if (std::strcmp(argv[i], "--exec-engine") == 0 && i + 1 < *argc) {
      RQP_CHECK(Executor::ParseEngine(argv[++i], &ExecEngine()));
    } else {
      argv[out++] = argv[i];
    }
  }
  *argc = out;
}

/// Accumulates the figure/table rows produced inside benchmark bodies and
/// prints them once at exit.
class FigureCollector {
 public:
  explicit FigureCollector(std::vector<std::string> header)
      : header_(std::move(header)) {}

  void AddRow(std::vector<std::string> row) {
    rows_.push_back(std::move(row));
  }

  void Print(const std::string& title) const {
    std::cout << "\n=== " << title << " ===\n";
    TablePrinter table(header_);
    for (const auto& row : rows_) {
      table.AddRow(row);
    }
    table.Print(std::cout);
    std::cout.flush();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Standard main body: run benchmarks, then print the collected figure.
#define RQP_BENCH_MAIN(collector_expr, title)                       \
  int main(int argc, char** argv) {                                 \
    ::robustqp::bench::ParseThreads(&argc, argv);                   \
    ::benchmark::Initialize(&argc, argv);                           \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {     \
      return 1;                                                     \
    }                                                               \
    ::benchmark::RunSpecifiedBenchmarks();                          \
    ::benchmark::Shutdown();                                        \
    (collector_expr).Print(title);                                  \
    return 0;                                                       \
  }

}  // namespace bench
}  // namespace robustqp

#endif  // ROBUSTQP_BENCH_BENCH_UTIL_H_
