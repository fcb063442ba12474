// Unit tests for src/common: Status/Result, Rng/Zipf, LogAxis, TablePrinter,
// and the shared fan-out pool (ParallelFor), whose thread-count test drives
// the executor, PlanBouquet and the evaluator over it.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log_grid.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/planbouquet.h"
#include "core/spillbound.h"
#include "exec/executor.h"
#include "harness/evaluator.h"
#include "server/context_cache.h"

namespace robustqp {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad arg");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad arg");
}

TEST(StatusTest, BudgetExhaustedIsDistinctCode) {
  Status s = Status::BudgetExhausted("scan");
  EXPECT_EQ(s.code(), StatusCode::kBudgetExhausted);
  EXPECT_NE(s.code(), StatusCode::kInternal);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kUnsupported,
        StatusCode::kInternal, StatusCode::kBudgetExhausted}) {
    EXPECT_STRNE(StatusCodeToString(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("x"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MoveValue) {
  Result<std::string> r(std::string("hello"));
  std::string v = r.MoveValue();
  EXPECT_EQ(v, "hello");
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000000), b.UniformInt(0, 1000000));
  }
}

TEST(RngTest, UniformIntRespectsRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(RngTest, UniformDoubleRespectsRange) {
  Rng rng(2);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.UniformDouble(0.25, 0.75);
    EXPECT_GE(v, 0.25);
    EXPECT_LT(v, 0.75);
  }
}

TEST(ZipfTest, RanksWithinDomain) {
  Rng rng(3);
  ZipfSampler z(100, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const int64_t r = z.Sample(&rng);
    EXPECT_GE(r, 1);
    EXPECT_LE(r, 100);
  }
}

TEST(ZipfTest, SkewFavoursLowRanks) {
  Rng rng(4);
  ZipfSampler z(1000, 1.2);
  std::map<int64_t, int> counts;
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[z.Sample(&rng)];
  // Rank 1 should dominate rank 100 heavily under theta=1.2.
  EXPECT_GT(counts[1], counts[100] * 5);
}

TEST(ZipfTest, ThetaNearZeroIsNearlyUniform) {
  Rng rng(5);
  ZipfSampler z(10, 0.01);
  std::map<int64_t, int> counts;
  for (int i = 0; i < 50000; ++i) ++counts[z.Sample(&rng)];
  for (int64_t r = 1; r <= 10; ++r) {
    EXPECT_GT(counts[r], 3000);
    EXPECT_LT(counts[r], 7000);
  }
}

TEST(LogAxisTest, EndpointsExact) {
  LogAxis axis(1e-5, 20);
  EXPECT_DOUBLE_EQ(axis.value(0), 1e-5);
  EXPECT_DOUBLE_EQ(axis.value(19), 1.0);
  EXPECT_EQ(axis.points(), 20);
}

TEST(LogAxisTest, StrictlyIncreasing) {
  LogAxis axis(1e-6, 50);
  for (int i = 1; i < axis.points(); ++i) {
    EXPECT_GT(axis.value(i), axis.value(i - 1));
  }
}

TEST(LogAxisTest, GeometricSpacing) {
  LogAxis axis(1e-4, 5);
  // Ratio between consecutive points should be constant (=10 here).
  for (int i = 1; i < 5; ++i) {
    EXPECT_NEAR(axis.value(i) / axis.value(i - 1), 10.0, 1e-9);
  }
}

TEST(LogAxisTest, FloorIndex) {
  LogAxis axis(1e-4, 5);  // 1e-4, 1e-3, 1e-2, 1e-1, 1
  EXPECT_EQ(axis.FloorIndex(5e-3), 1);
  EXPECT_EQ(axis.FloorIndex(1e-3), 1);
  EXPECT_EQ(axis.FloorIndex(1.0), 4);
  EXPECT_EQ(axis.FloorIndex(1e-5), -1);
}

TEST(LogAxisTest, CeilIndex) {
  LogAxis axis(1e-4, 5);
  EXPECT_EQ(axis.CeilIndex(5e-3), 2);
  EXPECT_EQ(axis.CeilIndex(1e-2), 2);
  EXPECT_EQ(axis.CeilIndex(2.0), 5);
}

TEST(LogAxisTest, NearestIndexClampsAndRounds) {
  LogAxis axis(1e-4, 5);
  EXPECT_EQ(axis.NearestIndex(1e-9), 0);
  EXPECT_EQ(axis.NearestIndex(5.0), 4);
  EXPECT_EQ(axis.NearestIndex(9e-3), 2);   // log-nearer to 1e-2
  EXPECT_EQ(axis.NearestIndex(2e-3), 1);   // log-nearer to 1e-3
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"a", "long_header"});
  t.AddRow({"xxxxx", "1"});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("| a     | long_header |"), std::string::npos);
  EXPECT_NE(out.find("| xxxxx | 1           |"), std::string::npos);
}

TEST(TablePrinterTest, NumTrimsTrailingZeros) {
  EXPECT_EQ(TablePrinter::Num(12.50), "12.5");
  EXPECT_EQ(TablePrinter::Num(130.0), "130");
  EXPECT_EQ(TablePrinter::Num(0.04), "0.04");
  EXPECT_EQ(TablePrinter::Num(3.14159, 3), "3.142");
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
  // The pool stays usable after a Wait.
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 101);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  std::vector<int> hits(1000, 0);
  ParallelFor(3, 1000, [&](int worker, int64_t begin, int64_t end) {
    EXPECT_GE(worker, 0);
    EXPECT_LT(worker, 3);
    for (int64_t i = begin; i < end; ++i) ++hits[static_cast<size_t>(i)];
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, ParallelForEmptyRangeIsANoop) {
  int calls = 0;
  ParallelFor(4, 0, [&](int, int64_t, int64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  // Fewer indices than the cap: blocks are skipped, never empty.
  std::atomic<int> covered{0};
  ParallelFor(4, 2, [&](int, int64_t begin, int64_t end) {
    EXPECT_LT(begin, end);
    covered += static_cast<int>(end - begin);
  });
  EXPECT_EQ(covered.load(), 2);
}

TEST(ThreadPoolTest, ParallelForConvertsExceptionToStatus) {
  const Status st = ParallelFor(4, 100, [&](int, int64_t begin, int64_t) {
    if (begin == 0) throw std::runtime_error("boom");
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("boom"), std::string::npos);
  // The shared pool survives a throwing batch.
  std::atomic<int> count{0};
  const Status ok = ParallelFor(4, 8, [&](int, int64_t begin, int64_t end) {
    count += static_cast<int>(end - begin);
  });
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(count.load(), 8);
}

TEST(ThreadPoolTest, WaitSurfacesExceptionEscapingARawTask) {
  // Regression: an exception escaping a Submit()ed task used to escape the
  // worker loop and terminate the process via std::terminate.
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("worker blew up"); });
  const Status st = pool.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_NE(st.message().find("worker blew up"), std::string::npos);
  // The error is cleared by Wait and the pool stays usable.
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPoolTest, ParallelForRunsMoreBlocksThanSharedWorkers) {
  // More blocks than the shared pool has workers: the caller and the
  // borrowed workers take blocks until none is left, each exactly once.
  const int cap = 4 * ThreadPool::Shared().num_threads() + 3;
  const int blocks = ParallelBlocks(cap, 1000);
  EXPECT_EQ(blocks, cap);
  std::vector<std::atomic<int>> runs(static_cast<size_t>(blocks));
  std::atomic<int64_t> sum{0};
  const Status st =
      ParallelFor(cap, 1000, [&](int worker, int64_t begin, int64_t end) {
        ++runs[static_cast<size_t>(worker)];
        for (int64_t i = begin; i < end; ++i) sum += i;
      });
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(sum.load(), 999 * 1000 / 2);
  for (const std::atomic<int>& r : runs) EXPECT_EQ(r.load(), 1);
}

TEST(ThreadPoolTest, ParallelForBlocksDependOnlyOnTheCap) {
  // Block `worker` is always [worker * size, ...), size = ceil(total / cap),
  // whichever thread runs it.
  for (const int cap : {1, 3, 4, 7}) {
    const int64_t total = 50;
    const int64_t size = (total + cap - 1) / cap;
    std::vector<std::pair<int64_t, int64_t>> got(
        static_cast<size_t>(ParallelBlocks(cap, total)));
    ASSERT_TRUE(ParallelFor(cap, total, [&](int worker, int64_t begin,
                                            int64_t end) {
                  got[static_cast<size_t>(worker)] = {begin, end};
                }).ok());
    for (size_t b = 0; b < got.size(); ++b) {
      const int64_t begin = static_cast<int64_t>(b) * size;
      EXPECT_EQ(got[b].first, begin) << "cap " << cap;
      EXPECT_EQ(got[b].second, std::min(total, begin + size)) << "cap " << cap;
    }
  }
}

TEST(ThreadPoolTest, ParallelBlocksCountsNonEmptyBlocks) {
  EXPECT_EQ(ParallelBlocks(4, 0), 0);
  EXPECT_EQ(ParallelBlocks(4, -3), 0);
  EXPECT_EQ(ParallelBlocks(4, 2), 2);
  EXPECT_EQ(ParallelBlocks(3, 1000), 3);
  EXPECT_EQ(ParallelBlocks(4, 5), 3);  // blocks of 2: {0,1} {2,3} {4}
  EXPECT_EQ(ParallelBlocks(1, 1000), 1);
  EXPECT_EQ(ParallelBlocks(0, 1000), ThreadPool::DefaultThreads());
}

TEST(ThreadPoolTest, ParallelForLowestBlockExceptionWins) {
  const Status st = ParallelFor(10, 100, [](int, int64_t begin, int64_t) {
    if (begin == 30) throw std::runtime_error("block-3");
    if (begin == 70) throw std::runtime_error("block-7");
  });
  ASSERT_FALSE(st.ok());
  // Lowest block index wins, independent of completion order.
  EXPECT_NE(st.message().find("block-3"), std::string::npos);
}

/// ParallelFor at a cap of 1 (every block on the caller) and of 4 (blocks
/// on the caller and borrowed shared-pool workers).
class SharedPoolTest : public ::testing::TestWithParam<int> {};

TEST_P(SharedPoolTest, NestedParallelForCompletes) {
  // Every outer block fans out again. With per-pool waiting this
  // deadlocks once every worker blocks in a nested Wait; here each caller
  // runs its own blocks and waits only for blocks already running.
  const int cap = GetParam();
  constexpr int64_t kOuter = 16;
  constexpr int64_t kInner = 64;
  std::vector<int> hits(static_cast<size_t>(kOuter * kInner), 0);
  const Status st = ParallelFor(cap, kOuter, [&](int, int64_t ob, int64_t oe) {
    for (int64_t o = ob; o < oe; ++o) {
      const Status inner =
          ParallelFor(cap, kInner, [&](int, int64_t ib, int64_t ie) {
            for (int64_t i = ib; i < ie; ++i) {
              ++hits[static_cast<size_t>(o * kInner + i)];
            }
          });
      if (!inner.ok()) throw std::runtime_error(inner.ToString());
    }
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST_P(SharedPoolTest, ConcurrentCallersEachCoverTheirRangeOnce) {
  const int cap = GetParam();
  constexpr int kCallers = 8;
  constexpr int64_t kTotal = 5000;
  std::vector<std::vector<int>> hits(kCallers, std::vector<int>(kTotal, 0));
  std::vector<Status> status(kCallers);
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      std::vector<int>& mine = hits[static_cast<size_t>(c)];
      status[static_cast<size_t>(c)] =
          ParallelFor(cap, kTotal, [&](int, int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
              ++mine[static_cast<size_t>(i)];
            }
          });
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    EXPECT_TRUE(status[static_cast<size_t>(c)].ok()) << "caller " << c;
    for (int h : hits[static_cast<size_t>(c)]) {
      ASSERT_EQ(h, 1) << "caller " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Caps, SharedPoolTest, ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "cap" + std::to_string(info.param);
                         });

/// The calling process's thread count from /proc/self/status; -1 where
/// the file is unavailable.
int ProcessThreads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

TEST(SharedPoolThreadsTest, FanOutsStartNoThreads) {
  if (ProcessThreads() < 0) GTEST_SKIP() << "no /proc/self/status";
  ContextCache cache(ContextCache::Options{4});
  Ess::Config config;
  config.points_per_dim = 12;
  config.num_threads = 4;
  const std::shared_ptr<const ContextCache::Entry> ctx =
      *cache.Get("2D_Q91", config);
  const Ess& ess = *ctx->ess;
  // A 4D bouquet's coverage fills are large enough to fan out.
  config.points_per_dim = 8;
  const std::shared_ptr<const ContextCache::Entry> ctx4d =
      *cache.Get("4D_Q91", config);

  // The first fan-out starts the shared pool; nothing after it may add a
  // thread. A pool that lives for one call only is gone again when the
  // call returns, so a sampler watches the count while the work runs.
  ASSERT_TRUE(ParallelFor(4, 8, [](int, int64_t, int64_t) {}).ok());
  std::atomic<bool> done{false};
  std::atomic<int> peak{0};
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak.load(), ProcessThreads());
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  const int threads = ProcessThreads();

  Executor::Options options;
  options.num_threads = 8;
  const Plan& plan = *ess.pool().plans().front();
  for (int run = 0; run < 20; ++run) {
    const Executor executor(ctx->catalog.get(), ess.config().cost_model,
                            options);
    const Result<ExecutionResult> r = executor.Execute(plan, -1.0);
    EXPECT_TRUE(r.ok() && r->completed);
  }
  for (int build = 0; build < 3; ++build) {
    const PlanBouquet bouquet(ctx4d->ess.get());
    EXPECT_GT(bouquet.BouquetSize(), 0);
  }
  EvalOptions eval;
  eval.num_threads = 4;
  const SpillBound sb(&ess);
  EXPECT_GE(Evaluate(sb, ess, eval).mso, 1.0);
  const int after = ProcessThreads();
  done = true;
  sampler.join();
  EXPECT_EQ(peak.load(), threads);
  EXPECT_EQ(after, threads);
}

}  // namespace
}  // namespace robustqp
