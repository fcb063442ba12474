// Reusable parallel-execution layer: a fixed-size ThreadPool plus
// ParallelFor / ParallelMapReduce helpers with deterministic semantics.
//
// Determinism contract. ParallelFor partitions the index range into one
// contiguous block per worker; ParallelMapReduce partitions it into
// fixed-size chunks whose boundaries depend only on (total, chunk_size) —
// never on the worker count — and reduces the per-chunk partials strictly
// in chunk order after every chunk has completed. A caller whose per-index
// work is independent of the partitioning therefore gets bit-identical
// results at any thread count, including floating-point accumulations
// (the association order is fixed by the chunk grid, not the schedule).
//
// Fault-injection contract. ParallelFor and ParallelMapReduce run every
// block under the calling thread's fault injector (armed or not; see
// common/fault.h) and restore the worker's own afterwards, so a fan-out
// draws faults exactly as its caller would. They wait for their blocks, so
// the caller's injector outlives every use. Submit() does not propagate:
// a raw task runs under its worker's own (normally disarmed) state.
//
// Failure contract. Exceptions thrown inside a block/chunk are captured
// and converted to a non-OK Status returned to the caller once all work
// has drained; when several blocks throw, the one with the lowest index
// wins, again independent of the schedule. An exception escaping a raw
// Submit() task is caught by the worker loop (instead of terminating the
// process) and surfaced by the next Wait().

#ifndef ROBUSTQP_COMMON_THREAD_POOL_H_
#define ROBUSTQP_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/status.h"

namespace robustqp {

/// Converts a captured exception to a descriptive Status.
Status StatusFromException(const std::exception_ptr& e);

/// A fixed-size pool of worker threads consuming a FIFO task queue.
/// Tasks may be submitted from any thread; Wait() blocks until the queue
/// drains. Not reentrant: tasks must not themselves call Submit/Wait on
/// the same pool.
class ThreadPool {
 public:
  /// `num_threads` <= 0 picks DefaultThreads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues one task for execution on some worker. The task runs under
  /// the worker's own fault-injector state, not the submitting thread's.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished running. Returns the
  /// first failure among tasks whose exception escaped into the worker
  /// loop since the previous Wait (OK otherwise), clearing it.
  Status Wait();

  /// Hardware concurrency clamped to [1, 16] — the same policy the ESS
  /// builder has always used for its optimizer sweep.
  static int DefaultThreads();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  int64_t outstanding_ = 0;  // queued + currently running
  bool stop_ = false;
  /// First exception to escape a task since the last Wait().
  std::exception_ptr first_error_;
};

/// Splits [0, total) into one contiguous block per pool worker and runs
/// `body(worker, begin, end)` for each non-empty block. `worker` is the
/// block index in [0, pool->num_threads()) — stable across runs, so
/// callers can give each block its own scratch state (algorithm clone,
/// RNG, oracle). Blocks are disjoint, so `body` may write to shared
/// per-index storage without synchronization. Each block runs under the
/// caller's fault injector. Returns the lowest-index block's exception as
/// a Status after all blocks finish (OK when none threw).
Status ParallelFor(ThreadPool* pool, int64_t total,
                   const std::function<void(int worker, int64_t begin,
                                            int64_t end)>& body);

/// Maps fixed-size chunks of [0, total) on the pool and reduces the
/// partials in chunk order: acc = reduce(acc, map(chunk_i)) for i = 0, 1,
/// ... — the deterministic reduction described in the header comment.
/// Each chunk runs under the caller's fault injector.
/// Returns `init` unchanged when `total` <= 0, and the lowest-index
/// chunk's exception as a non-OK Result when any chunk threw.
template <typename T>
Result<T> ParallelMapReduce(
    ThreadPool* pool, int64_t total, int64_t chunk_size, T init,
    const std::function<T(int64_t begin, int64_t end)>& map,
    const std::function<T(T acc, T partial)>& reduce) {
  if (total <= 0) return init;
  if (chunk_size <= 0) chunk_size = 1;
  const int64_t num_chunks = (total + chunk_size - 1) / chunk_size;
  std::vector<T> partials(static_cast<size_t>(num_chunks));
  std::vector<std::exception_ptr> errors(static_cast<size_t>(num_chunks));
  FaultInjector* const faults = FaultArmingScope::Captured();
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t begin = c * chunk_size;
    const int64_t end = std::min<int64_t>(total, begin + chunk_size);
    pool->Submit([&, c, begin, end] {
      FaultArmingScope arming(faults);
      try {
        partials[static_cast<size_t>(c)] = map(begin, end);
      } catch (...) {
        errors[static_cast<size_t>(c)] = std::current_exception();
      }
    });
  }
  (void)pool->Wait();  // per-chunk capture above supersedes loop-level errors
  for (const std::exception_ptr& e : errors) {
    if (e) return StatusFromException(e);
  }
  T acc = std::move(init);
  for (int64_t c = 0; c < num_chunks; ++c) {
    acc = reduce(std::move(acc), std::move(partials[static_cast<size_t>(c)]));
  }
  return acc;
}

}  // namespace robustqp

#endif  // ROBUSTQP_COMMON_THREAD_POOL_H_
