// Reusable parallel-execution layer: a fixed-size ThreadPool, the one
// process-wide fan-out pool, and the ParallelFor helper over it.
//
// Fan-out model. Every fan-out in the process runs on ThreadPool::Shared(),
// DefaultThreads() workers started on first use and never stopped, so no
// fan-out creates OS threads. ParallelFor takes a cap on its blocks, not a
// pool. The calling thread runs blocks itself beside the helper tasks it
// queues on the shared pool, and it waits only for its own blocks that a
// helper has already started. ParallelFor is therefore reentrant: a block
// may itself call ParallelFor, and concurrent fan-outs from any number of
// threads neither deadlock nor wait on each other's work. A helper that
// dequeues after every block was taken returns at once.
//
// Determinism contract. ParallelFor's block boundaries depend only on
// (cap, total), never on which thread runs a block, and `worker` is the
// block index. A caller whose per-index work is independent of the
// partitioning therefore gets bit-identical results at any cap; a caller
// that keeps per-block scratch gets the same blocks on every run.
//
// Fault-injection contract. ParallelFor runs every block under the calling
// thread's fault injector (armed or not; see common/fault.h) and restores
// the worker's own afterwards, so a fan-out draws faults exactly as its
// caller would. It returns only after its blocks finish, so the caller's
// injector outlives every use. Submit() does not propagate: a raw task
// runs under its worker's own (normally disarmed) state.
//
// Failure contract. Exceptions thrown inside a block are captured and
// converted to a non-OK Status returned to the caller once all its blocks
// have finished; when several blocks throw, the one with the lowest index
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

#include "common/status.h"

namespace robustqp {

/// Converts a captured exception to a descriptive Status.
Status StatusFromException(const std::exception_ptr& e);

/// A fixed-size pool of worker threads consuming a FIFO task queue.
/// Tasks may be submitted from any thread; Wait() blocks until the queue
/// drains. Wait() is not reentrant: a task must not Wait on its own pool.
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

  /// Hardware concurrency clamped to [1, 16].
  static int DefaultThreads();

  /// The process-wide fan-out pool of DefaultThreads() workers that
  /// ParallelFor borrows. Started by the first call and never destroyed,
  /// so a fan-out during static destruction at exit still finds it.
  static ThreadPool& Shared();

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

/// The number of non-empty blocks ParallelFor(max_blocks, total, ...)
/// runs: the cap (`max_blocks` <= 0 means DefaultThreads()), fewer when
/// `total` is too small to fill it, and 0 when `total` <= 0. Callers size
/// per-block scratch with it.
int ParallelBlocks(int max_blocks, int64_t total);

/// Splits [0, total) into at most `max_blocks` contiguous blocks
/// (`max_blocks` <= 0 means DefaultThreads(); 1 runs the whole range on
/// the calling thread) and runs `body(worker, begin, end)` for each
/// non-empty block, on the calling thread and on up to
/// Shared().num_threads() borrowed workers. `worker` is the block index
/// in [0, ParallelBlocks(max_blocks, total)) — stable across runs, so
/// callers can give each block its own scratch state (algorithm clone,
/// RNG, oracle). Blocks are disjoint, so `body` may write to shared
/// per-index storage without synchronization. Each block runs under the
/// caller's fault injector. Returns the lowest-index block's exception as
/// a Status after all blocks finish (OK when none threw).
Status ParallelFor(int max_blocks, int64_t total,
                   const std::function<void(int worker, int64_t begin,
                                            int64_t end)>& body);

}  // namespace robustqp

#endif  // ROBUSTQP_COMMON_THREAD_POOL_H_
