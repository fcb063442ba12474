#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/fault.h"

namespace robustqp {

Status StatusFromException(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return Status::Internal(std::string("task failed: ") + ex.what());
  } catch (...) {
    return Status::Internal("task failed with a non-std exception");
  }
}

int ThreadPool::DefaultThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(hw, 16));
}

ThreadPool& ThreadPool::Shared() {
  // Deliberately leaked: its workers stay parked at exit instead of being
  // joined while other static destructors may still fan out.
  static ThreadPool* const shared = new ThreadPool(DefaultThreads());
  return *shared;
}

ThreadPool::ThreadPool(int num_threads) {
  const int n = num_threads > 0 ? num_threads : DefaultThreads();
  workers_.reserve(static_cast<size_t>(n));
  for (int t = 0; t < n; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    stop_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    RQP_CHECK(!stop_);
    tasks_.push(std::move(task));
    ++outstanding_;
  }
  task_ready_.notify_one();
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [this] { return outstanding_ == 0; });
  if (first_error_ == nullptr) return Status::OK();
  std::exception_ptr e;
  std::swap(e, first_error_);
  return StatusFromException(e);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_ready_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stop_ with a drained queue
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    // An exception escaping a raw task must not terminate the process:
    // capture the first one for the next Wait() to surface.
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      if (--outstanding_ == 0) idle_.notify_all();
    }
  }
}

namespace {

/// Indices per block: `total` over the cap, rounded up.
int64_t BlockSize(int max_blocks, int64_t total) {
  const int64_t cap =
      max_blocks > 0 ? max_blocks : ThreadPool::DefaultThreads();
  return (total + cap - 1) / cap;
}

/// One ParallelFor call's blocks, shared with the helper tasks it queues.
/// A helper may first run after the call has returned; it then finds every
/// block taken and touches nothing else, so `body` need only outlive the
/// call.
struct FanOut {
  FanOut(const std::function<void(int, int64_t, int64_t)>* body,
         int64_t total, int64_t block, int blocks)
      : body(body),
        faults(FaultArmingScope::Captured()),
        total(total),
        block(block),
        blocks(blocks),
        errors(static_cast<size_t>(blocks)) {}

  /// Claims and runs blocks under the caller's arming until none is left.
  void Drain() {
    FaultArmingScope arming(faults);
    for (int b = next.fetch_add(1); b < blocks; b = next.fetch_add(1)) {
      const int64_t begin = static_cast<int64_t>(b) * block;
      try {
        (*body)(b, begin, std::min<int64_t>(total, begin + block));
      } catch (...) {
        errors[static_cast<size_t>(b)] = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++done == blocks) all_done.notify_all();
    }
  }

  const std::function<void(int, int64_t, int64_t)>* const body;
  FaultInjector* const faults;
  const int64_t total;
  const int64_t block;
  const int blocks;
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors;  // per block
  std::mutex mu;
  std::condition_variable all_done;
  int done = 0;  // finished blocks, under `mu`
};

}  // namespace

int ParallelBlocks(int max_blocks, int64_t total) {
  if (total <= 0) return 0;
  const int64_t block = BlockSize(max_blocks, total);
  return static_cast<int>((total + block - 1) / block);
}

Status ParallelFor(int max_blocks, int64_t total,
                   const std::function<void(int worker, int64_t begin,
                                            int64_t end)>& body) {
  const int blocks = ParallelBlocks(max_blocks, total);
  if (blocks == 0) return Status::OK();
  const auto fan = std::make_shared<FanOut>(
      &body, total, BlockSize(max_blocks, total), blocks);
  if (blocks > 1) {
    ThreadPool& shared = ThreadPool::Shared();
    const int helpers = std::min(blocks - 1, shared.num_threads());
    for (int h = 0; h < helpers; ++h) shared.Submit([fan] { fan->Drain(); });
  }
  fan->Drain();
  {
    std::unique_lock<std::mutex> lock(fan->mu);
    fan->all_done.wait(lock, [&] { return fan->done == blocks; });
  }
  for (const std::exception_ptr& e : fan->errors) {
    if (e) return StatusFromException(e);
  }
  return Status::OK();
}

}  // namespace robustqp
