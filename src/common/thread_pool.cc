#include "common/thread_pool.h"

#include <algorithm>

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

Status ParallelFor(ThreadPool* pool, int64_t total,
                   const std::function<void(int worker, int64_t begin,
                                            int64_t end)>& body) {
  if (total <= 0) return Status::OK();
  const int workers = pool->num_threads();
  const int64_t block = (total + workers - 1) / workers;
  std::vector<std::exception_ptr> errors(static_cast<size_t>(workers));
  FaultInjector* const faults = FaultArmingScope::Captured();
  for (int t = 0; t < workers; ++t) {
    const int64_t begin = static_cast<int64_t>(t) * block;
    const int64_t end = std::min<int64_t>(total, begin + block);
    if (begin >= end) break;
    pool->Submit([&body, &errors, faults, t, begin, end] {
      FaultArmingScope arming(faults);
      try {
        body(t, begin, end);
      } catch (...) {
        errors[static_cast<size_t>(t)] = std::current_exception();
      }
    });
  }
  (void)pool->Wait();  // per-block capture above supersedes loop-level errors
  for (const std::exception_ptr& e : errors) {
    if (e) return StatusFromException(e);
  }
  return Status::OK();
}

}  // namespace robustqp
