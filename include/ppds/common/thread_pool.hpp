#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "ppds/common/error.hpp"

/// \file thread_pool.hpp
/// Minimal fixed-size worker pool behind the OMPE sender's parallel
/// masked-point sweeps (src/ompe/ompe.cpp). Standard-library only; a single
/// mutex + condition variable guards the FIFO queue, which is plenty for
/// the coarse-grained tasks it runs (one slice of a sweep per hardware
/// thread).

namespace ppds {

class ThreadPool {
 public:
  /// Spawns \p threads workers immediately (at least one).
  explicit ThreadPool(std::size_t threads = default_concurrency()) {
    const std::size_t count = threads == 0 ? 1 : threads;
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Drains the queue (queued tasks still run), then joins all workers.
  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& worker : workers_) {
      if (worker.joinable()) worker.join();
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of worker threads.
  std::size_t size() const { return workers_.size(); }

  /// Enqueues \p fn and returns a future for its result. Exceptions thrown
  /// by the task surface on future.get().
  template <typename F>
  std::future<std::invoke_result_t<F&>> submit(F&& fn) {
    using Result = std::invoke_result_t<F&>;
    auto task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<F>(fn));
    std::future<Result> future = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      detail::require(!stopping_, "ThreadPool: submit after shutdown");
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Hardware concurrency with a floor of one (the standard allows zero).
  static std::size_t default_concurrency() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
  }

 private:
  void worker_loop() {
    for (;;) {
      std::function<void()> job;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
        if (queue_.empty()) return;  // stopping_ and nothing left to drain
        job = std::move(queue_.front());
        queue_.pop_front();
      }
      job();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ppds
