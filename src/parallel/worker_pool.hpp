// Persistent fork-join pool.
//
// SyncRunner with threads > 1 runs each round (and each fixpoint sweep) as
// one job per worker, each claiming blocks of vertices until none is left;
// graph::unitDiskGraph runs one band of cell rows per worker; forEachBlock
// lends the runner's pool to other whole-graph passes (SisKernel's slice
// build), and poolFor gives one-off passes (graph::isConnected, the
// analysis verifiers) a pool of their own. The pool keeps its threads
// parked on a condition variable between dispatches, so a round costs one
// wake-up and one barrier, not a thread spawn per chunk.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace selfstab::parallel {

class WorkerPool {
 public:
  explicit WorkerPool(std::size_t workers) {
    threads_.reserve(workers);
    for (std::size_t t = 0; t < workers; ++t) {
      threads_.emplace_back([this, t] { loop(t); });
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      shutdown_ = true;
      ++generation_;
    }
    wake_.notify_all();
    for (auto& thread : threads_) thread.join();
  }

  [[nodiscard]] std::size_t size() const noexcept { return threads_.size(); }

  /// Runs job(t) once on every worker t and blocks until all have returned.
  /// Everything the caller wrote before run() is visible to the job, and
  /// everything the jobs wrote is visible to the caller afterwards. If a job
  /// throws, run() rethrows the first exception once every worker is done.
  void run(const std::function<void(std::size_t)>& job) {
    pending_.store(threads_.size(), std::memory_order_release);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      job_ = &job;
      ++generation_;
    }
    wake_.notify_all();
    std::unique_lock<std::mutex> lock(mutex_);
    done_.wait(lock, [this] {
      return pending_.load(std::memory_order_acquire) == 0;
    });
    job_ = nullptr;
    if (error_ != nullptr) std::rethrow_exception(std::exchange(error_, {}));
  }

 private:
  void loop(std::size_t index) {
    std::uint64_t seen = 0;
    for (;;) {
      const std::function<void(std::size_t)>* job = nullptr;
      {
        std::unique_lock<std::mutex> lock(mutex_);
        wake_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
        if (shutdown_) return;
        seen = generation_;
        job = job_;
      }
      try {
        (*job)(index);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (error_ == nullptr) error_ = std::current_exception();
      }
      if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        const std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_one();
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::exception_ptr error_;
  std::uint64_t generation_ = 0;
  bool shutdown_ = false;
  std::atomic<std::size_t> pending_{0};
  std::vector<std::thread> threads_;
};

/// A pool of `workers` threads for one whole-graph pass, or null at one
/// worker, where forEachBlock runs inline on the calling thread.
inline std::unique_ptr<WorkerPool> poolFor(std::size_t workers) {
  return workers > 1 ? std::make_unique<WorkerPool>(workers) : nullptr;
}

/// Runs body(begin, end) over [0, count) in contiguous blocks of at most
/// `block` items, each block claimed by whichever worker is free; inline as
/// one call over the whole range when `pool` is null. Blocks are disjoint,
/// so a body that writes only its own items' slots needs no locking.
template <typename Body>
void forEachBlock(WorkerPool* pool, std::size_t count, std::size_t block,
                  const Body& body) {
  if (pool == nullptr) {
    body(std::size_t{0}, count);
    return;
  }
  if (block == 0) block = 1;
  std::atomic<std::size_t> next{0};
  pool->run([&](std::size_t) {
    for (std::size_t b = next.fetch_add(block, std::memory_order_relaxed);
         b < count; b = next.fetch_add(block, std::memory_order_relaxed)) {
      body(b, std::min(b + block, count));
    }
  });
}

}  // namespace selfstab::parallel
