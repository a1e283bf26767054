// Thread pool behind the catalog runner (one scenario per index) and the
// admission-scan pool, on which the SAST gate analyzes an image's source
// files: background workers take tasks FIFO from one shared queue. Every
// task parallel_for submits is an interchangeable index-grabbing runner,
// so there is no locality for per-worker queues to exploit. The pool is
// built for deterministic data-parallel work: parallel_map writes results
// by index and parallel_map_reduce folds them on the calling thread in
// index order, so the merged output is byte-identical to a serial loop no
// matter how the work was scheduled. A pool of size 1 spawns no threads
// and runs everything inline (PlatformConfig.scan_workers=1).
//
// Blocking discipline: parallel_for's caller is itself the final worker —
// it grabs indices until the range is exhausted, then waits only for
// in-flight items. Because queued helper tasks are never required for
// completion, nested parallel_for from inside a pool task cannot deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace genio::common {

class ThreadPool {
 public:
  /// `workers` counts the parallel_for caller too: a pool of size k runs
  /// k-1 background threads. 0 picks recommended_workers(); <=1 is inline.
  explicit ThreadPool(std::size_t workers = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return size_; }
  bool inline_mode() const { return threads_.empty(); }

  /// min(hardware_concurrency, 8), at least 1.
  static std::size_t recommended_workers();

  /// Fire-and-forget. Inline pools execute immediately on the caller.
  /// The destructor drains every submitted task before joining.
  void submit(std::function<void()> task);

  /// Run fn(0) .. fn(n-1), returning once all calls completed. Safe to
  /// call from inside a pool task (see blocking discipline above).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Ordered results: out[i] = fn(i). Do not use with T = bool (adjacent
  /// vector<bool> elements share bytes, which races under concurrency).
  template <typename T>
  std::vector<T> parallel_map(std::size_t n, const std::function<T(std::size_t)>& fn) {
    std::vector<T> out(n);
    parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// Deterministic ordered-merge reducer: `map` runs on the fabric,
  /// `reduce(i, result)` runs on the calling thread in strict index order.
  template <typename T>
  void parallel_map_reduce(std::size_t n, const std::function<T(std::size_t)>& map,
                           const std::function<void(std::size_t, T&&)>& reduce) {
    std::vector<T> results = parallel_map<T>(n, map);
    for (std::size_t i = 0; i < n; ++i) reduce(i, std::move(results[i]));
  }

 private:
  void worker_loop();

  std::size_t size_ = 1;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mu_
  bool stop_ = false;                        // guarded by mu_
  std::vector<std::thread> threads_;         // after what the workers use
};

}  // namespace genio::common
