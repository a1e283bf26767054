#include "genio/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace genio::common {

std::size_t ThreadPool::recommended_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw == 0 ? 1 : hw, 1, 8);
}

ThreadPool::ThreadPool(std::size_t workers) {
  size_ = workers == 0 ? recommended_workers() : workers;
  if (size_ <= 1) {
    size_ = 1;
    return;  // inline mode: no threads
  }
  const std::size_t thread_count = size_ - 1;  // the caller is the last worker
  threads_.reserve(thread_count);
  for (std::size_t i = 0; i < thread_count; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  if (threads_.empty()) return;
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  if (threads_.empty()) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and every task has run
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (threads_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Shared batch state. Helpers grab indices from `next`; whoever finishes
  // the last item signals the caller. The shared_ptr keeps the state alive
  // for helpers that only get scheduled after the range is exhausted.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<ForState>();
  state->n = n;
  state->fn = &fn;  // the caller outlives the batch, so the pointer is safe
  auto run = [state] {
    std::size_t i;
    while ((i = state->next.fetch_add(1)) < state->n) {
      (*state->fn)(i);
      if (state->done.fetch_add(1) + 1 == state->n) {
        std::lock_guard<std::mutex> lk(state->mu);
        state->cv.notify_all();
      }
    }
  };
  const std::size_t helpers = std::min(threads_.size(), n - 1);
  for (std::size_t h = 0; h < helpers; ++h) submit(run);
  run();  // the caller works too; after this, only in-flight items remain
  std::unique_lock<std::mutex> lk(state->mu);
  state->cv.wait(lk, [&] { return state->done.load() == state->n; });
}

}  // namespace genio::common
