#include "common/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace cuszp2 {

namespace {
thread_local usize tWorkerIndex = ThreadPool::kNotAWorker;
thread_local ThreadPool* tOwnerPool = nullptr;
}  // namespace

ThreadPool::ThreadPool(usize workers) {
  const usize n = std::max<usize>(1, workers);
  threads_.reserve(n);
  for (usize i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] {
      tWorkerIndex = i;
      tOwnerPool = this;
      workerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cvTask_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(task));
    ++inFlight_;
  }
  cvTask_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cvDone_.wait(lock, [this] { return inFlight_ == 0; });
}

void ThreadPool::run(usize tasks, const std::function<void(usize)>& fn) {
  if (currentPool() == this) {
    for (usize i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::mutex doneMutex;
  std::condition_variable doneCv;
  usize remaining = tasks;
  for (usize i = 0; i < tasks; ++i) {
    submit([&, i] {
      fn(i);
      std::lock_guard<std::mutex> lock(doneMutex);
      if (--remaining == 0) doneCv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(doneMutex);
  doneCv.wait(lock, [&] { return remaining == 0; });
}

usize ThreadPool::defaultWorkers() {
  if (const char* env = std::getenv("CUSZP2_WORKERS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return std::clamp<usize>(static_cast<usize>(v), 1, 64);
  }
  const usize hw = std::thread::hardware_concurrency();
  return std::clamp<usize>(hw, 2, 16);
}

usize ThreadPool::currentWorkerIndex() { return tWorkerIndex; }

ThreadPool* ThreadPool::currentPool() { return tOwnerPool; }

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cvTask_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ must be true
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inFlight_;
      if (inFlight_ == 0) cvDone_.notify_all();
    }
  }
}

}  // namespace cuszp2
