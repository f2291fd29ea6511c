#include "common/fork_join.h"

#include <system_error>

namespace spes {

ForkJoinPool::ForkJoinPool(int threads)
    : threads_(threads < 1 ? 1 : threads),
      errors_(static_cast<size_t>(threads_)) {
  workers_.reserve(static_cast<size_t>(threads_ - 1));
  try {
    for (int participant = 1; participant < threads_; ++participant) {
      workers_.emplace_back([this, participant] { WorkerLoop(participant); });
    }
  } catch (const std::system_error&) {
    StopWorkers();
    throw;
  }
}

ForkJoinPool::~ForkJoinPool() { StopWorkers(); }

void ForkJoinPool::StopWorkers() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

void ForkJoinPool::RunShare(int participant) {
  try {
    for (size_t i = static_cast<size_t>(participant); i < count_;
         i += static_cast<size_t>(threads_)) {
      (*task_)(i);
    }
  } catch (...) {
    errors_[static_cast<size_t>(participant)] = std::current_exception();
  }
}

void ForkJoinPool::WorkerLoop(int participant) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_cv_.wait(lock, [&] { return stopping_ || generation_ != seen; });
      if (stopping_) return;
      seen = generation_;
    }
    RunShare(participant);
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

void ForkJoinPool::Run(size_t count, const std::function<void(size_t)>& task) {
  if (count == 0) return;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    task_ = &task;
    count_ = count;
    pending_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  RunShare(0);
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    task_ = nullptr;
  }
  for (std::exception_ptr& error : errors_) {
    if (error == nullptr) continue;
    const std::exception_ptr first = error;
    for (std::exception_ptr& other : errors_) other = nullptr;
    std::rethrow_exception(first);
  }
}

}  // namespace spes
