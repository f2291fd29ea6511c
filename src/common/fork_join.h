// A small persistent fork-join pool for deterministic parallel loops.
//
// ForkJoinPool::Run(count, task) calls task(i) once for every i in
// [0, count) and returns when every call has returned. Index i always
// runs on participant i % threads(): participant 0 is the thread that
// calls Run(), the others are the pool's own workers, started once and
// parked between dispatches. Nothing about the schedule feeds back into
// the tasks, so a task that writes only to slot-indexed state gives the
// same result at any thread count.

#ifndef SPES_COMMON_FORK_JOIN_H_
#define SPES_COMMON_FORK_JOIN_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spes {

/// \brief A fixed set of worker threads that run one indexed loop at a
/// time together with the calling thread. Not movable: hold it behind a
/// pointer. Run() must not be called from two threads at once.
class ForkJoinPool {
 public:
  /// \brief Starts `threads - 1` workers (`threads` >= 1). Throws
  /// std::system_error when a worker cannot be started, after joining
  /// the ones that were.
  explicit ForkJoinPool(int threads);
  /// Stops and joins every worker.
  ~ForkJoinPool();

  ForkJoinPool(const ForkJoinPool&) = delete;
  ForkJoinPool& operator=(const ForkJoinPool&) = delete;

  /// \brief Participants in a Run(): the workers plus the caller.
  [[nodiscard]] int threads() const { return threads_; }

  /// \brief Calls task(i) for every i in [0, count), index i on
  /// participant i % threads(), and returns once all calls have
  /// returned. If a call throws, the first exception in participant
  /// order is rethrown here after the join.
  void Run(size_t count, const std::function<void(size_t)>& task);

 private:
  void WorkerLoop(int participant);
  /// Runs this participant's share of the current dispatch.
  void RunShare(int participant);
  /// Wakes every worker with `stopping_` set and joins it.
  void StopWorkers();

  const int threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  // Dispatch state, written under mu_ before a generation is published.
  uint64_t generation_ = 0;
  int pending_ = 0;  ///< workers still inside the current dispatch
  bool stopping_ = false;
  const std::function<void(size_t)>* task_ = nullptr;
  size_t count_ = 0;
  std::vector<std::exception_ptr> errors_;  ///< one slot per participant
  std::vector<std::thread> workers_;
};

}  // namespace spes

#endif  // SPES_COMMON_FORK_JOIN_H_
