//===- support/ThreadPool.h - Fixed-size thread pool ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A small thread pool for the per-procedure parallelism of the alignment
/// pipeline and the requests of balign-serve. Workers take tasks from one
/// FIFO queue in submission order. The pool never affects algorithmic
/// results — it only decides *where* independent per-procedure work runs;
/// all randomness stays in per-procedure seeded streams.
///
/// Exceptions thrown by tasks are captured; the first one is rethrown by
/// wait() (the rest are dropped), so a reportFatal raised on a worker
/// surfaces on the submitting thread.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_THREADPOOL_H
#define BALIGN_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace balign {

/// The largest worker count a tool's --threads flag accepts. A pool
/// starts all its workers at once, so an unchecked count could ask for
/// billions of threads.
inline constexpr unsigned MaxToolThreads = 1024;

/// Fixed-size thread pool over one task queue.
class ThreadPool {
public:
  using Task = std::function<void()>;

  /// Creates a pool with \p NumThreads workers; 0 means one worker per
  /// hardware thread (hardwareThreads()).
  explicit ThreadPool(unsigned NumThreads = 0);

  /// Drains all submitted tasks, including those submitted while it
  /// drains, then joins the workers. Exceptions left unclaimed by wait()
  /// are discarded.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Number of worker threads.
  unsigned numWorkers() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues \p T. Safe to call from worker threads.
  void submit(Task T);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception any task raised (if one did). Must be called from
  /// outside the pool's workers.
  void wait();

  /// max(1, std::thread::hardware_concurrency()).
  static unsigned hardwareThreads();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::mutex Mutex; ///< Guards every member below.
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  std::deque<Task> Queue;  ///< Submitted tasks no worker has taken yet.
  size_t RunningTasks = 0; ///< Tasks currently executing.
  bool Stopping = false;
  std::exception_ptr FirstError;
};

/// Runs Fn(I) for every I in [Begin, End) on \p Pool and waits for all of
/// them (rethrowing the first task exception). Results must be written to
/// index-addressed storage by the callback; that is what keeps parallel
/// execution order-independent.
void parallelFor(ThreadPool &Pool, size_t Begin, size_t End,
                 const std::function<void(size_t)> &Fn);

} // namespace balign

#endif // BALIGN_SUPPORT_THREADPOOL_H
