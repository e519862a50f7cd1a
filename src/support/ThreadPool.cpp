//===- support/ThreadPool.cpp ---------------------------------------------===//

#include "support/ThreadPool.h"

#include "trace/Scope.h"

#include <cassert>

using namespace balign;

namespace {

/// The pool whose worker the current thread is: its tasks may submit
/// while the destructor drains, and it must not call wait().
thread_local const ThreadPool *CurrentPool = nullptr;

} // namespace

unsigned ThreadPool::hardwareThreads() {
  unsigned H = std::thread::hardware_concurrency();
  return H != 0 ? H : 1u;
}

ThreadPool::ThreadPool(unsigned NumThreads) {
  unsigned N = NumThreads != 0 ? NumThreads : hardwareThreads();
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

// NOLINTNEXTLINE(bugprone-exception-escape): join() throws only for
// self-join or joining a detached thread, neither of which the pool's
// fixed worker set can produce.
ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(Task T) {
  assert(T && "submitted an empty task");
  {
    std::lock_guard<std::mutex> Guard(Mutex);
    assert((!Stopping || CurrentPool == this) &&
           "submit from outside the pool after destruction began");
    Queue.push_back(std::move(T));
    // Gauges, not counters: serial pipelines never construct a pool, so
    // pool metrics are inherently thread-count-dependent.
    scopeGaugeAdd("pool.tasks");
    scopeGaugeMax("pool.queue-depth", Queue.size());
  }
  WorkAvailable.notify_one();
}

void ThreadPool::workerLoop() {
  CurrentPool = this;
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WorkAvailable.wait(Lock, [this] { return Stopping || !Queue.empty(); });
    // An empty queue here means the pool is stopping; whatever a task
    // still running submits, its own worker takes before it exits.
    if (Queue.empty())
      break;
    Task T = std::move(Queue.front());
    Queue.pop_front();
    ++RunningTasks;
    Lock.unlock();
    std::exception_ptr Error;
    try {
      T();
    } catch (...) {
      Error = std::current_exception();
    }
    T = nullptr; // Release the captures before the task counts as done.
    Lock.lock();
    if (Error && !FirstError)
      FirstError = Error;
    if (--RunningTasks == 0 && Queue.empty())
      AllDone.notify_all();
  }
  CurrentPool = nullptr;
}

void ThreadPool::wait() {
  assert(CurrentPool != this && "wait() called from a pool worker");
  std::unique_lock<std::mutex> Lock(Mutex);
  AllDone.wait(Lock, [this] { return Queue.empty() && RunningTasks == 0; });
  if (FirstError) {
    std::exception_ptr E = FirstError;
    FirstError = nullptr;
    Lock.unlock();
    std::rethrow_exception(E);
  }
}

void balign::parallelFor(ThreadPool &Pool, size_t Begin, size_t End,
                         const std::function<void(size_t)> &Fn) {
  for (size_t I = Begin; I < End; ++I)
    Pool.submit([&Fn, I] { Fn(I); });
  Pool.wait();
}
