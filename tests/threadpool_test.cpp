//===- tests/threadpool_test.cpp - Thread pool unit + stress tests --------===//

#include "support/Random.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace balign;

TEST(ThreadPoolTest, HardwareThreadsIsPositive) {
  EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(ThreadPoolTest, EmptyPoolConstructsAndDestructs) {
  for (unsigned N : {1u, 2u, 8u}) {
    ThreadPool Pool(N);
    EXPECT_EQ(Pool.numWorkers(), N);
  }
  // Zero resolves to the hardware thread count.
  ThreadPool Default(0);
  EXPECT_EQ(Default.numWorkers(), ThreadPool::hardwareThreads());
}

TEST(ThreadPoolTest, WaitOnIdlePoolReturnsImmediately) {
  ThreadPool Pool(4);
  Pool.wait();
  Pool.wait(); // And is repeatable.
}

TEST(ThreadPoolTest, MoreTasksThanThreadsAllRun) {
  ThreadPool Pool(3);
  constexpr size_t NumTasks = 1000;
  std::vector<int> Ran(NumTasks, 0);
  std::atomic<size_t> Count{0};
  for (size_t I = 0; I != NumTasks; ++I)
    Pool.submit([&Ran, &Count, I] {
      Ran[I] = 1;
      Count.fetch_add(1, std::memory_order_relaxed);
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), NumTasks);
  EXPECT_EQ(std::accumulate(Ran.begin(), Ran.end(), size_t(0)), NumTasks);
}

TEST(ThreadPoolTest, TasksRunOnWorkerThreads) {
  ThreadPool Pool(2);
  std::mutex M;
  std::set<std::thread::id> Ids;
  for (int I = 0; I != 64; ++I)
    Pool.submit([&M, &Ids] {
      std::lock_guard<std::mutex> G(M);
      Ids.insert(std::this_thread::get_id());
    });
  Pool.wait();
  EXPECT_FALSE(Ids.empty());
  EXPECT_EQ(Ids.count(std::this_thread::get_id()), 0u)
      << "tasks must not run on the submitting thread";
}

TEST(ThreadPoolTest, NestedSubmissionFromWorkers) {
  ThreadPool Pool(4);
  std::atomic<size_t> Count{0};
  for (int I = 0; I != 16; ++I)
    Pool.submit([&Pool, &Count] {
      Count.fetch_add(1);
      for (int J = 0; J != 8; ++J)
        Pool.submit([&Count] { Count.fetch_add(1); });
    });
  Pool.wait();
  EXPECT_EQ(Count.load(), 16u + 16u * 8u);
}

TEST(ThreadPoolTest, ExceptionPropagatesOutOfWait) {
  ThreadPool Pool(2);
  Pool.submit([] { throw std::runtime_error("task failed"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // The pool survives a throwing task and keeps executing work.
  std::atomic<int> After{0};
  Pool.submit([&After] { After = 1; });
  Pool.wait();
  EXPECT_EQ(After.load(), 1);
}

TEST(ThreadPoolTest, FirstOfManyExceptionsIsReported) {
  ThreadPool Pool(4);
  for (int I = 0; I != 32; ++I)
    Pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(Pool.wait(), std::runtime_error);
  // Claimed errors are cleared; the next wait is clean.
  Pool.wait();
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<size_t> Count{0};
  {
    ThreadPool Pool(2);
    for (size_t I = 0; I != 200; ++I)
      Pool.submit([&Count] { Count.fetch_add(1); });
    // No wait(): the destructor must finish every submitted task.
  }
  EXPECT_EQ(Count.load(), 200u);
}

TEST(ThreadPoolTest, ParallelForCoversRangeExactlyOnce) {
  ThreadPool Pool(4);
  std::vector<std::atomic<int>> Hits(257);
  parallelFor(Pool, 3, 257, [&Hits](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Hits.size(); ++I)
    EXPECT_EQ(Hits[I].load(), (I >= 3 && I < 257) ? 1 : 0) << "index " << I;
}

TEST(ThreadPoolTest, ParallelForEmptyRange) {
  ThreadPool Pool(2);
  parallelFor(Pool, 5, 5, [](size_t) { FAIL() << "must not be called"; });
  parallelFor(Pool, 7, 3, [](size_t) { FAIL() << "must not be called"; });
}

/// Randomized submit/steal stress: several submitter rounds racing with
/// nested fan-out from the workers themselves, across pool sizes. The
/// accumulated sum must equal the deterministic expectation.
TEST(ThreadPoolTest, RandomizedSubmitStealStress) {
  Rng R(0xbeef);
  for (unsigned Workers : {1u, 2u, 5u, 8u}) {
    ThreadPool Pool(Workers);
    std::atomic<uint64_t> Sum{0};
    uint64_t Expected = 0;
    for (int Round = 0; Round != 20; ++Round) {
      size_t Batch = 1 + R.nextIndex(40);
      for (size_t I = 0; I != Batch; ++I) {
        uint64_t V = R.nextBelow(1000);
        size_t Children = R.nextIndex(4);
        Expected += V * (1 + Children);
        Pool.submit([&Pool, &Sum, V, Children] {
          Sum.fetch_add(V, std::memory_order_relaxed);
          for (size_t C = 0; C != Children; ++C)
            Pool.submit([&Sum, V] {
              Sum.fetch_add(V, std::memory_order_relaxed);
            });
        });
      }
      if (R.nextBool(0.5))
        Pool.wait();
    }
    Pool.wait();
    EXPECT_EQ(Sum.load(), Expected) << Workers << " workers";
  }
}

/// The server's pattern (AlignServer::runAlign): several threads outside
/// the pool submit at once, each waits on its own future, and nobody
/// calls wait(). Every task must run exactly once.
TEST(ThreadPoolTest, ConcurrentExternalSubmitters) {
  constexpr size_t Submitters = 6, TasksEach = 200;
  for (unsigned Workers : {1u, 2u, 4u}) {
    std::vector<std::atomic<int>> Ran(Submitters * TasksEach);
    {
      ThreadPool Pool(Workers);
      std::vector<std::thread> Threads;
      for (size_t S = 0; S != Submitters; ++S)
        Threads.emplace_back([&Pool, &Ran, S] {
          for (size_t I = 0; I != TasksEach; ++I) {
            auto Done = std::make_shared<std::promise<void>>();
            std::future<void> Finished = Done->get_future();
            Pool.submit([&Ran, Done, Index = S * TasksEach + I] {
              Ran[Index].fetch_add(1);
              Done->set_value();
            });
            Finished.get();
          }
        });
      for (std::thread &T : Threads)
        T.join();
    }
    for (size_t I = 0; I != Ran.size(); ++I)
      EXPECT_EQ(Ran[I].load(), 1) << Workers << " workers, task " << I;
  }
}

/// Tasks that submit more work while the destructor drains: the drain
/// runs those too.
TEST(ThreadPoolTest, DestructorDrainsTasksSubmittedByWorkers) {
  std::atomic<size_t> Count{0};
  {
    ThreadPool Pool(2);
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Pool, &Count] {
        Count.fetch_add(1);
        for (int J = 0; J != 4; ++J)
          Pool.submit([&Count] { Count.fetch_add(1); });
      });
  }
  EXPECT_EQ(Count.load(), 50u + 50u * 4u);
}
