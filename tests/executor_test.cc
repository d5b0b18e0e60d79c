// The work-stealing Executor and TaskGroup (src/common/executor.h).

#include "common/executor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace xmlreval::common {
namespace {

// Executor options with only the worker count set.
Executor::Options Threads(size_t n) {
  Executor::Options options;
  options.threads = n;
  return options;
}

// The old ThreadPool contract, inherited by the executor: everything
// accepted before destruction runs.
TEST(ExecutorTest, RunsAllTasksAndDrainsOnShutdown) {
  std::atomic<int> ran{0};
  {
    Executor::Options options;
    options.threads = 4;
    options.queue_capacity = 8;
    Executor executor(options);
    EXPECT_EQ(executor.thread_count(), 4u);
    for (int i = 0; i < 100; ++i) {
      EXPECT_TRUE(executor.Submit([&] { ran.fetch_add(1); }));
    }
  }  // destructor drains + joins
  EXPECT_EQ(ran.load(), 100);
}

// Regression: a Push accepted just before Shutdown's Close() must run even
// when every worker's scan raced ahead of it. Workers used to exit on the
// first empty scan that observed stop_, dropping such a task (and hanging
// any caller waiting on its completion). Hammer the Submit/Shutdown race
// and check accepted == executed every round.
TEST(ExecutorTest, SubmitRacingShutdownNeverDropsAcceptedTask) {
  for (int round = 0; round < 50; ++round) {
    Executor::Options options;
    options.threads = 2;
    options.queue_capacity = 4;
    std::atomic<int> accepted{0};
    std::atomic<int> executed{0};
    Executor executor(options);
    std::thread submitter([&] {
      while (executor.Submit([&] { executed.fetch_add(1); })) {
        accepted.fetch_add(1);
      }
    });
    std::this_thread::sleep_for(std::chrono::microseconds(50 * (round % 5)));
    executor.Shutdown();
    submitter.join();
    EXPECT_EQ(accepted.load(), executed.load()) << "round " << round;
  }
}

TEST(ExecutorTest, SubmitRefusedAfterShutdown) {
  Executor executor(Threads(2));
  executor.Shutdown();
  EXPECT_FALSE(executor.Submit([] {}));
  executor.Shutdown();  // idempotent
}

TEST(ExecutorTest, StatsCountSubmittedAndExecuted) {
  Executor executor(Threads(2));
  std::atomic<int> ran{0};
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(executor.Submit([&] { ran.fetch_add(1); }));
  }
  executor.Shutdown();
  EXPECT_EQ(ran.load(), 50);
  Executor::Stats stats = executor.stats();
  EXPECT_EQ(stats.submitted, 50u);
  EXPECT_EQ(stats.executed, 50u);
}

// A worker-side fan-out that the spawning worker cannot drain alone (it
// blocks in the middle) forces peers to steal from its deque.
TEST(ExecutorTest, IdleWorkersStealFromBusyPeer) {
  Executor executor(Threads(4));
  constexpr int kSubtasks = 64;
  std::atomic<int> ran{0};
  std::atomic<bool> release{false};
  TaskGroup group(&executor);
  group.Spawn([&] {
    // Fan out onto THIS worker's deque, then park until someone else has
    // made progress — the only way `ran` can move is via stealing.
    TaskGroup inner(&executor);
    for (int i = 0; i < kSubtasks; ++i) {
      inner.Spawn([&] { ran.fetch_add(1); });
    }
    while (ran.load() < kSubtasks / 2 && !release.load()) {
      std::this_thread::yield();
    }
    inner.Wait();
  });
  // Safety valve so a broken steal path fails the assertions instead of
  // hanging the suite.
  std::atomic<bool> done{false};
  std::thread watchdog([&] {
    for (int i = 0; i < 300 && !done.load(); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    release.store(true);
  });
  group.Wait();
  release.store(true);
  done.store(true);
  watchdog.join();
  EXPECT_EQ(ran.load(), kSubtasks);
  EXPECT_GT(executor.stats().stolen, 0u);
}

TEST(ExecutorTest, OnWorkerThreadDistinguishesWorkers) {
  Executor executor(Threads(1));
  EXPECT_FALSE(executor.OnWorkerThread());
  std::atomic<bool> on_worker{false};
  TaskGroup group(&executor);
  group.Spawn([&] { on_worker.store(executor.OnWorkerThread()); });
  group.Wait();
  EXPECT_TRUE(on_worker.load());
}

TEST(ExecutorTest, QueueDepthHookMirrorsQueueAndSettlesToZero) {
  std::atomic<int64_t> depth{0};
  std::atomic<int64_t> max_depth{0};
  Executor::Options options;
  options.threads = 2;
  options.depth_hook = [&](int64_t delta) {
    int64_t now = depth.fetch_add(delta) + delta;
    int64_t seen = max_depth.load();
    while (now > seen && !max_depth.compare_exchange_weak(seen, now)) {
    }
  };
  {
    Executor executor(options);
    std::atomic<bool> gate{false};
    TaskGroup group(&executor);
    for (int i = 0; i < 32; ++i) {
      group.Spawn([&] {
        while (!gate.load()) std::this_thread::yield();
      });
    }
    gate.store(true);
    group.Wait();
    EXPECT_EQ(executor.QueueDepth(), 0u);
  }
  EXPECT_EQ(depth.load(), 0);
  EXPECT_GT(max_depth.load(), 0);
}

// HasIdleWorker is the lazy-splitting heuristic: with a single worker
// busy, it must read false (1-thread runs never split).
TEST(ExecutorTest, SingleBusyWorkerReportsNoIdlePeer) {
  Executor executor(Threads(1));
  std::atomic<bool> checked{false};
  bool idle_seen = true;
  TaskGroup group(&executor);
  group.Spawn([&] {
    idle_seen = executor.HasIdleWorker();
    checked.store(true);
  });
  group.Wait();
  ASSERT_TRUE(checked.load());
  EXPECT_FALSE(idle_seen);
}

// Tasks spawned BY running tasks after Shutdown began still run before
// the workers exit (the drain guarantee the cast engine relies on).
TEST(ExecutorTest, WorkerSideSpawnsDuringDrainStillRun) {
  std::atomic<int> ran{0};
  {
    Executor executor(Threads(2));
    TaskGroup group(&executor);
    group.Spawn([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      TaskGroup inner(&executor);
      for (int i = 0; i < 8; ++i) inner.Spawn([&] { ran.fetch_add(1); });
      inner.Wait();
    });
    // Destructor path: Shutdown may begin while the outer task sleeps.
    group.Wait();
  }
  EXPECT_EQ(ran.load(), 8);
}

TEST(TaskGroupTest, WaitCoversTransitiveSpawns) {
  Executor executor(Threads(4));
  std::atomic<int> ran{0};
  TaskGroup group(&executor);
  for (int i = 0; i < 4; ++i) {
    group.Spawn([&] {
      for (int j = 0; j < 4; ++j) {
        group.Spawn([&] { ran.fetch_add(1); });
      }
      ran.fetch_add(1);
    });
  }
  group.Wait();
  EXPECT_EQ(ran.load(), 4 + 16);
}

TEST(TaskGroupTest, SpawnAfterShutdownRunsInline) {
  Executor executor(Threads(2));
  executor.Shutdown();
  std::atomic<int> ran{0};
  TaskGroup group(&executor);
  group.Spawn([&] { ran.fetch_add(1); });
  group.Wait();  // inline fallback already finished it
  EXPECT_EQ(ran.load(), 1);
}

}  // namespace
}  // namespace xmlreval::common
