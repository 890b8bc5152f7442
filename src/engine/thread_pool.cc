#include "engine/thread_pool.h"

#include <chrono>
#include <utility>

#include "common/check.h"

namespace ddc {

namespace {

/// How long an idle worker polls its queue before it parks. Longer than the
/// gap between two batches of a busy shard (tens of microseconds). The
/// sharded engine's shards freeze on their workers, so what the ingest
/// thread does after a drain (stitch and compose) is about as long as the
/// spin: a worker may still be polling when the next batch comes, and
/// otherwise costs one wake-up to restart the hand-off.
constexpr std::chrono::microseconds kSpin{100};

}  // namespace

ThreadPool::ThreadPool(int num_workers) {
  DDC_CHECK(num_workers >= 1);
  workers_.reserve(num_workers);
  for (int i = 0; i < num_workers; ++i) {
    workers_.push_back(std::make_unique<Worker>());
    // A worker that has never run a task is "recently alive" from creation,
    // so a watchdog deadline counts from here, not from the epoch.
    workers_.back()->health.Beat();
  }
  // Threads start only after the vector is fully built, so Run never sees a
  // partially constructed pool.
  for (auto& w : workers_) {
    w->thread = std::thread([this, worker = w.get()] { Run(worker); });
  }
}

ThreadPool::~ThreadPool() {
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->wake.notify_one();
  }
  for (auto& w : workers_) w->thread.join();
}

void ThreadPool::Submit(int worker, std::function<void()> task) {
  DDC_CHECK(worker >= 0 && worker < num_workers());
  Worker& w = *workers_[worker];
  bool parked = false;
  {
    std::lock_guard<std::mutex> lock(w.mu);
    DDC_CHECK(!w.stop);
    w.queue.push_back(std::move(task));
    w.health.queue_depth.fetch_add(1, std::memory_order_relaxed);
    parked = w.parked;
  }
  // A spinning worker finds the task by itself; only a parked one costs the
  // submitter a wake-up.
  if (parked) w.wake.notify_one();
}

void ThreadPool::Drain() {
  for (auto& w : workers_) {
    std::unique_lock<std::mutex> lock(w->mu);
    w->idle.wait(lock, [&] { return w->queue.empty() && !w->running; });
  }
}

void ThreadPool::Run(Worker* w) {
  std::unique_lock<std::mutex> lock(w->mu);
  for (;;) {
    if (w->queue.empty() && !w->stop) {
      // Poll without the lock first: nothing runs here, so queue_depth turns
      // positive exactly when Submit queued a task. The wait below re-checks
      // the queue under the lock, so a missed poll costs time, not a task.
      lock.unlock();
      const auto until = std::chrono::steady_clock::now() + kSpin;
      while (w->health.queue_depth.load(std::memory_order_relaxed) == 0 &&
             std::chrono::steady_clock::now() < until) {
        std::this_thread::yield();
      }
      lock.lock();
      w->parked = true;
      w->wake.wait(lock, [&] { return !w->queue.empty() || w->stop; });
      w->parked = false;
    }
    if (w->queue.empty()) {
      // stop && drained: exit. Pending tasks always run before shutdown.
      return;
    }
    std::function<void()> task = std::move(w->queue.front());
    w->queue.pop_front();
    w->running = true;
    lock.unlock();
    w->health.Beat();
    task();
    w->health.Beat();
    w->health.queue_depth.fetch_sub(1, std::memory_order_relaxed);
    w->health.tasks_completed.fetch_add(1, std::memory_order_relaxed);
    lock.lock();
    w->running = false;
    if (w->queue.empty()) w->idle.notify_all();
  }
}

}  // namespace ddc
