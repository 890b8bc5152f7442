#ifndef DDC_ENGINE_THREAD_POOL_H_
#define DDC_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/watchdog.h"

namespace ddc {

/// A fixed pool of worker threads with one FIFO task queue per worker.
/// Tasks are submitted to an explicit worker index — there is no stealing —
/// so every producer that always targets the same worker gets strict
/// in-order execution of its tasks. The sharded engine exploits this by
/// pinning each shard to one worker: shard batches then apply in submission
/// order even when several shards share a thread (threads < shards).
///
/// An idle worker spins, yielding, for a short while before it parks, and
/// Submit signals only a parked worker, so a producer that submits faster
/// than that (the engine's ingest thread) hands work over without a
/// wake-up. A wake-up is a syscall, and when the scheduler runs the woken
/// worker on the producer's CPU it preempts the producer too: tens of
/// microseconds added to that Submit.
class ThreadPool {
 public:
  /// Starts `num_workers` (>= 1) threads.
  explicit ThreadPool(int num_workers);

  /// Drains every queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` on worker `worker` (FIFO per worker).
  void Submit(int worker, std::function<void()> task);

  /// Blocks until every worker's queue is empty and no task is running.
  /// Establishes happens-before with everything those tasks wrote: after
  /// Drain returns, the caller may freely read state the workers touched.
  void Drain();

  /// Heartbeat cell of worker `worker`, stamped around every task it runs
  /// and maintained by Submit — feed these to a telemetry Watchdog. Valid
  /// for the pool's lifetime.
  const WorkerHealth& health(int worker) const {
    return workers_[worker]->health;
  }

 private:
  struct Worker {
    std::mutex mu;
    std::condition_variable wake;   // queue became non-empty, or stopping
    std::condition_variable idle;   // queue drained and task finished
    std::deque<std::function<void()>> queue;
    bool running = false;  // A task is executing right now.
    bool stop = false;     // Exit once the queue is empty.
    bool parked = false;   // Blocked on `wake`: Submit must signal it.
    WorkerHealth health;   // queue_depth counts queued + running tasks.
    std::thread thread;
  };

  void Run(Worker* w);

  std::vector<std::unique_ptr<Worker>> workers_;
};

}  // namespace ddc

#endif  // DDC_ENGINE_THREAD_POOL_H_
