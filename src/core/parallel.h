// Parallel plan execution: a work-stealing thread pool.
//
// The paper's methodology pays off at system scale when many blocks are
// verified against many scenarios; every layer below core is deliberately
// deterministic and single-threaded, so this file is where concurrency is
// allowed to exist — and where it is fenced so determinism survives:
//
//   * ParallelExecutor — a small work-stealing pool (per-worker LIFO
//     deques, FIFO steals, a global inbox for external submissions).
//     wait() *helps*: a task that spawns subtasks and waits for them runs
//     pending work itself instead of blocking a worker, so nested
//     fan-out cannot deadlock a fixed-size pool.
//
// One SEC check is never split across workers: the engine's single
// incremental miter pays each BMC depth's cost once, so parallelism lives
// at the block level only, and a block reports the same verdict and
// counters on any worker as it does in a serial run.
//
// Fault injection composes: tasks that verify blocks install a per-task
// clone of the caller's injector (fault::ScopedInjector proto copy), so the
// pure (seed, site, hit) firing contract holds per worker regardless of
// how tasks are scheduled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dfv::core {

/// A fixed-size work-stealing thread pool.  Tasks are grouped: submit()
/// attaches each task to a TaskGroup and wait() blocks until that group
/// drains, executing pending tasks itself while it waits (helping), so
/// tasks may submit and wait on subgroups freely.  Tasks must not throw;
/// a task that does poisons its group and wait() rethrows the first
/// exception after the group drains.
class ParallelExecutor {
 public:
  /// `workers` threads are spawned (0 = std::thread::hardware_concurrency,
  /// min 1).  The submitting thread is not counted; it only runs tasks
  /// while inside wait().
  explicit ParallelExecutor(unsigned workers = 0);
  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;
  /// All groups must have been wait()ed: destroying an executor with
  /// pending tasks is a contract violation (DFV_CHECK).
  ~ParallelExecutor();

  unsigned workers() const { return static_cast<unsigned>(threads_.size()); }

  /// A join point for a batch of tasks.  Not reusable across executors;
  /// reusable for successive batches on the same executor once drained.
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class ParallelExecutor;
    std::atomic<std::size_t> pending_{0};
    std::mutex mu_;  // guards exception_
    std::exception_ptr exception_;
  };

  /// Enqueues `fn`.  Called from a worker thread it pushes onto that
  /// worker's own deque (LIFO — depth-first, cache-warm); from any other
  /// thread it goes to the global inbox (FIFO — submission order).
  void submit(TaskGroup& group, std::function<void()> fn);

  /// Runs pending tasks (any group's) until `group` drains, then returns.
  /// Rethrows the first exception a task of this group threw, if any.
  void wait(TaskGroup& group);

 private:
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void workerLoop(unsigned index);
  /// Pops the next runnable task for `index` (own deque back, inbox front,
  /// then steal other deques front).  index == workers() means "external
  /// helper": inbox first, then steal.  Caller must hold mu_.
  bool popTask(unsigned index, Task& out);
  void runTask(Task task);

  mutable std::mutex mu_;  // guards inbox_, deques_, shutdown_
  std::condition_variable cv_;
  std::deque<Task> inbox_;
  std::vector<std::deque<Task>> deques_;  // one per worker
  std::vector<std::thread> threads_;
  std::atomic<std::size_t> pendingTotal_{0};
  bool shutdown_ = false;
};

}  // namespace dfv::core
