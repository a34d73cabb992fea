#include "core/parallel.h"

#include <exception>
#include <utility>

#include "common/check.h"

namespace dfv::core {

namespace {

// Which executor/worker the current thread belongs to.  A worker thread
// serves exactly one executor for its lifetime; external threads (and the
// helping thread inside wait()) keep the {nullptr, 0} default.
struct WorkerIdentity {
  const ParallelExecutor* executor = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity t_worker;

}  // namespace

ParallelExecutor::ParallelExecutor(unsigned workers) {
  unsigned n = workers;
  if (n == 0) {
    n = std::thread::hardware_concurrency();
    if (n == 0) n = 1;
  }
  deques_.resize(n);
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { workerLoop(i); });
}

ParallelExecutor::~ParallelExecutor() {
  {
    std::scoped_lock lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  DFV_CHECK_MSG(pendingTotal_.load() == 0,
                "ParallelExecutor destroyed with "
                    << pendingTotal_.load()
                    << " pending task(s): wait() every TaskGroup first");
}

void ParallelExecutor::submit(TaskGroup& group, std::function<void()> fn) {
  DFV_CHECK_MSG(fn != nullptr, "null task");
  group.pending_.fetch_add(1, std::memory_order_acq_rel);
  pendingTotal_.fetch_add(1, std::memory_order_acq_rel);
  {
    std::scoped_lock lock(mu_);
    DFV_CHECK_MSG(!shutdown_, "submit after executor shutdown");
    if (t_worker.executor == this)
      deques_[t_worker.index].push_back(Task{&group, std::move(fn)});
    else
      inbox_.push_back(Task{&group, std::move(fn)});
  }
  // notify_all, not notify_one: a helper sleeping inside wait() and an idle
  // worker are interchangeable consumers; waking only one could pick a
  // thread whose wake predicate rejects this task and strand it briefly.
  cv_.notify_all();
}

bool ParallelExecutor::popTask(unsigned index, Task& out) {
  // Own deque, newest first: depth-first execution of nested spawns.
  if (index < deques_.size() && !deques_[index].empty()) {
    out = std::move(deques_[index].back());
    deques_[index].pop_back();
    return true;
  }
  // Global inbox, oldest first: external submissions run in order.
  if (!inbox_.empty()) {
    out = std::move(inbox_.front());
    inbox_.pop_front();
    return true;
  }
  // Steal from the other workers, oldest first (their deque front is the
  // coarsest-grained work — the classic work-stealing heuristic).
  const unsigned n = static_cast<unsigned>(deques_.size());
  for (unsigned k = 1; k <= n; ++k) {
    const unsigned victim = (index + k) % n;
    if (victim == index || deques_[victim].empty()) continue;
    out = std::move(deques_[victim].front());
    deques_[victim].pop_front();
    return true;
  }
  return false;
}

void ParallelExecutor::runTask(Task task) {
  TaskGroup* group = task.group;
  try {
    task.fn();
  } catch (...) {
    std::scoped_lock lock(group->mu_);
    if (!group->exception_) group->exception_ = std::current_exception();
  }
  task.fn = nullptr;  // destroy captures before the completion signal
  group->pending_.fetch_sub(1, std::memory_order_acq_rel);
  pendingTotal_.fetch_sub(1, std::memory_order_acq_rel);
  // Wake waiters.  The lock/unlock pairs the counter update with the cv_
  // predicate checks: a wait() that read the old count under mu_ is blocked
  // by the time we acquire it, so the notify cannot be lost.
  { std::scoped_lock lock(mu_); }
  cv_.notify_all();
}

void ParallelExecutor::workerLoop(unsigned index) {
  t_worker = WorkerIdentity{this, index};
  std::unique_lock lock(mu_);
  for (;;) {
    Task task;
    if (popTask(index, task)) {
      lock.unlock();
      runTask(std::move(task));
      lock.lock();
      continue;
    }
    if (shutdown_) return;
    cv_.wait(lock);
  }
}

void ParallelExecutor::wait(TaskGroup& group) {
  // Helping wait: run pending tasks (any group's) instead of blocking, so a
  // task that spawns subtasks and waits cannot starve the fixed-size pool.
  // A worker thread helps from its own identity (own deque first); an
  // external thread helps as a pure thief.
  const unsigned helperIndex = t_worker.executor == this
                                   ? t_worker.index
                                   : static_cast<unsigned>(deques_.size());
  std::unique_lock lock(mu_);
  while (group.pending_.load(std::memory_order_acquire) != 0) {
    Task task;
    if (popTask(helperIndex, task)) {
      lock.unlock();
      runTask(std::move(task));
      lock.lock();
      continue;
    }
    // Nothing runnable: the group's remaining tasks are in flight on other
    // threads.  Sleep until a completion or a new submission wakes us.
    auto hasWorkLocked = [&] {
      if (!inbox_.empty()) return true;
      for (const auto& d : deques_)
        if (!d.empty()) return true;
      return false;
    };
    cv_.wait(lock, [&] {
      return group.pending_.load(std::memory_order_acquire) == 0 ||
             hasWorkLocked() || shutdown_;
    });
    DFV_CHECK_MSG(!shutdown_ ||
                      group.pending_.load(std::memory_order_acquire) == 0,
                  "executor shut down while a TaskGroup was pending");
  }
  lock.unlock();
  std::exception_ptr rethrow;
  {
    std::scoped_lock glock(group.mu_);
    rethrow = std::exchange(group.exception_, nullptr);
  }
  if (rethrow) std::rethrow_exception(rethrow);
}

}  // namespace dfv::core
