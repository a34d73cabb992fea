#include "core/parallel.h"

#include <chrono>
#include <exception>
#include <optional>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "fault/fault.h"

namespace dfv::core {

// ----- ParallelExecutor ------------------------------------------------------

namespace {

// Which executor/worker the current thread belongs to.  A worker thread
// serves exactly one executor for its lifetime; external threads (and the
// helping thread inside wait()) keep the {nullptr, 0} default.
struct WorkerIdentity {
  const ParallelExecutor* executor = nullptr;
  unsigned index = 0;
};
thread_local WorkerIdentity t_worker;

double secondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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

// ----- Portfolio -------------------------------------------------------------

std::vector<PortfolioMember> buildPortfolio(const sec::SecOptions& base,
                                            const PortfolioOptions& opts) {
  constexpr std::uint64_t kSeedBase = 0x5eedbeef;
  DFV_CHECK_MSG(opts.members >= 1, "a portfolio needs at least one member");
  std::vector<PortfolioMember> members;
  members.reserve(opts.members);
  members.push_back(PortfolioMember{0, "base", base});
  for (unsigned i = 1; i < opts.members; ++i) {
    PortfolioMember m;
    m.index = i;
    m.options = base;
    std::ostringstream name;
    name << "m" << i;
    // Deterministic diversification: the seed varies on every member, and
    // the low bits of (i-1) select which heuristics flip, so successive
    // members cycle through the combinations in a fixed order.
    const unsigned k = i - 1;
    m.options.solver.seed = kSeedBase + i;
    m.options.fraigOptions.seed = kSeedBase + i;
    name << ":seed" << i;
    if ((k & 1u) != 0) {
      m.options.solver.restartPolicy = sat::RestartPolicy::kGeometric;
      name << ":geom";
    }
    if ((k & 2u) != 0) {
      m.options.solver.phaseSaving = false;
      name << ":nophase";
    }
    if (opts.varyFraig && (k & 4u) != 0) {
      m.options.fraig = !base.fraig;
      name << (m.options.fraig ? ":fraig" : ":nofraig");
    }
    m.name = name.str();
    members.push_back(std::move(m));
  }
  return members;
}

PortfolioOutcome racePortfolio(
    ParallelExecutor& exec, const std::vector<PortfolioMember>& members,
    const std::function<sec::SecResult(const sec::SecOptions&)>& runner) {
  DFV_CHECK_MSG(!members.empty(), "empty portfolio");
  DFV_CHECK_MSG(runner != nullptr, "null runner");
  PortfolioOutcome outcome;
  outcome.attempts.resize(members.size());
  std::atomic<bool> cancelFlag{false};
  std::atomic<int> winner{-1};
  const fault::Injector* proto = fault::currentInjector();

  ParallelExecutor::TaskGroup group;
  for (std::size_t i = 0; i < members.size(); ++i) {
    exec.submit(group, [&, i] {
      MemberAttempt& a = outcome.attempts[i];
      a.index = members[i].index;
      a.name = members[i].name;
      // Each racer replays the caller's injection schedule from hit zero on
      // its own thread — (seed, site, hit) purity per member.
      std::optional<fault::ScopedInjector> si;
      if (proto != nullptr) si.emplace(*proto);
      sec::SecOptions o = members[i].options;
      o.bmcBudget.cancel = &cancelFlag;
      o.inductionBudget.cancel = &cancelFlag;
      o.fraigOptions.candidateBudget.cancel = &cancelFlag;
      const auto t0 = std::chrono::steady_clock::now();
      try {
        a.result = runner(o);
        if (a.result.verdict != sec::Verdict::kInconclusive) {
          int expected = -1;
          if (winner.compare_exchange_strong(expected, static_cast<int>(i)))
            cancelFlag.store(true, std::memory_order_release);
        } else {
          a.cancelled = cancelFlag.load(std::memory_order_acquire);
        }
      } catch (const std::exception& ex) {
        a.faulted = true;
        a.error = ex.what();
      }
      a.seconds = secondsSince(t0);
      if (si.has_value()) a.faultInjections = si->injector().totalInjections();
    });
  }
  exec.wait(group);
  outcome.winner = winner.load();
  return outcome;
}

}  // namespace dfv::core
