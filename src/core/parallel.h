// Parallel plan execution: a work-stealing thread pool and a solver-portfolio
// racer.
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
//     fan-out (a block task racing portfolio members) cannot deadlock a
//     fixed-size pool.
//   * Portfolio racing — buildPortfolio() derives diversified but fully
//     deterministic SecOptions variants (solver seed, phase saving,
//     restart policy, optionally fraig) and racePortfolio() runs
//     them concurrently, takes the first decisive verdict, and cancels the
//     losers through sat::Budget::cancel — cooperative, never a thread
//     kill, so every solver stays valid.  WHICH member wins may depend on
//     scheduling; WHAT the winner computed never does: re-running the
//     recorded winner's options on one thread reproduces its verdict and
//     solver statistics bit-for-bit (asserted by tests/parallel_test.cpp).
//
// One SEC check is never split across workers: the engine's single
// incremental miter pays each BMC depth's cost once, so parallelism lives
// at the block and portfolio level only.
//
// Fault injection composes: tasks that verify blocks or race members
// install a per-task clone of the caller's injector (fault::ScopedInjector
// proto copy), so the pure (seed, site, hit) firing contract holds per
// worker regardless of how tasks are scheduled.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sec/engine.h"

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

/// How buildPortfolio diversifies SecOptions into racing members.  Member
/// 0 is always the unmodified base; member i >= 1 gets solver and fraig seed
/// 0x5eedbeef + i and cycles deterministically through {geometric
/// restarts, phase saving off, fraig toggled (only with varyFraig)} on
/// bits 0-2 of i - 1.  Everything derives from (base, this struct) — no
/// RNG, no clock — so the same inputs always name the same portfolio.
struct PortfolioOptions {
  unsigned members = 3;  ///< total racers, including the base (1 = no race)
  /// Off by default: fraig-off members lose the repo's main rescue for
  /// hard miters (see CLAUDE.md), so only opt in where base fraig-on
  /// might itself be the pathological configuration.
  bool varyFraig = false;
};

/// One racer: index in the portfolio, a stable human-readable name
/// (recorded in reports as portfolio_winner_name), and the options to run.
struct PortfolioMember {
  unsigned index = 0;
  std::string name;
  sec::SecOptions options;
};

/// Derives the deterministic member list (see PortfolioOptions).  The
/// returned options carry no cancel flags; racePortfolio installs those.
std::vector<PortfolioMember> buildPortfolio(const sec::SecOptions& base,
                                            const PortfolioOptions& opts);

/// What one member did during a race.  Loser results are still recorded —
/// their stats describe the truncated run and vary with scheduling; only
/// the winner's row is a deterministic replay fingerprint.
struct MemberAttempt {
  unsigned index = 0;
  std::string name;
  sec::SecResult result;
  bool cancelled = false;  ///< returned inconclusive with the flag raised
  bool faulted = false;    ///< the runner threw; `error` has the message
  std::string error;
  double seconds = 0.0;
  std::uint64_t faultInjections = 0;
};

/// Result of racing a portfolio.  winner == -1 means no member reached a
/// decisive (non-inconclusive) verdict: callers should treat the block as
/// inconclusive using attempts[0] (deterministic choice), or faulted when
/// attempts[0].faulted.
struct PortfolioOutcome {
  int winner = -1;
  std::vector<MemberAttempt> attempts;  ///< in member order
};

/// Races `members` over `runner` on `exec`.  The first decisive verdict
/// wins and raises the shared cancel flag (wired into each member's
/// bmc/induction/fraig budgets); losers observe it at their next budget
/// check and return kInconclusive.  Each member task installs a fresh
/// clone of the caller's fault injector (when one is live), so injection
/// schedules are per-member deterministic.  Safe to call from inside an
/// executor task (wait() helps).
PortfolioOutcome racePortfolio(
    ParallelExecutor& exec, const std::vector<PortfolioMember>& members,
    const std::function<sec::SecResult(const sec::SecOptions&)>& runner);

}  // namespace dfv::core
