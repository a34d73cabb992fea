// Parallel plan execution: one block-claim loop.
//
// Every layer below core is deliberately deterministic and single-threaded,
// so this file is where concurrency is allowed to exist.  Plan blocks are
// independent, so running them side by side needs nothing more than
// threads claiming block indices in order.  One SEC check is never split
// across threads (the engine's one incremental miter pays each BMC depth's
// cost once), so a block reports the same verdict and counters on any
// thread as in a serial run.  The plan runner installs a per-block clone
// of the caller's fault injector, so the (seed, site, hit) firing contract
// holds per block regardless of which thread runs it.
#pragma once

#include <cstddef>
#include <functional>

namespace dfv::core {

/// A thread count and one call.  forEach(n, fn) spawns min(workers(), n-1)
/// threads; they and the calling thread claim indices 0, 1, ... from one
/// atomic counter until all n have run, then the spawned threads are
/// joined.  No thread outlives the call.
class ParallelExecutor {
 public:
  /// Up to `workers` threads join the caller in each forEach (0 =
  /// std::thread::hardware_concurrency, min 1).
  explicit ParallelExecutor(unsigned workers = 0);

  unsigned workers() const { return workers_; }

  /// Calls fn(i) once for every i in [0, n) and returns how many threads
  /// ran the claim loop (1 + the threads spawned).  A throwing call does
  /// not stop the loop: every index still runs, and the first exception
  /// thrown is rethrown once every thread has joined.
  unsigned forEach(std::size_t n, const std::function<void(std::size_t)>& fn);

 private:
  unsigned workers_;
};

}  // namespace dfv::core
