#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace dfv::core {

ParallelExecutor::ParallelExecutor(unsigned workers)
    : workers_(workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency())) {}

unsigned ParallelExecutor::forEach(
    std::size_t n, const std::function<void(std::size_t)>& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards first
  std::exception_ptr first;
  auto claimLoop = [&] {
    for (std::size_t i = next++; i < n; i = next++) {
      try {
        fn(i);
      } catch (...) {
        std::scoped_lock lock(mu);
        if (!first) first = std::current_exception();
      }
    }
  };
  const std::size_t spawn =
      std::min<std::size_t>(workers_, n == 0 ? 0 : n - 1);
  {
    // Declared after the loop's state, so an emplace that throws still
    // joins the threads already running before that state goes away.
    std::vector<std::jthread> threads;
    threads.reserve(spawn);
    for (std::size_t t = 0; t < spawn; ++t) threads.emplace_back(claimLoop);
    claimLoop();
  }  // joins
  if (first) std::rethrow_exception(first);
  return static_cast<unsigned>(spawn + 1);
}

}  // namespace dfv::core
