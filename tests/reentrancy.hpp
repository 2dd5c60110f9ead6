// Reentrancy check shared by the kernel determinism suites. Kernels are
// single-threaded; parallelism comes from task-level callers (scheduler
// workers, mapred executors, dist ranks) running kernels side by side. So a
// kernel must give the bits of a lone call when several tasks call it at
// once: no shared scratch, no hidden global state. Under TSan the same
// check is the kernels' race coverage.
#pragma once

#include <cstddef>
#include <future>
#include <latch>
#include <type_traits>
#include <vector>

#include "util/thread_pool.hpp"

namespace is2::test {

inline constexpr std::size_t kConcurrentTasks = 4;

/// Runs `fn` once alone, then from kConcurrentTasks util::ThreadPool tasks
/// released together by a latch, and calls `check(lone, concurrent)` on the
/// calling thread for each concurrent result.
template <class F, class Check>
void expect_reentrant(const F& fn, const Check& check) {
  using R = std::invoke_result_t<const F&>;
  const R lone = fn();
  std::vector<std::future<R>> futures;
  std::latch start(kConcurrentTasks);
  {
    util::ThreadPool pool(kConcurrentTasks);  // joined at scope exit
    for (std::size_t t = 0; t < kConcurrentTasks; ++t)
      futures.push_back(pool.submit([&] {
        start.arrive_and_wait();
        return fn();
      }));
  }
  for (auto& f : futures) check(lone, f.get());
}

}  // namespace is2::test
