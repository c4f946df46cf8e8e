#include "util/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "util/error.hpp"

namespace tracon {

std::size_t hardware_threads() {
  unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<std::size_t>(n);
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  TRACON_REQUIRE(fn != nullptr, "parallel_for needs a body");
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }

  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto worker = [&] {
    for (;;) {
      std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        // Keep draining indices: sibling shards still need to run so
        // join() below cannot deadlock on unclaimed work, and one bad
        // shard should not abandon the others mid-flight.
      }
    }
  };

  std::size_t spawned = std::min(threads, n) - 1;  // caller is a worker too
  std::vector<std::thread> pool;
  pool.reserve(spawned);
  for (std::size_t t = 0; t < spawned; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void parallel_ordered(std::size_t threads, std::size_t n, std::size_t window,
                      const std::function<void(std::size_t)>& produce,
                      const std::function<void(std::size_t)>& consume) {
  TRACON_REQUIRE(produce != nullptr && consume != nullptr,
                 "parallel_ordered needs a producer and a consumer");
  TRACON_REQUIRE(window > 0,
                 "parallel_ordered needs a window of at least one item");
  // More workers than items in flight would only wait.
  const std::size_t spawned =
      threads <= 1 || n <= 1 ? 0 : std::min({threads, n, window}) - 1;
  if (spawned == 0) {
    for (std::size_t i = 0; i < n; ++i) {
      produce(i);
      consume(i);
    }
    return;
  }

  std::mutex mutex;
  std::condition_variable changed;
  // Guarded by `mutex`: items [consumed, claimed) are in flight, and
  // produced[i % window] marks item i of them as ready to consume.
  std::size_t claimed = 0;
  std::size_t consumed = 0;
  std::vector<char> produced(window, 0);
  std::exception_ptr error;

  auto claimable = [&] { return claimed < n && claimed < consumed + window; };
  // Records the first failure and wakes everyone, so no one waits on an
  // item that will never come. Called with `mutex` held.
  auto fail = [&](std::exception_ptr e) {
    if (!error) error = std::move(e);
    changed.notify_all();
  };
  auto worker = [&] {
    std::unique_lock<std::mutex> lock(mutex);
    for (;;) {
      changed.wait(lock, [&] { return error || claimed == n || claimable(); });
      if (error || claimed == n) return;
      const std::size_t i = claimed++;
      lock.unlock();
      std::exception_ptr failed;
      try {
        produce(i);
      } catch (...) {
        failed = std::current_exception();
      }
      lock.lock();
      if (failed) {
        fail(std::move(failed));
        return;
      }
      produced[i % window] = 1;
      if (i == consumed) changed.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(spawned);
  try {
    for (std::size_t t = 0; t < spawned; ++t) pool.emplace_back(worker);
  } catch (...) {
    std::lock_guard<std::mutex> lock(mutex);
    fail(std::current_exception());
  }
  // The caller consumes the next item once it is ready, and produces
  // one itself while it waits.
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (!error && consumed < n) {
      changed.wait(lock, [&] {
        return error || produced[consumed % window] || claimable();
      });
      if (error) break;
      const bool ready = produced[consumed % window] != 0;
      const std::size_t i = ready ? consumed : claimed++;
      lock.unlock();
      std::exception_ptr failed;
      try {
        if (ready) {
          consume(i);
        } else {
          produce(i);
        }
      } catch (...) {
        failed = std::current_exception();
      }
      lock.lock();
      if (failed) {
        fail(std::move(failed));
      } else if (ready) {
        produced[i % window] = 0;
        ++consumed;
        changed.notify_all();  // a slot is free
      } else {
        produced[i % window] = 1;
      }
    }
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

}  // namespace tracon
