// Bounded worker pool for the sharded simulator and the merged-log
// writers.
//
// This file (together with src/sim/shard_*) is the sanctioned home of
// raw threading primitives — tracon_analyze's raw-thread rule errors on
// std::thread / std::async / mutexes anywhere else in src/, so
// nondeterministic concurrency cannot leak into simulation code. The
// contract every caller relies on: parallel_for runs side-effect-
// isolated closures (each index touches only its own state), so the
// RESULT of a parallel_for is independent of the worker count — only
// the wall-clock time changes. parallel_ordered keeps the same contract
// for a pipeline: items are produced in any order on the pool, and
// consumed on the caller strictly in index order, so what the consumer
// sees does not depend on the worker count either.
#pragma once

#include <cstddef>
#include <functional>

namespace tracon {

/// Number of hardware threads, never 0 (falls back to 1 when the
/// platform reports nothing).
std::size_t hardware_threads();

/// Runs fn(0), fn(1), ..., fn(n-1) on up to `threads` workers (the
/// calling thread participates; `threads` <= 1 or n <= 1 degrade to a
/// plain serial loop with no thread spawned). Indices are claimed from
/// a shared atomic counter, so scheduling is dynamic, but fn must make
/// each index's work independent of every other's — the function
/// returns only after all indices completed. The first exception thrown
/// by any fn is rethrown on the caller after every worker has joined.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Runs produce(0), ..., produce(n-1) on up to `threads` workers (the
/// calling thread is one of them) and consume(0), ..., consume(n-1) on
/// the calling thread, strictly in that order, each consume(i) after
/// produce(i) has returned. At most `window` items (> 0) are claimed and
/// not yet consumed at any time: item i + window is claimed only after
/// consume(i) has returned, so a caller can keep item i's state in slot
/// i % window of a ring it owns. `threads` <= 1 or n <= 1 run produce(i)
/// then consume(i) in turn, with no thread spawned. produce must make
/// each item's work independent of every other's. The first exception
/// thrown by any produce or consume stops the claiming of items and is
/// rethrown on the caller after every worker has joined.
void parallel_ordered(std::size_t threads, std::size_t n, std::size_t window,
                      const std::function<void(std::size_t)>& produce,
                      const std::function<void(std::size_t)>& consume);

}  // namespace tracon
