// Bounded worker pool for the sharded simulator.
//
// This file (together with src/sim/shard_*) is the sanctioned home of
// raw threading primitives — tracon_analyze's raw-thread rule errors on
// std::thread / std::async / mutexes anywhere else in src/, so
// nondeterministic concurrency cannot leak into simulation code. The
// contract every caller relies on: parallel_for runs side-effect-
// isolated closures (each index touches only its own state), so the
// RESULT of a parallel_for is independent of the worker count — only
// the wall-clock time changes.
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

}  // namespace tracon
