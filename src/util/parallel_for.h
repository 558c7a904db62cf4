#pragma once
// util::parallel_for — the index-parallel loop behind sweeps and batch scans.
//
// Design rules that keep parallel results bit-identical to serial runs:
//   * no shared randomness — every task derives its own util::Rng from its
//     config seed, so scheduling order is irrelevant;
//   * parallel_for writes results by index, never by completion order;
//   * a requested size of 1 (or a single-item range) runs inline on the
//     calling thread, so the serial baseline has zero threading overhead.

#include <cstddef>
#include <functional>

namespace noodle::util {

/// Resolves a requested thread count: 0 -> hardware_concurrency, and never
/// more threads than items of work.
std::size_t resolve_thread_count(std::size_t requested, std::size_t work_items);

/// Runs fn(0) .. fn(count - 1), each index exactly once, across `threads`
/// workers (0 = hardware_concurrency): the calling thread plus threads - 1
/// helpers started for this call. Indices are claimed from an atomic
/// counter, so work stays balanced even when task durations vary. Blocks
/// until every index finished. The first exception thrown by any task is
/// rethrown on the calling thread after all workers stop claiming new work.
/// With threads <= 1 or count <= 1 the loop runs inline, in index order.
void parallel_for(std::size_t count, std::size_t threads,
                  const std::function<void(std::size_t)>& fn);

}  // namespace noodle::util
