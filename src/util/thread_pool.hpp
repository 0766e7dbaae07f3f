// parallel_for — fan independent work items out across worker threads. The
// sweep engine runs its cells on it (core::run_sweep, DESIGN.md §8).
#pragma once

#include <cstddef>
#include <functional>

namespace hyperdrive::util {

/// Run fn(i) for i in [0, n) across `threads` workers and wait. Workers take
/// indices in increasing order. Exceptions from any invocation are rethrown
/// (first one wins).
void parallel_for(std::size_t n, std::size_t threads, const std::function<void(std::size_t)>& fn);

}  // namespace hyperdrive::util
