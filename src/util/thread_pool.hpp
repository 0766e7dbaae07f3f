// parallel_for and fan_out — fan independent work items out across threads.
// The sweep engine runs its cells on parallel_for (core::run_sweep,
// DESIGN.md §8); the curve fitter runs its per-family fits on fan_out
// (curve::fit_families, DESIGN.md §11).
#pragma once

#include <cstddef>
#include <functional>

namespace hyperdrive::util {

/// Run fn(i) for i in [0, n) across `threads` workers and wait. Workers take
/// indices in increasing order. Exceptions from any invocation are rethrown
/// (first one wins).
void parallel_for(std::size_t n, std::size_t threads, const std::function<void(std::size_t)>& fn);

/// Run fn(i) for i in [0, n) and wait, on the calling thread and on whatever
/// cores nothing else is using. The caller claims items itself; a
/// process-wide pool of hardware_concurrency() - 1 helpers, started by the
/// first call that can use them, claims the rest only while fewer threads
/// than cores are inside fan_out or helping. A call from a parallel_for
/// worker (a sweep that already fills the cores) or with n <= 1 runs every
/// item on the calling thread. Items run in any order on any of these
/// threads, so each must write only its own state. If any throws, the first
/// exception is rethrown once every item has finished.
void fan_out(std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace hyperdrive::util
