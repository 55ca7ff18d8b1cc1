// Share-nothing parallel sweep runner: the one place in `src/` that
// starts threads.
//
// Profiling and the figure benches run many independent single-threaded
// simulations (grid cells, load sweeps, seeds, configurations).
// `parallel_for` fans them out over short-lived workers; each item gets its
// own simulation engine and RNG stream, so results are independent of the
// thread count and identical to a serial run. There is no persistent pool:
// every call spawns and joins its workers, which costs well under a
// millisecond, small against the simulations one call fans out.
// `parallel_map` collects results in index order no matter which worker
// finishes first, so a table built from them is identical at --jobs 1 and
// --jobs 8.
#pragma once

#include <cstddef>
#include <functional>
#include <thread>
#include <type_traits>
#include <vector>

namespace amoeba::exp {

/// Effective worker count: `requested`, or hardware concurrency when 0
/// (at least 1).
[[nodiscard]] inline unsigned effective_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Apply `fn(index)` for every index in [0, n) using up to `threads`
/// workers; with one worker every index runs on the calling thread.
/// `fn` must be thread-safe across distinct indices. Exceptions propagate:
/// the first one thrown is rethrown on the caller thread after every
/// worker has been joined.
void parallel_for(std::size_t n, unsigned threads,
                  const std::function<void(std::size_t)>& fn);

/// Map `fn` over [0, n), collecting results in index order. Workers write
/// disjoint elements, so `T` must not be `bool`: `std::vector<bool>` packs
/// neighbouring elements into one word and concurrent writes would race.
template <typename T>
[[nodiscard]] std::vector<T> parallel_map(
    std::size_t n, unsigned threads,
    const std::function<T(std::size_t)>& fn) {
  static_assert(!std::is_same_v<T, bool>,
                "parallel_map<bool> races on std::vector<bool>'s packed bits");
  std::vector<T> out(n);
  parallel_for(n, threads, [&out, &fn](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Parse and consume a `--jobs N` / `--jobs=N` flag from argv (the shared
/// worker-count flag of the fig/abl bench binaries). Returns 1 when absent
/// — sweeps are serial unless asked otherwise. The flag and its value are
/// removed from argv so later flag parsers never see them. A value outside
/// [1, 1024], or a missing one, is rejected.
[[nodiscard]] unsigned parse_jobs_flag(int& argc, char** argv);

}  // namespace amoeba::exp
