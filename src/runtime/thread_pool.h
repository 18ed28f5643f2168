// Fixed-size thread-pool parallel runtime.
//
// The contract is determinism first: work is split into chunks whose
// boundaries depend ONLY on (begin, end, grain) -- never on the thread
// count -- and chunks are assigned to workers statically (round-robin, no
// atomic work-stealing). Because every chunk writes disjoint state and
// `parallel_reduce` combines per-chunk partials in ascending chunk order,
// results are bitwise identical at 1, 2, or 64 threads. Pool size comes
// from the PF_THREADS environment variable (default 1, so single-threaded
// behaviour -- and every seed test -- is unchanged; a malformed value
// throws) or `set_threads()`.
//
// Re-entrancy: a `parallel_for` issued from inside a pool worker, or while
// another thread is already dispatching (e.g. N shm-cluster workers all
// hitting GEMMs at once), degrades to an inline serial walk of the same
// chunk list. Same chunks, same order, same bits -- just one thread.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace pf::runtime {

// Active thread count (>= 1).
int threads();

// Resizes the global pool; n <= 0 resets to the PF_THREADS env default.
void set_threads(int n);

// Sanity cap on a requested thread count: a typo such as
// PF_THREADS=100000 must fail, not start 99,999 threads.
inline constexpr int kMaxThreads = 1024;

// The one parser for thread counts given as text (the PF_THREADS env var,
// a --threads flag): a plain decimal integer in [1, kMaxThreads]. Anything
// else -- non-numeric, trailing garbage, <= 0, overflow, above the cap --
// throws std::invalid_argument naming `source`.
int parse_threads(const std::string& text, const std::string& source);

namespace detail {
// Chunk width implied by `grain` (clamped to >= 1); boundaries are
// begin, begin+w, begin+2w, ... independent of the thread count.
int64_t chunk_width(int64_t grain);
// Runs fn(chunk_index, chunk_begin, chunk_end) over every chunk of
// [begin, end), concurrently when the pool is available.
void run_chunks(int64_t begin, int64_t end, int64_t grain,
                const std::function<void(int64_t, int64_t, int64_t)>& fn);
}  // namespace detail

// Applies fn(chunk_begin, chunk_end) over disjoint chunks covering
// [begin, end) exactly once. fn must not write outside its chunk's state.
inline void parallel_for(int64_t begin, int64_t end, int64_t grain,
                         const std::function<void(int64_t, int64_t)>& fn) {
  detail::run_chunks(begin, end, grain,
                     [&fn](int64_t, int64_t b, int64_t e) { fn(b, e); });
}

// Maps each chunk to a partial with `map(chunk_begin, chunk_end)` and folds
// the partials with `combine` in ascending chunk order, so floating-point
// results are bitwise reproducible at any thread count.
template <typename T, typename Map, typename Combine>
T parallel_reduce(int64_t begin, int64_t end, int64_t grain, T identity,
                  const Map& map, const Combine& combine) {
  if (end <= begin) return identity;
  const int64_t w = detail::chunk_width(grain);
  const int64_t n_chunks = (end - begin + w - 1) / w;
  std::vector<T> partials(static_cast<size_t>(n_chunks), identity);
  detail::run_chunks(begin, end, grain,
                     [&](int64_t c, int64_t b, int64_t e) {
                       partials[static_cast<size_t>(c)] = map(b, e);
                     });
  T acc = identity;
  for (const T& p : partials) acc = combine(acc, p);
  return acc;
}

}  // namespace pf::runtime
