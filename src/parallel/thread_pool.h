// Minimal data-parallel utility layer: a persistent worker pool with
// static partitioning of index ranges.
//
// The engine's sweeps, trace ingestion, and graph construction all follow
// the same pattern: a pure per-index evaluation over [0, count) whose
// results are folded sequentially afterwards (so output stays byte-identical
// to a single-threaded run regardless of worker count). ThreadPool::for_ranges
// serves exactly that pattern and nothing more:
//
//   * [0, count) is split into at most size() contiguous ranges, one per
//     worker, in ascending order (worker w owns lower indices than w+1).
//     Concatenating per-worker result buffers in worker order therefore
//     preserves ascending index order — the deterministic merge every
//     caller relies on.
//   * The calling thread participates as worker 0, so a pool of size N
//     creates N-1 threads and a pool of size 1 creates none and runs the
//     callback inline — byte-for-byte the sequential code path.
//   * Exceptions thrown by the callback are captured per worker and the
//     lowest-indexed one is rethrown on the caller; because ranges are
//     ascending, that is the exception a sequential loop would have hit
//     first (workers stop their own range at the first throw).
//   * Nested use is rejected: calling for_ranges from inside a callback on
//     the same pool throws std::logic_error instead of deadlocking.
//
// No external dependencies: <thread>, <mutex>, <condition_variable> only.
#pragma once

#include <cstddef>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace mapit::parallel {

/// Resolves a user-facing thread-count option: 0 means "auto" (one worker
/// per hardware thread); anything else is used as given. Never returns 0.
[[nodiscard]] unsigned resolve_threads(unsigned requested);

class ThreadPool {
 public:
  /// Creates a pool of resolve_threads(threads) workers (the caller counts
  /// as one; threads-1 std::threads are spawned). threads == 1 spawns
  /// nothing and makes for_ranges run inline.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread.
  [[nodiscard]] unsigned size() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// fn(worker, begin, end): process the half-open index range [begin, end).
  /// `worker` in [0, size()) identifies the executing partition — use it to
  /// select per-worker scratch/result buffers.
  using RangeFn = std::function<void(unsigned worker, std::size_t begin,
                                     std::size_t end)>;

  /// Splits [0, count) into size() contiguous ascending ranges and runs fn
  /// on each concurrently (worker 0 = the calling thread). Blocks until all
  /// ranges finish. Workers whose range is empty never invoke fn. Rethrows
  /// the lowest-indexed worker's exception, if any. Throws std::logic_error
  /// when called re-entrantly from inside a callback on this pool.
  void for_ranges(std::size_t count, const RangeFn& fn);

  /// The half-open subrange of [0, count) that partition `part` of `parts`
  /// owns: near-equal sizes, remainder spread over the leading partitions,
  /// ascending and disjoint. Exposed for tests.
  [[nodiscard]] static std::pair<std::size_t, std::size_t> partition(
      std::size_t count, unsigned parts, unsigned part);

 private:
  void worker_loop(unsigned worker);
  void run_partition(unsigned worker);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const RangeFn* job_ = nullptr;     ///< current callback (guarded by mutex_)
  std::size_t job_count_ = 0;        ///< current index-space size
  std::uint64_t generation_ = 0;     ///< bumped once per for_ranges call
  unsigned pending_ = 0;             ///< spawned workers still running
  bool stopping_ = false;
  bool busy_ = false;                ///< a for_ranges call is in flight
  std::vector<std::exception_ptr> errors_;  ///< one slot per worker
};

/// A pool of resolve_threads(threads) workers for one pass over `items`,
/// or nullptr when the pass would run on the calling thread alone (one
/// worker, or at most one item).
[[nodiscard]] std::unique_ptr<ThreadPool> pool_for(unsigned threads,
                                                   std::size_t items);

/// One-shot convenience: runs fn over [0, count) on `pool` when it can go
/// parallel (non-null, size > 1, count > 0), else inline on the caller.
/// Callers use this to keep the threads == 1 path free of pool machinery.
void for_ranges(ThreadPool* pool, std::size_t count,
                const ThreadPool::RangeFn& fn);

}  // namespace mapit::parallel
