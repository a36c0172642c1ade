// Persistent worker-thread pool for round-level and kernel-level
// parallelism, and the one parallel dispatch path of the library: spawning
// a thread team costs tens of microseconds, so a ThreadPool pays it once
// and then dispatches static chunks over sleeping workers.  Drivers use it
// for per-round work (honest-gradient computation, the p2p per-node filter
// loop) and, through AggregatorWorkspace::run_parallel, for the
// coordinate/pair loops inside the aggregation kernels.
//
// Determinism contract: parallel_for partitions [begin, end) into at most
// `width` contiguous chunks and runs fn(lo, hi) on each exactly once.  The
// partition is a pure function of (begin, end, width) — never of timing — so
// any computation whose per-index work is self-contained (each index reads
// shared inputs and writes its own output slot) produces bit-identical
// results at every thread count.  Every parallel site in this library is
// written to that rule; the determinism tests in tests/test_determinism.cpp
// enforce it end-to-end.
//
// The pool is not re-entrant, but nested dispatch is safe: a parallel_for
// issued from inside a running chunk (any pool) detects the nesting through
// a thread-local flag and degenerates to a direct serial call instead of
// deadlocking on the job slot.  Drivers still use the pool at exactly one
// level per phase — the fallback is a guard rail, not a scheduling feature.
//
// Exceptions: a chunk may throw.  The first exception raised (the calling
// thread's own chunk wins over workers') is captured and rethrown from
// parallel_for after every participating chunk has finished — remaining
// chunks are not cancelled, so partial side effects follow the same
// disjoint-writes rule as normal completion.  The pool stays usable after
// a throwing job.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace abft::agg {

namespace detail {
/// True while the current thread is executing a ThreadPool chunk (caller or
/// worker, any pool).  parallel_for consults it for the nested fallback.
bool& this_thread_in_pool_job() noexcept;
}  // namespace detail

class ThreadPool {
 public:
  /// A pool of total width `width` (the calling thread participates, so
  /// width - 1 workers are spawned; width <= 1 spawns none).
  explicit ThreadPool(int width);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int width() const noexcept { return width_; }

  /// Runs fn(lo, hi) over a static partition of [begin, end) using up to
  /// min(max_width, width()) threads including the caller.  Degenerates to a
  /// direct fn(begin, end) call when one thread suffices or when the caller
  /// is itself inside a pool chunk (nested dispatch) — those paths touch no
  /// synchronization at all.  If any chunk throws, the first exception is
  /// rethrown here after all chunks finish.
  template <typename Fn>
  void parallel_for(int begin, int end, int max_width, Fn&& fn) {
    const int range = end - begin;
    if (range <= 0) return;
    const int workers = std::min({max_width, width_, range});
    if (workers <= 1 || detail::this_thread_in_pool_job()) {
      fn(begin, end);
      return;
    }
    using Callable = std::remove_reference_t<Fn>;
    run_chunks(begin, end, workers,
               [](void* ctx, int lo, int hi) { (*static_cast<Callable*>(ctx))(lo, hi); },
               const_cast<void*>(static_cast<const void*>(std::addressof(fn))));
  }

 private:
  using InvokeFn = void (*)(void* ctx, int lo, int hi);

  /// Publishes one job (begin, end, workers, invoke, ctx), runs chunk 0 on
  /// the calling thread, blocks until every participating worker is done,
  /// and rethrows the job's first exception (caller's chunk preferred).
  void run_chunks(int begin, int end, int workers, InvokeFn invoke, void* ctx);
  void worker_loop(int slot);

  int width_ = 1;
  std::vector<std::thread> threads_;

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  // Job slot, written under mutex_ by run_chunks and read under mutex_ by
  // the workers; stable for the duration of one generation.
  std::uint64_t generation_ = 0;
  int job_begin_ = 0;
  int job_end_ = 0;
  int job_workers_ = 0;
  int job_chunk_ = 0;
  InvokeFn job_invoke_ = nullptr;
  void* job_ctx_ = nullptr;
  int pending_ = 0;
  bool stop_ = false;
  std::exception_ptr worker_error_;  ///< first worker exception of the job
};

}  // namespace abft::agg
