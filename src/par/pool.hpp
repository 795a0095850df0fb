#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xring::par {

/// A small thread pool: `jobs - 1` background workers taking tasks from one
/// mutex-guarded FIFO. The pool's *jobs* count is the total concurrency it
/// represents — the workers plus the thread that drives work into it
/// (parallel_for executes chunks on the calling thread), so a 1-job pool
/// spawns no threads and runs everything inline.
///
/// Destruction finishes: workers drain every queued task before exiting,
/// and whatever is still queued after they are joined runs on the
/// destructing thread. Task counts and queue depth are recorded into the obs
/// registry (`par.tasks`, `par.queue_depth`) when tracing is enabled.
///
/// Observability contexts propagate across the pool boundary: submit()
/// captures the submitting thread's installed obs::Context (obs/context.hpp)
/// and installs it in the executing thread for exactly the task's duration.
/// parallel_for funnels through submit(), so two runs scoped in different
/// contexts can share one pool and still record into fully disjoint
/// registries. The submitter's context must outlive its tasks; parallel_for
/// waits for its tasks, so a context scoped around the parallel section (or
/// the whole synthesis call) always satisfies that.
class ThreadPool {
 public:
  /// `jobs <= 0` resolves to resolve_jobs(0) (XRING_JOBS env, then
  /// hardware_concurrency).
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency: background workers + the submitting thread.
  int jobs() const { return jobs_; }
  /// Background worker threads only (jobs() - 1).
  int workers() const { return static_cast<int>(threads_.size()); }

  /// Appends a task to the queue; the next idle worker runs it.
  void submit(std::function<void()> task);

 private:
  void worker_loop();

  int jobs_ = 1;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
};

/// Effective hardware parallelism (>= 1 even when unknown).
int hardware_jobs();

/// Resolves a jobs request: explicit `requested` > 0 wins, then the
/// XRING_JOBS environment variable, then hardware_jobs(). XRING_JOBS must be
/// a whole integer >= 1; anything else is diagnosed (`par.bad_jobs_env`)
/// and ignored. Both sources are clamped to 512.
int resolve_jobs(int requested);

/// The process-wide pool. Created on first use with resolve_jobs(0) unless
/// set_jobs() ran first. The reference stays valid until the next set_jobs().
ThreadPool& global_pool();

/// Resizes the global pool (0 = back to env/hardware sizing). Must not be
/// called while work is in flight on the global pool.
void set_jobs(int jobs);

/// The job count the global pool has (or would be created with).
int effective_jobs();

namespace detail {

/// Runs `run_range` over grain-sized chunks of [begin, end); see
/// parallel_for.
void run_for(ThreadPool& pool, long begin, long end, long grain,
             const std::function<void(long, long)>& run_range);

}  // namespace detail

/// Calls `body(i)` for every i in [begin, end), possibly concurrently.
/// Iterations are grouped into `grain`-sized chunks claimed through one
/// atomic cursor by the calling thread and up to jobs() - 1 helper tasks,
/// so the loop completes even on a 1-job pool (where it runs perfectly
/// serially, in order). If any invocation throws, remaining chunks are
/// abandoned and the exception from the lowest-indexed failing chunk is
/// rethrown on the caller.
///
/// Nested loops complete without help from the pool: the caller keeps
/// claiming chunks until none is left and then waits only for chunks other
/// threads are already running, so an inner loop whose helpers never get a
/// worker simply runs on the thread that started it.
template <class Body>
void parallel_for(ThreadPool& pool, long begin, long end, Body&& body,
                  long grain = 1) {
  // Safe to capture the body by reference: run_for returns only after every
  // claimed chunk finished, and late helper tasks never reach it.
  detail::run_for(pool, begin, end, grain, [&body](long lo, long hi) {
    for (long i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace xring::par
