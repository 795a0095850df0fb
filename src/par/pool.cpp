#include "par/pool.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/context.hpp"
#include "obs/obs.hpp"

namespace xring::par {

namespace {

constexpr long kMaxJobs = 512;

/// XRING_JOBS as a whole integer >= 1 (clamped to kMaxJobs), or 0 when it is
/// unset, empty or malformed. A malformed value is diagnosed, not guessed
/// at: "8abc" is not 8.
int env_jobs() {
  const char* s = std::getenv("XRING_JOBS");
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || errno == ERANGE || v < 1) {
    obs::diagnose(obs::Severity::kWarning, "par.bad_jobs_env",
                  std::string("XRING_JOBS='") + s +
                      "' is not a whole number >= 1; using hardware sizing",
                  {{"value", s}});
    return 0;
  }
  return static_cast<int>(std::min(v, kMaxJobs));
}

}  // namespace

int hardware_jobs() {
  const unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

int resolve_jobs(int requested) {
  if (requested > 0) return std::min(requested, static_cast<int>(kMaxJobs));
  const int env = env_jobs();
  if (env > 0) return env;
  return hardware_jobs();
}

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int w = 0; w < jobs_ - 1; ++w) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // A 1-job pool has no worker to run what was submitted to it.
  while (!tasks_.empty()) {
    std::function<void()> task = std::move(tasks_.front());
    tasks_.pop_front();
    task();
  }
}

void ThreadPool::submit(std::function<void()> task) {
  // Capture the submitter's observability context (nullptr = root) and
  // install it around the task body, so the worker that runs the task
  // records its spans/metrics/events into the run that submitted it. The
  // root path stays wrapper-free.
  if (obs::Context* ctx = obs::current_context()) {
    task = [ctx, inner = std::move(task)] {
      obs::ScopedContext scope(*ctx);
      inner();
    };
  }
  std::size_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    tasks_.push_back(std::move(task));
    depth = tasks_.size();
  }
  cv_.notify_one();
  if (obs::enabled()) {
    obs::Registry& reg = obs::registry();
    reg.counter("par.tasks").add();
    reg.histogram("par.queue_depth").observe(static_cast<double>(depth));
  }
}

void ThreadPool::worker_loop() {
  // Root the phase sampler's stacks for pool threads: samples taken while a
  // worker runs tasks fold under "par.worker" instead of an anonymous tid.
  obs::set_thread_label("par.worker");
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping, and nothing left to drain
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();
  }
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
int g_jobs_override = 0;  // 0 = env/hardware sizing

}  // namespace

ThreadPool& global_pool() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  if (!g_pool) g_pool = std::make_unique<ThreadPool>(g_jobs_override);
  return *g_pool;
}

void set_jobs(int jobs) {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  g_jobs_override = jobs > 0 ? jobs : 0;
  const int want = resolve_jobs(g_jobs_override);
  if (g_pool && g_pool->jobs() == want) return;
  g_pool.reset();  // joins workers and drains leftovers
  g_pool = std::make_unique<ThreadPool>(want);
}

int effective_jobs() {
  std::lock_guard<std::mutex> lk(g_pool_mu);
  return g_pool ? g_pool->jobs() : resolve_jobs(g_jobs_override);
}

namespace detail {

namespace {

/// Shared state of one parallel_for. A helper task that runs after the loop
/// finished sees the cursor exhausted and returns without touching the (by
/// then dead) body.
struct ForState {
  long begin = 0;
  long end = 0;
  long grain = 1;
  long chunks = 0;
  std::function<void(long, long)> run_range;  // [lo, hi)
  std::atomic<long> next{0};
  std::atomic<long> done{0};
  std::mutex mu;
  std::condition_variable cv;
  std::atomic<bool> failed{false};
  long failed_chunk = -1;  // lowest failing chunk wins (deterministic rethrow)
  std::exception_ptr error;
};

/// Claims and runs chunks until none is left.
void drive(const std::shared_ptr<ForState>& st) {
  for (;;) {
    const long c = st->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= st->chunks) return;
    if (!st->failed.load(std::memory_order_relaxed)) {
      const long lo = st->begin + c * st->grain;
      const long hi = std::min(st->end, lo + st->grain);
      try {
        st->run_range(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lk(st->mu);
        if (st->failed_chunk < 0 || c < st->failed_chunk) {
          st->failed_chunk = c;
          st->error = std::current_exception();
        }
        st->failed.store(true, std::memory_order_relaxed);
      }
    }
    if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 == st->chunks) {
      std::lock_guard<std::mutex> lk(st->mu);
      st->cv.notify_all();
      return;
    }
  }
}

}  // namespace

void run_for(ThreadPool& pool, long begin, long end, long grain,
             const std::function<void(long, long)>& run_range) {
  if (end <= begin) return;
  if (grain < 1) grain = 1;
  const long chunks = (end - begin + grain - 1) / grain;
  if (pool.workers() == 0 || chunks <= 1) {
    run_range(begin, end);  // serial, in order
    return;
  }
  auto st = std::make_shared<ForState>();
  st->begin = begin;
  st->end = end;
  st->grain = grain;
  st->chunks = chunks;
  st->run_range = run_range;
  const long helpers = std::min<long>(pool.workers(), chunks - 1);
  for (long h = 0; h < helpers; ++h) {
    pool.submit([st] { drive(st); });
  }
  drive(st);
  // Every chunk is claimed; wait for the ones other threads are running.
  {
    std::unique_lock<std::mutex> lk(st->mu);
    st->cv.wait(lk, [&] {
      return st->done.load(std::memory_order_acquire) == chunks;
    });
  }
  if (st->error) std::rethrow_exception(st->error);
}

}  // namespace detail

}  // namespace xring::par
