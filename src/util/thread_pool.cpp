#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace hyperdrive::util {

namespace {

/// Set on parallel_for workers and fan_out helpers: a fan_out called there
/// runs inline, because the cores are already spoken for.
thread_local bool t_fan_out_inline = false;

/// The items of one parallel_for or fan_out call, on its caller's stack.
/// Threads claim them through `next`.
struct FanOutJob {
  FanOutJob(const std::function<void(std::size_t)>& f, std::size_t items) : fn(f), n(items) {}

  const std::function<void(std::size_t)>& fn;
  const std::size_t n;
  std::atomic<std::size_t> next{0};
  std::size_t attached = 0;  ///< fan_out helpers working on it; guarded by the pool's mutex
  std::mutex error_mutex;
  std::exception_ptr first_error;  ///< guarded by error_mutex

  /// Run item i, keeping the first exception any item throws.
  void run(std::size_t i) {
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  }
  /// Claim and run items until none is left.
  void drain() {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) run(i);
  }
  [[nodiscard]] bool claimable() const { return next.load(std::memory_order_relaxed) < n; }
};

/// The process-wide helpers behind fan_out. `busy_` counts the threads that
/// are inside fan_out as callers or attached to a job as helpers; a helper
/// attaches to a job, and claims each further item, only while the count
/// leaves it a core.
class FanOutPool {
 public:
  static FanOutPool& instance() {
    static FanOutPool pool;
    return pool;
  }

  FanOutPool(const FanOutPool&) = delete;
  FanOutPool& operator=(const FanOutPool&) = delete;

  ~FanOutPool() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    work_.notify_all();
    for (auto& t : helpers_) t.join();
  }

  [[nodiscard]] bool can_help() const noexcept { return cores_ > 1; }

  /// Run every item of `job`, the caller taking its share, and return once
  /// no helper is attached to it. The job is open to helpers even when the
  /// cores are full as it starts: a helper freed by another job may join it.
  void run(FanOutJob& job) {
    std::size_t wake = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const std::size_t busy = busy_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (busy < cores_) {
        if (helpers_.empty()) start_helpers_locked();
        wake = std::min(job.n - 1, cores_ - busy);
      }
      if (!helpers_.empty()) open_.push_back(&job);
    }
    for (std::size_t w = 0; w < wake; ++w) work_.notify_one();
    job.drain();
    std::unique_lock<std::mutex> lock(mutex_);
    open_.erase(std::remove(open_.begin(), open_.end(), &job), open_.end());
    busy_.fetch_sub(1, std::memory_order_relaxed);
    released_.wait(lock, [&job] { return job.attached == 0; });
  }

 private:
  FanOutPool() : cores_(std::thread::hardware_concurrency()) {}

  void start_helpers_locked() {
    try {
      for (std::size_t h = 1; h < cores_; ++h) helpers_.emplace_back(&FanOutPool::help, this);
    } catch (const std::system_error&) {
      // No thread to spare: the callers run their items with the helpers
      // that did start, if any.
    }
  }

  /// The open job with items left and the fewest helpers, while fewer
  /// threads than cores are busy.
  [[nodiscard]] FanOutJob* claimable_locked() const {
    if (busy_.load(std::memory_order_relaxed) >= cores_) return nullptr;
    FanOutJob* best = nullptr;
    for (FanOutJob* job : open_) {
      if (job->claimable() && (best == nullptr || job->attached < best->attached)) best = job;
    }
    return best;
  }

  void help() {
    t_fan_out_inline = true;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      FanOutJob* job = nullptr;
      work_.wait(lock, [&] { return stop_ || (job = claimable_locked()) != nullptr; });
      if (stop_) return;
      ++job->attached;
      busy_.fetch_add(1, std::memory_order_relaxed);
      lock.unlock();
      // busy_ counts this helper too: it keeps claiming while no other
      // thread has taken the core it is using.
      for (std::size_t i; busy_.load(std::memory_order_relaxed) <= cores_ &&
                          (i = job->next.fetch_add(1, std::memory_order_relaxed)) < job->n;) {
        job->run(i);
      }
      lock.lock();
      busy_.fetch_sub(1, std::memory_order_relaxed);
      if (--job->attached == 0) released_.notify_all();
    }
  }

  const std::size_t cores_;  ///< hardware_concurrency(); 0 when unknown
  std::mutex mutex_;
  std::condition_variable work_;      ///< helpers wait here for an open job
  std::condition_variable released_;  ///< callers wait here for their helpers
  std::vector<FanOutJob*> open_;      ///< jobs helpers may attach to; guarded by mutex_
  std::atomic<std::size_t> busy_{0};  ///< changed under mutex_, read by helpers without it
  bool stop_ = false;                 ///< guarded by mutex_
  std::vector<std::thread> helpers_;  ///< started by the first run that can use them
};

}  // namespace

void parallel_for(std::size_t n, std::size_t threads,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  const std::size_t workers = std::min(std::max<std::size_t>(1, threads), n);
  if (workers == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  FanOutJob job{fn, n};
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&job] {
      t_fan_out_inline = true;
      job.drain();
    });
  }
  for (auto& t : pool) t.join();
  if (job.first_error) std::rethrow_exception(job.first_error);
}

void fan_out(std::size_t n, const std::function<void(std::size_t)>& fn) {
  FanOutJob job{fn, n};
  if (n <= 1 || t_fan_out_inline || !FanOutPool::instance().can_help()) {
    job.drain();
  } else {
    FanOutPool::instance().run(job);
  }
  if (job.first_error) std::rethrow_exception(job.first_error);
}

}  // namespace hyperdrive::util
