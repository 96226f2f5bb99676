#include "device/thread_pool.h"

#include <algorithm>

namespace gbdt::device {

namespace {
thread_local std::int64_t t_current_chunk = -1;

/// RAII setter for the thread-local chunk identity.
struct ChunkScope {
  explicit ChunkScope(std::uint64_t c) {
    t_current_chunk = static_cast<std::int64_t>(c);
  }
  ~ChunkScope() { t_current_chunk = -1; }
};
}  // namespace

std::int64_t ThreadPool::current_chunk() { return t_current_chunk; }

ThreadPool::ThreadPool(unsigned workers)
    : workers_(workers != 0
                   ? workers
                   : std::max(1u, std::thread::hardware_concurrency())) {}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::run_one_chunk(const std::function<void(std::uint64_t)>& fn,
                               std::uint64_t c) {
  try {
    ChunkScope scope(c);
    fn(c);
    std::lock_guard lk(mu_);
    ++done_chunks_;
    if (done_chunks_ == total_chunks_) cv_done_.notify_all();
  } catch (...) {
    std::lock_guard lk(mu_);
    if (!error_) error_ = std::current_exception();
    // Drain: unclaimed chunks become no-ops so the launch can quiesce.
    // Every *claimed* chunk still reports done exactly once (success or
    // here), so done_chunks_ reaches total_chunks_ without double counting.
    done_chunks_ += total_chunks_ - next_chunk_;
    next_chunk_ = total_chunks_;
    ++done_chunks_;
    if (done_chunks_ == total_chunks_) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks(std::uint64_t chunks,
                            const std::function<void(std::uint64_t)>& fn) {
  if (chunks == 0) return;
  if (workers_ <= 1) {
    // Serial: no shared state to unwind, exceptions propagate directly.
    for (std::uint64_t c = 0; c < chunks; ++c) {
      ChunkScope scope(c);
      fn(c);
    }
    return;
  }
  // The calling thread participates, so spawn workers-1 helpers.
  while (threads_.size() + 1 < workers_) {
    threads_.emplace_back([this] { worker_loop(); });
  }
  std::uint64_t my_generation = 0;
  {
    std::lock_guard lk(mu_);
    job_ = &fn;
    total_chunks_ = chunks;
    next_chunk_ = 0;
    done_chunks_ = 0;
    error_ = nullptr;
    my_generation = ++generation_;
  }
  cv_work_.notify_all();
  // The calling thread helps drain the chunk queue.
  for (;;) {
    std::uint64_t c = 0;
    {
      std::lock_guard lk(mu_);
      if (next_chunk_ >= total_chunks_) break;
      c = next_chunk_++;
    }
    run_one_chunk(fn, c);
  }
  std::exception_ptr err;
  {
    std::unique_lock lk(mu_);
    cv_done_.wait(lk, [&] {
      return done_chunks_ == total_chunks_ && generation_ == my_generation;
    });
    job_ = nullptr;
    err = error_;
    error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::worker_loop() {
  for (;;) {
    const std::function<void(std::uint64_t)>* job = nullptr;
    std::uint64_t c = 0;
    {
      std::unique_lock lk(mu_);
      cv_work_.wait(lk, [&] {
        return stop_ || (job_ != nullptr && next_chunk_ < total_chunks_);
      });
      if (stop_) return;
      job = job_;
      c = next_chunk_++;
    }
    run_one_chunk(*job, c);
  }
}

}  // namespace gbdt::device
