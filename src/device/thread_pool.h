// Minimal host thread pool used to execute simulated thread blocks.
//
// The pool parallelises the *host-side* execution of kernels when the host
// has spare cores; modeled device time is independent of how many host
// workers run the blocks.  Kernel bodies must only write to disjoint outputs
// per block, so the static block partitioning below is race-free — a
// contract that is machine-checked by the access auditor
// (src/analysis/access_audit.h) when GBDT_AUDIT_ACCESS is armed.
//
// Exceptions: a throw from fn is captured (first wins), the remaining
// unclaimed chunks are drained as no-ops, and the exception is rethrown on
// the calling thread once the launch has quiesced; the pool stays reusable.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gbdt::device {

class ThreadPool {
 public:
  /// Creates a pool of `workers` threads; 0 means hardware concurrency.
  /// The helper threads start on the first run_chunks that needs them, so
  /// a pool that only ever runs serially costs no threads.
  explicit ThreadPool(unsigned workers = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Helper threads plus the calling thread.
  [[nodiscard]] unsigned worker_count() const { return workers_; }

  /// Runs fn(chunk_index) for chunk_index in [0, chunks) across the workers
  /// and the calling thread; returns when all chunks finished.  If any
  /// invocation throws, the first exception is rethrown here after the
  /// remaining chunks have been drained; the pool remains usable.
  void run_chunks(std::uint64_t chunks,
                  const std::function<void(std::uint64_t)>& fn);

  /// Chunk index the calling thread is currently executing inside
  /// run_chunks, or -1 outside of one.  Thread-local: each host worker sees
  /// its own chunk, giving diagnostics (e.g. the access auditor's reports)
  /// a stable identity for "who ran this" independent of the host thread id.
  [[nodiscard]] static std::int64_t current_chunk();

 private:
  void worker_loop();
  /// Runs one claimed chunk, routing success/failure into the shared
  /// counters.  On a throw: records the first exception, fast-forwards the
  /// unclaimed chunks so the launch can quiesce, and counts this chunk done.
  void run_one_chunk(const std::function<void(std::uint64_t)>& fn,
                     std::uint64_t c);

  unsigned workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::uint64_t)>* job_ = nullptr;
  std::uint64_t total_chunks_ = 0;
  std::uint64_t next_chunk_ = 0;
  std::uint64_t done_chunks_ = 0;
  std::uint64_t generation_ = 0;
  std::exception_ptr error_;
  bool stop_ = false;
};

}  // namespace gbdt::device
