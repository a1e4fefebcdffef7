#include "parallel/thread_pool.h"

#include <stdexcept>

namespace mapit::parallel {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned resolved = resolve_threads(threads);
  errors_.resize(resolved);
  workers_.reserve(resolved - 1);
  for (unsigned w = 1; w < resolved; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::partition(std::size_t count,
                                                          unsigned parts,
                                                          unsigned part) {
  const std::size_t base = count / parts;
  const std::size_t extra = count % parts;
  // The first `extra` partitions get base+1 elements; later ones get base.
  const std::size_t begin =
      part * base + (part < extra ? part : extra);
  const std::size_t size = base + (part < extra ? 1 : 0);
  return {begin, begin + size};
}

void ThreadPool::run_partition(unsigned worker) {
  const auto [begin, end] = partition(job_count_, size(), worker);
  if (begin == end) return;
  try {
    (*job_)(worker, begin, end);
  } catch (...) {
    errors_[worker] = std::current_exception();
  }
}

void ThreadPool::worker_loop(unsigned worker) {
  std::uint64_t seen_generation = 0;
  while (true) {
    {
      std::unique_lock lock(mutex_);
      start_cv_.wait(lock, [&] {
        return stopping_ || generation_ != seen_generation;
      });
      if (stopping_) return;
      seen_generation = generation_;
    }
    run_partition(worker);
    {
      std::lock_guard lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_all();
    }
  }
}

void ThreadPool::for_ranges(std::size_t count, const RangeFn& fn) {
  // busy_ is only read/written under mutex_ except for this entry check,
  // which must also work when worker threads call back in (nested use).
  {
    std::lock_guard lock(mutex_);
    if (busy_) {
      throw std::logic_error(
          "mapit::parallel::ThreadPool: nested for_ranges on the same pool");
    }
    busy_ = true;
  }
  struct BusyReset {
    ThreadPool& pool;
    ~BusyReset() {
      std::lock_guard lock(pool.mutex_);
      pool.busy_ = false;
    }
  } busy_reset{*this};

  if (count == 0) return;
  for (std::exception_ptr& error : errors_) error = nullptr;
  job_ = &fn;
  job_count_ = count;

  if (!workers_.empty()) {
    {
      std::lock_guard lock(mutex_);
      pending_ = static_cast<unsigned>(workers_.size());
      ++generation_;
    }
    start_cv_.notify_all();
  }

  run_partition(0);

  if (!workers_.empty()) {
    std::unique_lock lock(mutex_);
    done_cv_.wait(lock, [&] { return pending_ == 0; });
  }
  job_ = nullptr;

  for (const std::exception_ptr& error : errors_) {
    if (error) std::rethrow_exception(error);
  }
}

std::unique_ptr<ThreadPool> pool_for(unsigned threads, std::size_t items) {
  const unsigned resolved = resolve_threads(threads);
  if (resolved == 1 || items <= 1) return nullptr;
  return std::make_unique<ThreadPool>(resolved);
}

void for_ranges(ThreadPool* pool, std::size_t count,
                const ThreadPool::RangeFn& fn) {
  if (pool != nullptr && pool->size() > 1) {
    pool->for_ranges(count, fn);
  } else if (count > 0) {
    fn(0, 0, count);
  }
}

}  // namespace mapit::parallel
