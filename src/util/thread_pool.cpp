#include "util/thread_pool.h"

#include <cstdlib>

namespace hplmxp {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    unsigned hc = std::thread::hardware_concurrency();
    threads = hc == 0 ? 1 : hc;
  }
  // The caller of parallelFor also executes chunks, so a pool of size N
  // gives N+1 lanes; spawn threads-1 workers to match the requested width.
  const std::size_t spawn = threads > 0 ? threads - 1 : 0;
  ring_.resize(kTaskRingCapacity);
  workers_.reserve(spawn);
  for (std::size_t i = 0; i < spawn; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    w.join();
  }
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    cv_.wait(lock, [this] { return stop_ || !queueEmpty(); });
    if (stop_ && queueEmpty()) {
      return;
    }
    runOneTask(lock);
  }
}

bool ThreadPool::runOneTask(std::unique_lock<std::mutex>& lock) {
  if (queueEmpty()) {
    return false;
  }
  const std::uint64_t id = queuePop();
  lock.unlock();
  runJob(id);
  lock.lock();
  return true;
}

void ThreadPool::queuePush(std::uint64_t id) {
  ring_[(ringHead_ + ringCount_) % ring_.size()] = id;
  ++ringCount_;
}

std::uint64_t ThreadPool::queuePop() {
  const std::uint64_t id = ring_[ringHead_];
  ringHead_ = (ringHead_ + 1) % ring_.size();
  --ringCount_;
  return id;
}

std::uint64_t ThreadPool::postHelpers(void (*run)(void*), void* arg,
                                      index_t count) {
  int slot = -1;
  for (int s = 0; s < kJobSlots; ++s) {
    bool expected = false;
    if (slots_[s].inUse.compare_exchange_strong(expected, true,
                                                std::memory_order_acquire)) {
      slot = s;
      break;
    }
  }
  if (slot < 0) {
    return kNoJob;  // every slot busy: caller runs the range alone
  }
  JobSlot& js = slots_[slot];
  js.run = run;
  js.arg = arg;
  const std::uint64_t id =
      (js.epoch.load(std::memory_order_relaxed) << 8) |
      static_cast<std::uint64_t>(slot);
  {
    // The queue mutex publishes run/arg to whichever worker pops a helper.
    std::lock_guard<std::mutex> lock(mutex_);
    for (index_t i = 0; i < count && !queueFull(); ++i) {
      // A full ring means every worker already has a backlog of hints to
      // drain; posting fewer (or zero) helpers only costs parallelism,
      // never correctness — the caller runs every chunk itself if need be.
      queuePush(id);
    }
  }
  cv_.notify_all();
  return id;
}

void ThreadPool::runJob(std::uint64_t id) {
  JobSlot& js = slots_[id & 0xFF];
  const std::uint64_t epoch = id >> 8;
  js.active.fetch_add(1, std::memory_order_acq_rel);
  if (js.epoch.load(std::memory_order_acquire) == epoch) {
    js.run(js.arg);
  }
  js.active.fetch_sub(1, std::memory_order_release);
}

void ThreadPool::retireJob(std::uint64_t id) {
  JobSlot& js = slots_[id & 0xFF];
  // Invalidate first so helpers that have not started yet become no-ops;
  // then wait out the ones already inside run(). All chunks are done, so
  // an active helper is at most finishing its (empty) claim loop.
  js.epoch.fetch_add(1, std::memory_order_release);
  while (js.active.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  js.inUse.store(false, std::memory_order_release);
}

void ThreadPool::parallelFor(index_t begin, index_t end,
                             const std::function<void(index_t)>& fn,
                             index_t chunks) {
  parallelForChunked(
      begin, end,
      [&fn](index_t lo, index_t hi) {
        for (index_t i = lo; i < hi; ++i) {
          fn(i);
        }
      },
      chunks);
}

ThreadPool::ScratchLease::~ScratchLease() {
  if (pool_ != nullptr) {
    pool_->returnScratch(arena_);
  }
}

ThreadPool::ScratchLease ThreadPool::scratch() {
  std::lock_guard<std::mutex> lock(scratchMutex_);
  if (scratchFree_.empty()) {
    scratchOwned_.push_back(std::make_unique<Arena>());
    scratchFree_.reserve(scratchOwned_.capacity());
    scratchFree_.push_back(scratchOwned_.back().get());
  }
  Arena* arena = scratchFree_.back();
  scratchFree_.pop_back();
  return ScratchLease(this, arena);
}

void ThreadPool::returnScratch(Arena* arena) {
  std::lock_guard<std::mutex> lock(scratchMutex_);
  scratchFree_.push_back(arena);
}

std::size_t ThreadPool::scratchArenaCount() const {
  std::lock_guard<std::mutex> lock(scratchMutex_);
  return scratchOwned_.size();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool([] {
    if (const char* env = std::getenv("HPLMXP_THREADS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) {
        return static_cast<std::size_t>(v);
      }
    }
    return std::size_t{0};
  }());
  return pool;
}

}  // namespace hplmxp
