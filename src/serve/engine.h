// Solver-as-a-service engine: factor cache + request batching + batched
// multi-RHS iterative refinement behind a submit()/wait() interface.
//
// Architecture (one box per module):
//
//   submit() ──admission──▶ RequestQueue ──Batcher──▶ worker loop(s)
//                │ reject: queue full /                  │
//                ▼ deadline already passed               ▼
//           Handle(done)                      FactorCache.getOrFactor
//                                             (single-flight, LRU)
//                                                        │
//                                             solveManyMixedSingle
//                                             (blocked multi-RHS IR)
//                                                        │
//                                             Handle(done) + metrics
//
// Worker loops run on dedicated std::threads owned by the engine — NOT on
// ThreadPool workers, because the pool spawns lanes-1 worker threads and on
// a single-lane machine a pool task would never be popped (the caller is
// the only lane). Solver kernels invoked inside a worker still ride the
// shared ThreadPool through its caller-participates parallel-for, so a
// dispatcher thread is itself a full execution lane and the engine is
// deadlock-free at any pool width. A worker executes its
// batches inline and never blocks on another worker except through the
// factor cache's single-flight wait, which is bounded by one
// factorization.
//
// Chaos: an optional simmpi::FaultInjector (the PR-1 chaos harness) is
// consulted once per batch execution attempt, with the worker's lane index
// standing in for the rank. Injected delays surface as longer service
// times — and deadline *rejections* once the budget is gone — and injected
// transient failures surface as bounded retries (the batch is requeued)
// or, past the retry budget, structured kFailed outcomes. Never hangs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "device/device.h"
#include "serve/batcher.h"
#include "serve/breaker.h"
#include "serve/factor_cache.h"
#include "serve/metrics.h"
#include "serve/request.h"
#include "serve/request_queue.h"
#include "simmpi/faults.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace hplmxp::serve {

struct ServeConfig {
  std::size_t cacheBytes = std::size_t{64} << 20;  // factor-cache budget
  index_t queueDepth = 64;       // admission bound (backpressure)
  index_t maxBatch = 8;          // RHS columns per coalesced solve
  double maxBatchDelaySeconds = 0.001;  // coalescing window
  double defaultDeadlineSeconds = 0.0;  // request deadline when unset; 0 = none
  index_t workers = 1;           // concurrent worker loops on the pool
  index_t maxRetries = 2;        // per-request retry budget under chaos
  index_t maxIrIterations = 50;
  Vendor vendor = Vendor::kAmd;
  bool startPaused = false;      // hold dispatch until resume() (tests)
  /// Optional chaos injector; lanes are addressed as ranks 0..workers-1.
  std::shared_ptr<simmpi::FaultInjector> chaos;

  /// Per-key circuit breaker (serve/breaker.h). Default-off: enabling it
  /// turns persistent per-key failures into immediate structured
  /// kRejectedCircuitOpen answers instead of retry storms.
  BreakerConfig breaker;

  /// Jittered exponential backoff for retry requeues: a retried request
  /// becomes dispatchable only after base * 2^retries seconds, scaled by
  /// a deterministic per-(request, attempt) jitter in [0.5, 1), and
  /// capped. 0 = retries are immediately eligible (the old behavior).
  double retryBackoffSeconds = 0.0;
  double retryBackoffMaxSeconds = 0.250;

  /// Degraded mode: when at least this many circuits are open at once the
  /// engine stops coalescing (batch size 1, no window) and shrinks the
  /// default deadline of new admissions by `degradedDeadlineScale` —
  /// shedding optional latency optimizations to keep healthy keys moving
  /// while part of the keyspace is burning. 0 disables.
  index_t degradedOpenBreakers = 0;
  double degradedDeadlineScale = 0.5;

  /// Test/bench hook: keys for which every batch execution fails (a
  /// deterministic stand-in for a poisoned factorization). Failures flow
  /// through the normal retry-then-breaker path.
  std::function<bool(const ProblemKey&)> keyFaultHook;

  /// When set, cache misses run this instead of the built-in single-device
  /// factorization. The fleet tier points it at a simmpi rank-group job so
  /// a shard's factorizations execute on (and crash with) its rank grid.
  /// Must produce a Factorization for exactly the given key; exceptions
  /// flow through the normal retry-then-breaker path.
  std::function<Factorization(const ProblemKey&)> factorOverride;

  /// Liveness pulse. When set, each worker lane calls it as it starts and
  /// again once the (positive) interval it returned has passed in lane
  /// time, checking after every batch it finishes and on an idle tick
  /// while its queue is empty. A stretched engine (setServiceStretch) runs
  /// its lanes' pulse cadence slow too. The fleet points it at its
  /// phi-accrual detector, returning HealthConfig::heartbeatIntervalSeconds.
  std::function<double()> pulse;
};

class ServeEngine {
 public:
  /// Completion handle of one submitted request. wait() blocks until the
  /// request reaches a terminal status. For completed requests `solution`
  /// holds the refined x.
  class Handle {
   public:
    const RequestOutcome& wait();
    [[nodiscard]] bool done() const;
    /// Valid after wait() returns kCompleted.
    [[nodiscard]] const std::vector<double>& solution() const {
      return solution_;
    }
    /// Terminal outcome; valid once done() is true.
    [[nodiscard]] const RequestOutcome& outcome() const { return outcome_; }

    /// Registers a completion callback, invoked exactly once when the
    /// request reaches a terminal status — immediately if it already has
    /// (submit() returns terminal handles for admission rejections). The
    /// callback runs on the finishing thread (or the caller, for the
    /// already-done case) with no engine lock held; the fleet router uses
    /// it to fail requests over between shards without a thread per
    /// request. One callback per handle.
    void onDone(std::function<void()> callback);

   private:
    friend class ServeEngine;
    void finish(RequestOutcome outcome, std::vector<double> solution);
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    RequestOutcome outcome_;
    std::vector<double> solution_;
    std::function<void()> onDone_;
  };
  using HandlePtr = std::shared_ptr<Handle>;

  /// `pool` defaults to ThreadPool::global(); solver kernels inside the
  /// engine's own dispatcher threads ride it.
  explicit ServeEngine(ServeConfig config, ThreadPool* pool = nullptr);
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  /// Admits one request. The returned handle is already terminal for
  /// admission rejections (queue full, deadline impossible, or a key the
  /// single-device backend cannot serve).
  HandlePtr submit(const SolveRequest& request);

  /// Releases a paused engine's workers (ServeConfig::startPaused).
  void resume();

  /// Blocks until every admitted request has reached a terminal status.
  void drain();

  /// Graceful stop: drains pending work, then parks the workers. Called
  /// by the destructor.
  void stop();

  [[nodiscard]] ServeReport report() const;
  [[nodiscard]] const FactorCache& cache() const { return cache_; }
  /// Fleet hooks: eviction listener pass-through and crash simulation
  /// (a crashed shard loses its resident factors).
  void setCacheEvictionListener(std::function<void(const ProblemKey&)> fn) {
    cache_.setEvictionListener(std::move(fn));
  }
  void clearCache() { cache_.clear(); }
  /// Gray-fault hook: stretches every batch's service time by `stretch`
  /// (sleeping the extra (stretch-1)x after the solve), and the lanes'
  /// pulse cadence with it, WITHOUT failing anything — the slow-but-alive
  /// shard the fleet's phi detector and hedging are tested against. 1.0
  /// restores full speed.
  void setServiceStretch(double stretch);
  [[nodiscard]] const CircuitBreaker& breaker() const { return breaker_; }
  /// True while enough circuits are open to shed batching and shrink
  /// deadlines (ServeConfig::degradedOpenBreakers).
  [[nodiscard]] bool degraded() const;
  [[nodiscard]] std::vector<RequestOutcome> outcomes() const {
    return recorder_.outcomes();
  }

 private:
  void workerLoop(index_t lane);
  void executeBatch(index_t lane, const ProblemKey& key,
                    std::vector<QueuedRequest> batch);
  void finishRequest(QueuedRequest& qr, RequestOutcome outcome,
                     std::vector<double> solution);
  [[nodiscard]] double now() const { return clock_.seconds(); }
  [[nodiscard]] double retryBackoff(std::uint64_t id, index_t attempt) const;

  ServeConfig config_;
  ThreadPool* pool_;
  std::atomic<double> serviceStretch_{1.0};
  FactorCache cache_;
  Batcher batcher_;
  CircuitBreaker breaker_;
  LatencyRecorder recorder_;
  Timer clock_;  // engine-relative monotonic clock

  mutable std::mutex mutex_;
  std::condition_variable cv_;        // workers: work available / stop
  std::condition_variable idleCv_;    // drain()/stop(): outstanding == 0
  RequestQueue queue_;
  bool paused_ = false;
  bool stopping_ = false;
  index_t outstanding_ = 0;  // admitted, not yet terminal
  std::uint64_t nextAutoId_ = 1;
  std::vector<std::thread> workers_;  // dispatcher threads
};

}  // namespace hplmxp::serve
