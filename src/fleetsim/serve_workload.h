// Serve-fleet workload: a request trace replayed against the sharded
// serving tier, entirely on virtual time.
//
// The real fleet's components run verbatim: the consistent-hash router
// (serve::HashRing), the per-shard drain gate (serve::CircuitBreaker), the
// phi-accrual detector (serve::ShardHealthMonitor), and per shard the
// admission-bounded per-key FIFO queue (serve::RequestQueue) and the
// byte-budget LRU factor cache (serve::FactorCache, payload-free: entries
// carry their size, never factors). The shard's one worker lane and its
// batching stay a model: a key's requests wait one batch window (or
// until a full batch queues) and the batch runs after whatever the lane
// is already solving. Accounting follows the real engine so the
// validation against a measured BENCH_serve.json compares like with
// like — one cache lookup per dispatched batch (a coalesced batch costs
// exactly one factorization, the single-flight contract), hits + misses
// == lookups, and the same latency split (queue wait / solve / total).
//
// Chaos vocabulary matches the serve CLI: crash-at/crash-shard kills a
// shard (cache and queue contents included), pending and future requests
// fail over along the ring successors; resurrect-at restores it cold.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fleetsim/event_core.h"
#include "fleetsim/topology.h"
#include "serve/breaker.h"
#include "serve/factor_cache.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "serve/metrics.h"
#include "serve/request_queue.h"
#include "serve/trace_io.h"

namespace hplmxp::fleetsim {

struct ChaosAction {
  enum class Kind { kCrash, kResurrect, kSlow };
  Kind kind = Kind::kCrash;
  double atMs = 0.0;
  index_t shard = 0;
  double factor = 0.5;  // kSlow only
};

struct ServeWorkloadConfig {
  serve::RequestTrace trace;
  index_t shards = 1;
  index_t virtualNodes = 64;
  index_t queueDepth = 64;
  index_t maxBatch = 8;
  double batchDelayUs = 1000.0;
  double cacheMb = 64.0;
  double defaultDeadlineMs = 0.0;  // 0 = none
  index_t failoverLimit = 2;
  serve::BreakerConfig breaker;

  /// Host-solve rate knob: effective GFLOP/s of one shard's solve lane.
  /// The default is calibrated so an n=64 b=16 smoke-trace solve costs a
  /// few hundred microseconds, the measured magnitude on the CI host.
  double hostGflops = 2.0;
  index_t irIterations = 3;
  double solveOverheadUs = 100.0;
  double requestBytes = 1024.0;  // routed request payload on the wire

  /// Gray-failure defense, co-simulated with the SAME policy component the
  /// live fleet runs (serve::ShardHealthMonitor) so detector thresholds
  /// tuned here land unchanged in FleetConfig::healthMonitor. Each lane
  /// pulses it by the live worker's rule (ServeConfig::pulse): once per
  /// `heartbeatIntervalSeconds` of lane time, checked at every batch end
  /// and on an idle tick. Default OFF: a defense-off run schedules no
  /// tick or hedge events, preserving existing golden trace hashes.
  serve::HealthConfig health{false};

  /// Hedged requests (first answer wins). Delay = hedgeDelayFactor x the
  /// recent completed-total p95, clamped to [hedgeMinDelayMs, inf); the
  /// token bucket caps duplicate-work amplification fleet-wide.
  bool hedgeEnabled = false;
  double hedgeDelayFactor = 1.5;
  double hedgeMinDelayMs = 2.0;
  double hedgeBudgetPerSecond = 20.0;
  double hedgeBudgetBurst = 8.0;

  std::vector<ChaosAction> chaos;

  void validate(const Topology& topology) const;
};

/// Aggregated counters the report and the validation gate read. The
/// latency series are seconds, percentile-summarized on demand.
struct ServeStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejectedQueueFull = 0;
  std::uint64_t rejectedDeadline = 0;
  std::uint64_t rejectedCircuitOpen = 0;
  std::uint64_t failed = 0;
  std::uint64_t failovers = 0;

  /// Summed over the shards' serve::FactorCache stats.
  serve::FactorCache::Stats cache;
  /// Deepest any shard's serve::RequestQueue got.
  index_t peakQueueDepth = 0;

  std::uint64_t batches = 0;
  std::uint64_t batchedColumns = 0;
  index_t maxBatchSize = 0;
  std::uint64_t breakerTrips = 0;

  // Gray-failure defense tallies (all zero with the defense off).
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t healthDetours = 0;  // routes steered off quarantined shards
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgeWins = 0;
  std::uint64_t hedgeWasted = 0;
  std::uint64_t hedgeDenied = 0;
  /// Total shard-lane solve seconds spent, duplicates included — the
  /// duplicate-work amplification gate compares this across defense
  /// on/off runs (must stay <= 1.15x).
  double solveWorkSeconds = 0.0;

  std::vector<double> queueWaitSeconds;
  std::vector<double> solveSeconds;
  std::vector<double> totalSeconds;

  [[nodiscard]] double hitRate() const { return cache.hitRate(); }
  [[nodiscard]] double meanBatchSize() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(batchedColumns) /
                              static_cast<double>(batches);
  }
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(ServeWorkloadConfig config, const Topology& topology);

  [[nodiscard]] std::string name() const override { return "serve"; }
  void start(Simulator& sim) override;
  void handle(Simulator& sim, const Event& event) override;
  [[nodiscard]] bool done() const override;

  /// Router and lane tallies plus the shards' cache and queue counters.
  [[nodiscard]] ServeStats stats() const;
  [[nodiscard]] const ServeWorkloadConfig& config() const { return config_; }

  /// Per-shard snapshot for the CLI's `show shard|cache|queue` views.
  struct ShardView {
    index_t shard = 0;
    index_t node = 0;
    bool crashed = false;
    double slowFactor = 1.0;
    index_t queuedRequests = 0;
    index_t cachedKeys = 0;
    double cachedMb = 0.0;
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    double busyUntil = 0.0;
  };
  [[nodiscard]] ShardView shardView(index_t shard) const;
  [[nodiscard]] index_t shardNode(index_t shard) const;

  /// The phi-accrual detector, for the CLI's `show health` view (mutable:
  /// snapshots advance its state machine).
  [[nodiscard]] serve::ShardHealthMonitor& healthMonitor() {
    return healthMon_;
  }

 private:
  /// Router-side fate of one trace request across all its copies: the
  /// first terminal event answers it; later copies are wasted hedge work.
  /// Deadline and failover count live here too, so queued copies carry
  /// only their trace index.
  struct RequestState {
    double arrivalSeconds = 0.0;   // first submission instant
    double deadlineSeconds = 0.0;  // absolute; 0 = none
    index_t failovers = 0;
    index_t primaryShard = -1;
    bool answered = false;
  };

  /// One key's batch window on a shard: the requests queued under it, and
  /// a generation each dispatch bumps so a stale window event is dropped.
  struct BatchWindow {
    index_t queued = 0;
    std::uint64_t generation = 0;
  };

  struct Shard {
    Shard(index_t queueDepth, std::size_t cacheBytes)
        : queue(queueDepth),
          cache(std::make_unique<serve::FactorCache>(cacheBytes)) {}
    index_t node = 0;
    bool crashed = false;
    double slowFactor = 1.0;
    double busyUntil = 0.0;
    double nextPulse = 0.0;  // when the lane's next liveness pulse is due
    std::uint64_t routed = 0;
    std::uint64_t completed = 0;
    /// Idle-tick generation: every re-armed tick and every crash bumps it,
    /// so stale ticks are dropped instead of pulsing for a dead shard.
    std::int64_t generation = 0;
    serve::RequestQueue queue;
    std::unique_ptr<serve::FactorCache> cache;
    std::map<index_t, BatchWindow> windows;  // key index -> window
  };

  struct InFlightBatch {
    index_t shard = 0;
    index_t keyIndex = 0;
    std::vector<std::uint64_t> copies;  // queued request ids (copyId)
    double dispatchSeconds = 0.0;
    double solveCost = 0.0;  // factor + solve, for the latency split
  };

  [[nodiscard]] const serve::TraceRequest& traceRequest(index_t i) const;
  [[nodiscard]] index_t keyIndexOf(const serve::TraceRequest& r);
  [[nodiscard]] index_t routeShard(index_t keyIndex, double now);
  [[nodiscard]] double factorBytes(const serve::TraceRequest& r) const;
  void armWindow(Simulator& sim, index_t shardIndex, index_t keyIndex);
  void dispatchBucket(Simulator& sim, index_t shardIndex, index_t keyIndex);
  void crashShard(Simulator& sim, index_t shardIndex);
  /// Re-routes a copy that lost its shard along the ring (hedge copies
  /// and already-answered requests are wasted work instead).
  void failOver(Simulator& sim, index_t traceIndex, bool hedge,
                index_t fromShard, index_t keyIndex);
  void reject(index_t traceIndex, bool hedge, serve::RequestStatus status);
  /// True when this copy's terminal event answered the request; false when
  /// another copy already had (the caller tallies wasted hedge work).
  [[nodiscard]] bool markAnswered(index_t traceIndex);
  /// The lane's liveness pulse into the phi detector, sent when one
  /// heartbeat interval of lane time has passed since the last one.
  void pulse(index_t shardIndex, double now);
  /// An idle lane pulses if due and arms its tick for the next pulse.
  void idleTick(Simulator& sim, index_t shardIndex);
  [[nodiscard]] double hedgeDelaySeconds() const;
  void fireHedge(Simulator& sim, index_t traceIndex, double now);
  /// Hedge-aware terminal failure: a primary copy counts as failed (if
  /// still unanswered); a hedge copy's failure is swallowed as waste.
  void failCopy(index_t traceIndex, bool hedge);

  ServeWorkloadConfig config_;
  const Topology* topology_;
  serve::HashRing ring_;
  serve::CircuitBreaker breaker_;
  /// The SAME phi-accrual detector the live fleet runs, fed virtual time —
  /// the whole point of the co-simulation is tuning its thresholds here.
  serve::ShardHealthMonitor healthMon_;
  std::vector<serve::ProblemKey> sentinels_;  // per-shard breaker keys
  std::vector<Shard> shards_;
  std::map<serve::ProblemKey, index_t> keyIndex_;
  std::vector<serve::ProblemKey> keys_;
  std::vector<InFlightBatch> batches_;
  /// Router-side request state, indexed by trace index; shard-arrival
  /// events carry only the index.
  std::vector<RequestState> reqState_;
  double hedgeTokens_ = 0.0;
  double hedgeRefillAt_ = 0.0;
  index_t me_ = -1;
  ServeStats stats_;
};

}  // namespace hplmxp::fleetsim
