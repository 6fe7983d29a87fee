// Sharded serve fabric: many ServeEngines, each backed by its own simmpi
// rank group, behind one consistent-hash router.
//
//                         FleetEngine::submit
//                                │
//                 FleetCacheIndex (hot? placed?)
//                                │
//              HashRing route / successors (healthy only)
//                                │
//        ┌───────────────┬───────┴───────┬───────────────┐
//     shard 0         shard 1         shard 2          ...
//   ServeEngine     ServeEngine     ServeEngine
//   + RankGroup     + RankGroup     + RankGroup   (factor jobs run on
//        │               │               │         the shard's grid)
//        └── Handle::onDone ── failover/publish ──┘
//
// Shard health is the existing serve/breaker state machine keyed by a
// per-shard sentinel: factor-job failures feed onFailure, successes feed
// onSuccess, and a shard whose circuit is open receives no new routes
// (drain — its in-flight requests still finish) until the cool-down
// half-opens it for a probe. A crashed shard (its rank group died, by an
// injected fault or the ops hook) additionally loses its cached factors
// and its fleet-index placements; resurrection restarts the group with a
// bumped generation and closes the circuit, and the ring re-routes the
// shard's keyspace back — no request is ever dropped or double-answered,
// which the fleet report counts prove.
//
// Completed answers are bitwise-identical across shard counts: a solution
// is a pure function of (ProblemKey, rhsSeed, maxIr) on the single-device
// solve path every shard runs, so routing, replication, and failover can
// never change the numbers — only who computes them.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.h"
#include "serve/fleet/fleet_cache.h"
#include "serve/fleet/hash_ring.h"
#include "serve/fleet/health.h"
#include "simmpi/rank_group.h"
#include "trace/slow_node.h"

namespace hplmxp::serve {

/// Hedged-request policy: after a p95-derived delay with no answer, the
/// fleet re-issues the request to a replica shard; the first answer wins
/// through the publish-once Handle and the loser's work is discarded. A
/// token bucket caps the duplicate-work amplification — a fleet-wide
/// slowdown (every request late) drains the bucket and stops hedging,
/// while an isolated slow shard (the gray failure hedging exists for)
/// stays within budget.
struct HedgeConfig {
  bool enabled = false;
  /// Hedge delay = delayFactor x the observed completed-request total
  /// p95 (clamped below); a request is hedged only once.
  double delayFactor = 1.5;
  double minDelaySeconds = 0.002;
  double maxDelaySeconds = 0.500;
  /// Token bucket: hedges admitted per second and the burst capacity.
  double budgetPerSecond = 20.0;
  double budgetBurst = 8.0;
};

struct FleetConfig {
  index_t shards = 2;
  index_t virtualNodes = 64;   // ring points per shard
  index_t groupSize = 2;       // simmpi ranks per shard's grid
  /// RunOptions for every shard's rank group. A blocking-wait timeout here
  /// keeps a half-crashed grid from hanging its surviving peers forever;
  /// per-shard fault injectors are armed via armShardFaults instead.
  simmpi::RunOptions groupOptions;
  /// Fleet-wide factor-cache budget, split evenly across the per-shard
  /// FactorCaches (which stay the eviction authority; the fleet index
  /// mirrors their residency through eviction listeners).
  std::size_t fleetCacheBytes = std::size_t{64} << 20;
  /// Hot-factor replication: once a key has been routed this many times
  /// it is spread round-robin across `hotReplicas` ring successors
  /// instead of pinning its primary. 0 disables.
  index_t hotKeyRequests = 0;
  index_t hotReplicas = 2;
  /// Re-routes attempted after a shard-side failure before the failure
  /// is published to the client.
  index_t failoverLimit = 1;
  /// Per-shard engine template; cacheBytes is overridden by the fleet
  /// split and factorOverride is owned by the fleet.
  ServeConfig shard;
  /// Shard-health breaker (per-shard sentinel keys; always enabled).
  BreakerConfig health{true, 3, 0.050, 1};
  /// Phi-accrual gray-failure detector (serve/fleet/health.h), fed by
  /// the shards' worker-lane pulses (one per heartbeatIntervalSeconds of
  /// lane time). Quarantined shards are *deprioritized*, not excluded:
  /// routing falls back to them when no preferred shard is left, so the
  /// detector can never starve the fleet.
  HealthConfig healthMonitor;
  /// Speculative re-issue of slow requests (first answer wins).
  HedgeConfig hedge;
  /// Slow-rank detection inside each shard's grid; verdicts feed the
  /// health monitor as straggler evidence (reportRankWaits).
  SlowRankPolicy slowRankPolicy;
};

/// One shard's row in the fleet report.
struct ShardReport {
  index_t id = 0;
  std::string health;         // healthy | broken | half-open | crashed
  bool groupAlive = true;
  index_t generation = 1;
  index_t groupSize = 1;
  std::uint64_t routed = 0;   // requests routed here (incl. failovers in)
  std::uint64_t groupJobs = 0;
  std::uint64_t groupCrashes = 0;
  // Circuit-breaker transitions for this shard's sentinel.
  std::string breakerState = "closed";
  index_t breakerFailures = 0;
  std::uint64_t breakerTrips = 0;
  std::uint64_t breakerRejections = 0;
  // Phi-accrual detector view.
  std::string healthState = "healthy";
  double phi = 0.0;
  double heartbeatAgeSeconds = 0.0;
  std::uint64_t heartbeats = 0;
  std::uint64_t quarantines = 0;
  std::uint64_t probes = 0;
  std::uint64_t stragglerReports = 0;
  ServeReport report;
};

struct FleetReport {
  std::string trace;
  index_t shards = 0;
  /// Fleet-level view: every published outcome, percentiles over the
  /// fleet total (submit to publish, failover chains included), cache
  /// stats summed over shards.
  ServeReport fleet;
  std::vector<ShardReport> perShard;

  // Router picture.
  std::uint64_t reroutes = 0;      // routed off the all-up primary
  std::uint64_t failovers = 0;     // resubmits after a shard-side failure
  std::uint64_t affinityHits = 0;  // routed to a shard already holding key
  std::uint64_t opsBreaks = 0;     // breakShard invocations
  std::uint64_t opsSlows = 0;      // slowShard invocations
  std::uint64_t crashes = 0;       // shards that lost their grid
  std::uint64_t resurrections = 0;
  std::uint64_t healthTrips = 0;   // shard-health circuit trips

  // Gray-failure defense picture.
  std::uint64_t quarantines = 0;      // entries into health quarantine
  std::uint64_t healthDetours = 0;    // routes steered off quarantined shards
  std::uint64_t stragglerReports = 0; // slow-rank verdicts fed to health
  std::uint64_t hedgesIssued = 0;
  std::uint64_t hedgeWins = 0;     // hedge published first
  std::uint64_t hedgeWasted = 0;   // loser finished after the winner
  std::uint64_t hedgeDenied = 0;   // token bucket empty / no replica
  FleetCacheIndex::Stats cacheIndex;

  // The no-lost-answer ledger the CI job gates on.
  std::uint64_t submitted = 0;
  std::uint64_t answered = 0;
  std::uint64_t dropped = 0;        // submitted - answered; must be 0
  std::uint64_t doubleAnswered = 0; // publish attempts on a done handle
  /// hits + misses == lookups over the summed shard caches.
  bool cacheLookupInvariant = true;

  [[nodiscard]] Table toTable() const;
  [[nodiscard]] std::string toJson() const;
};

class FleetEngine {
 public:
  /// Fleet-side completion handle: published exactly once, even when the
  /// request is failed over between shards.
  class Handle {
   public:
    const RequestOutcome& wait();
    [[nodiscard]] bool done() const;
    [[nodiscard]] const std::vector<double>& solution() const {
      return solution_;
    }

   private:
    friend class FleetEngine;
    /// False when the handle was already terminal (a double answer).
    bool publish(RequestOutcome outcome, std::vector<double> solution);
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool done_ = false;
    /// A hedge was issued for this request: a late losing publish is
    /// expected duplicate work (hedge_wasted), not a double answer.
    std::atomic<bool> hedged_{false};
    RequestOutcome outcome_;
    std::vector<double> solution_;
  };
  using HandlePtr = std::shared_ptr<Handle>;

  explicit FleetEngine(FleetConfig config);
  ~FleetEngine();

  FleetEngine(const FleetEngine&) = delete;
  FleetEngine& operator=(const FleetEngine&) = delete;

  /// Routes one request; the handle resolves exactly once. With no
  /// healthy shard left the request is answered kFailed immediately
  /// (degraded fleet: structured failure, never a hang).
  HandlePtr submit(const SolveRequest& request);

  /// Blocks until every submitted request is published.
  void drain();
  void stop();

  // --- ops hooks (the chaos surface of the CLI and CI job) -------------
  /// Trips the shard's health circuit: no new routes until the breaker's
  /// cool-down half-opens it (in-flight work drains normally).
  void breakShard(index_t shard);
  /// Closes the shard's health circuit immediately.
  void unbreakShard(index_t shard);
  /// Kills the shard's rank group and drops its cached factors plus its
  /// fleet-index placements.
  void crashShard(index_t shard);
  /// Restarts a crashed shard's group (new generation) and closes its
  /// circuit; the ring rebalances its keyspace back on the next routes.
  void resurrectShard(index_t shard);
  /// Arms a fault injector on the shard's rank group (organic crashes).
  void armShardFaults(index_t shard,
                      std::shared_ptr<simmpi::FaultInjector> faults);
  /// Gray fault: stretches the shard's service times by `stretch` (e.g.
  /// 5.0 = every batch takes 5x as long) WITHOUT failing anything — the
  /// slow-but-alive scenario the phi detector and hedging exist for.
  /// 1.0 restores full speed.
  void slowShard(index_t shard, double stretch);

  // --- gray-failure instrumentation ------------------------------------
  /// Feeds one distributed-LU step's per-rank barrier waits from the
  /// shard's grid into its SlowRankMonitor; returns true when the monitor
  /// wants the step terminated (a rank struck out). The verdict also
  /// lands in the shard's health stream as straggler evidence — the loop
  /// core/config.h's rankProgressCallback comment asks for.
  bool reportRankWaits(index_t shard, index_t k,
                       const std::vector<double>& waits);
  /// Adapter bound to `shard`, directly pluggable into
  /// HplaiConfig::rankProgressCallback.
  [[nodiscard]] std::function<bool(index_t, const std::vector<double>&)>
  rankProgressHook(index_t shard);

  [[nodiscard]] index_t shardCount() const {
    return static_cast<index_t>(shards_.size());
  }
  [[nodiscard]] bool shardRoutable(index_t shard);
  [[nodiscard]] const ServeEngine& shardEngine(index_t shard) const {
    return *shards_[static_cast<std::size_t>(shard)]->engine;
  }
  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] const FleetCacheIndex& cacheIndex() const { return index_; }
  /// Phi-accrual detector (mutable: snapshots advance its state machine).
  [[nodiscard]] ShardHealthMonitor& healthMonitor() { return healthMon_; }
  [[nodiscard]] FleetReport report() const;

 private:
  struct Shard {
    index_t id = 0;
    ProblemKey sentinel;  // shard-health breaker key (n < 0, never real)
    std::unique_ptr<simmpi::RankGroup> group;
    std::unique_ptr<ServeEngine> engine;  // after group: dtor order
    std::unique_ptr<SlowRankMonitor> slowRanks;
    std::mutex slowMutex;  // SlowRankMonitor is not thread-safe
    std::atomic<bool> crashed{false};
    std::atomic<std::uint64_t> routed{0};
  };

  /// One armed speculative re-issue, waiting for its fire time.
  struct HedgeTask {
    double fireAt = 0.0;
    double submitAt = 0.0;
    SolveRequest request;
    HandlePtr handle;
    std::vector<index_t> tried;
  };

  [[nodiscard]] double now() const { return clock_.seconds(); }
  [[nodiscard]] Factorization groupFactor(index_t shard,
                                          const ProblemKey& key);
  void markCrashed(index_t shard);
  [[nodiscard]] index_t pickShard(const ProblemKey& key, std::uint64_t count,
                                  const std::vector<index_t>& tried);
  void routeToShard(index_t shard, const SolveRequest& request,
                    const HandlePtr& handle, double submitAt,
                    index_t failovers, std::vector<index_t> tried,
                    bool hedge = false);
  void publishOutcome(const HandlePtr& handle, RequestOutcome outcome,
                      std::vector<double> solution, bool hedge = false);
  void scheduleHedge(const SolveRequest& request, const HandlePtr& handle,
                     double submitAt, std::vector<index_t> tried);
  void hedgeLoop();
  void fireHedge(HedgeTask task);
  [[nodiscard]] double hedgeDelaySeconds() const;

  FleetConfig config_;
  HashRing ring_;
  FleetCacheIndex index_;
  CircuitBreaker health_;
  /// mutable: report()/snapshots advance time-driven state transitions.
  mutable ShardHealthMonitor healthMon_;
  LatencyRecorder recorder_;
  Timer clock_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<std::uint64_t> nextId_{1};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> answered_{0};
  std::atomic<std::uint64_t> doubleAnswered_{0};
  std::atomic<std::uint64_t> reroutes_{0};
  std::atomic<std::uint64_t> failovers_{0};
  std::atomic<std::uint64_t> affinityHits_{0};
  std::atomic<std::uint64_t> opsBreaks_{0};
  std::atomic<std::uint64_t> opsSlows_{0};
  std::atomic<std::uint64_t> crashes_{0};
  std::atomic<std::uint64_t> resurrections_{0};
  std::atomic<std::uint64_t> healthDetours_{0};
  std::atomic<std::uint64_t> hedgesIssued_{0};
  std::atomic<std::uint64_t> hedgeWins_{0};
  std::atomic<std::uint64_t> hedgeWasted_{0};
  std::atomic<std::uint64_t> hedgeDenied_{0};

  mutable std::mutex mutex_;
  std::condition_variable idleCv_;
  std::uint64_t outstanding_ = 0;
  bool stopping_ = false;

  // Hedge scheduler: a min-heap of armed hedges drained by one thread.
  std::mutex hedgeMutex_;
  std::condition_variable hedgeCv_;
  std::vector<HedgeTask> hedgeHeap_;  // min-heap by fireAt
  bool hedgeStop_ = false;
  double hedgeTokens_ = 0.0;
  double hedgeRefillAt_ = 0.0;
  std::thread hedgeThread_;
};

}  // namespace hplmxp::serve
