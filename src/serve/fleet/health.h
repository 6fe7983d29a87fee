// Phi-accrual shard health detection: the gray-failure half of the fleet's
// defense, sitting in front of the terminal-failure CircuitBreaker.
//
// The breaker only reacts to *failures*; a shard that is alive but 5x
// slow never feeds it and quietly drags the fleet p99. The phi-accrual
// detector (Hayashibara et al., the Akka/Cassandra lineage) instead
// watches the shard's heartbeat cadence — here, the pulses its worker
// lanes send between batches and on idle ticks — and turns "how late is
// the next heartbeat" into a continuous suspicion level:
//
//     phi(t) = -log10( P(interval > t) )
//
// with P the normal tail fitted to a sliding window of observed
// inter-arrival intervals. phi == 1 means "this gap had a 10% chance
// under the shard's own history"; phi == 3 means 0.1%. Thresholds on phi
// drive a four-state routing machine:
//
//     healthy ──(phi >= suspectPhi)──▶ suspect ──(phi >= quarantinePhi
//        ▲                               │        or straggler strikes)
//        │                               ▼                 │
//        │ phi recovers            back to healthy         ▼
//        │                                            quarantined
//        │ probe succeeds                                  │ dwell
//        └───────────────── probing ◀──────────────────────┘
//                              │ probe fails: quarantined again
//
// A quarantined shard receives no new routes (its in-flight work drains
// normally — the same drain contract as an open circuit); after the
// dwell it admits `probeQuota` probe requests whose outcomes decide
// between healing and another quarantine round. Slow-rank verdicts from
// trace::SlowRankMonitor (a straggler *inside* the shard's grid) are fed
// in as straggler evidence and short-circuit the phi ramp.
//
// Every method takes the current time explicitly — the CircuitBreaker
// discipline — so the detector is a pure function of its inputs: unit
// tests never sleep, fleetsim replays it on virtual time, and the same
// thresholds tuned in simulation land unchanged in the live engine.
// All methods are thread-safe.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "util/common.h"

namespace hplmxp::serve {

struct HealthConfig {
  bool enabled = true;
  /// Expected heartbeat cadence; seeds the interval window so a cold
  /// shard is judged against the configured pace, not an empty history.
  double heartbeatIntervalSeconds = 0.010;
  /// Sliding window of inter-arrival samples per shard.
  index_t windowSize = 32;
  /// Interval-distribution floor: a perfectly regular heartbeat would
  /// collapse the std-dev to 0 and make phi explode on microscopic
  /// jitter. The floor keeps the detector's resolution honest.
  double minStdDevSeconds = 0.002;
  /// Heartbeats observed before phi is trusted (cold start reads 0).
  index_t minSamples = 3;
  double suspectPhi = 1.0;      // healthy -> suspect
  double quarantinePhi = 3.0;   // suspect -> quarantined
  /// Time in quarantine before the shard may probe its way back.
  double quarantineDwellSeconds = 0.100;
  /// Routes admitted while probing, before a verdict.
  index_t probeQuota = 1;
  /// Straggler reports (slow-rank verdicts) while suspect that escalate
  /// to quarantine. The first report alone forces suspect.
  index_t stragglerStrikes = 2;

  void validate() const;
};

enum class HealthState { kHealthy, kSuspect, kQuarantined, kProbing };

[[nodiscard]] constexpr const char* toString(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kSuspect: return "suspect";
    case HealthState::kQuarantined: return "quarantined";
    case HealthState::kProbing: return "probing";
  }
  return "?";
}

class ShardHealthMonitor {
 public:
  struct ShardSnapshot {
    index_t shard = 0;
    HealthState state = HealthState::kHealthy;
    double phi = 0.0;
    double lastHeartbeatAge = 0.0;
    double meanIntervalSeconds = 0.0;
    std::uint64_t heartbeats = 0;
    std::uint64_t stragglerReports = 0;
    std::uint64_t quarantines = 0;  // entries into kQuarantined
    std::uint64_t probes = 0;       // probe routes admitted
  };

  ShardHealthMonitor(HealthConfig config, index_t shards);

  /// Healthy-liveness evidence: a worker lane's pulse from the shard at
  /// `now`. Records the inter-arrival interval and clears any
  /// straggler streak. Does NOT heal a quarantined shard — that must
  /// pass through probing.
  void heartbeat(index_t shard, double now);

  /// A slow-rank verdict from inside the shard's grid (the distributed-LU
  /// straggler loop): forces at least kSuspect immediately and escalates
  /// to quarantine after `stragglerStrikes` reports without an
  /// intervening heartbeat.
  void noteStraggler(index_t shard, double now);

  /// Outcome of a request routed to the shard: a probe verdict. While
  /// probing, a success heals the shard and a failure re-quarantines it;
  /// outside probing outcomes are ignored (liveness is the lanes' pulse,
  /// failures the CircuitBreaker's business).
  void onOutcome(index_t shard, bool success, double now);

  /// Routing gate. Healthy and suspect shards route freely (suspect is a
  /// warning level, not a drain — the breaker may still be routing to
  /// it); quarantined shards route nothing; probing shards admit up to
  /// `probeQuota` routes. Advances the state machine against `now`.
  [[nodiscard]] bool routable(index_t shard, double now);

  /// Current suspicion level against the shard's own interval history.
  [[nodiscard]] double phi(index_t shard, double now) const;

  /// Current state, advancing time-driven transitions (suspect onset,
  /// quarantine, dwell expiry) against `now`.
  [[nodiscard]] HealthState state(index_t shard, double now);

  /// Total entries into quarantine across all shards.
  [[nodiscard]] std::uint64_t quarantines() const;
  /// Total straggler reports fed in across all shards.
  [[nodiscard]] std::uint64_t stragglerReports() const;

  [[nodiscard]] ShardSnapshot shardSnapshot(index_t shard, double now);
  [[nodiscard]] std::vector<ShardSnapshot> snapshot(double now);

  [[nodiscard]] const HealthConfig& config() const { return config_; }

 private:
  struct Entry {
    HealthState state = HealthState::kHealthy;
    double lastArrival = 0.0;
    bool seeded = false;          // first heartbeat only sets lastArrival
    std::vector<double> window;   // inter-arrival ring buffer
    index_t windowNext = 0;
    double quarantinedAt = 0.0;
    index_t probesUsed = 0;
    index_t stragglerStreak = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t stragglers = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t probes = 0;
  };

  [[nodiscard]] double phiLocked(const Entry& e, double now) const;
  void meanStd(const Entry& e, double* mean, double* std) const;
  void advance(Entry& e, double now);
  void enterQuarantine(Entry& e, double now);
  Entry& entry(index_t shard);

  HealthConfig config_;
  mutable std::mutex mutex_;
  std::vector<Entry> entries_;
};

}  // namespace hplmxp::serve
