#include "serve/fleet/health.h"

#include <algorithm>
#include <cmath>

namespace hplmxp::serve {

void HealthConfig::validate() const {
  HPLMXP_REQUIRE(heartbeatIntervalSeconds > 0.0,
                 "heartbeat interval must be positive");
  HPLMXP_REQUIRE(windowSize >= 2, "phi window needs >= 2 samples");
  HPLMXP_REQUIRE(minStdDevSeconds > 0.0, "phi std-dev floor must be > 0");
  HPLMXP_REQUIRE(minSamples >= 1, "phi needs >= 1 warm-up sample");
  HPLMXP_REQUIRE(suspectPhi > 0.0 && quarantinePhi > suspectPhi,
                 "need 0 < suspectPhi < quarantinePhi");
  HPLMXP_REQUIRE(quarantineDwellSeconds >= 0.0, "negative quarantine dwell");
  HPLMXP_REQUIRE(probeQuota >= 1, "probing needs >= 1 probe");
  HPLMXP_REQUIRE(stragglerStrikes >= 1, "straggler strikes must be >= 1");
}

ShardHealthMonitor::ShardHealthMonitor(HealthConfig config, index_t shards)
    : config_(config) {
  config_.validate();
  HPLMXP_REQUIRE(shards >= 1, "health monitor needs >= 1 shard");
  entries_.resize(static_cast<std::size_t>(shards));
}

ShardHealthMonitor::Entry& ShardHealthMonitor::entry(index_t shard) {
  HPLMXP_REQUIRE(shard >= 0 &&
                     shard < static_cast<index_t>(entries_.size()),
                 "health monitor: shard out of range");
  return entries_[static_cast<std::size_t>(shard)];
}

void ShardHealthMonitor::meanStd(const Entry& e, double* mean,
                                 double* std) const {
  // The configured cadence seeds the fit so a shard with a short history
  // is judged against the expected pace rather than an empty window.
  double sum = config_.heartbeatIntervalSeconds;
  double sumSq =
      config_.heartbeatIntervalSeconds * config_.heartbeatIntervalSeconds;
  double count = 1.0;
  for (const double interval : e.window) {
    sum += interval;
    sumSq += interval * interval;
    count += 1.0;
  }
  const double m = sum / count;
  const double var = std::max(0.0, sumSq / count - m * m);
  *mean = m;
  *std = std::max(config_.minStdDevSeconds, std::sqrt(var));
}

double ShardHealthMonitor::phiLocked(const Entry& e, double now) const {
  if (!e.seeded ||
      e.heartbeats < static_cast<std::uint64_t>(config_.minSamples)) {
    return 0.0;  // cold start: no basis for suspicion yet
  }
  const double since = now - e.lastArrival;
  if (since <= 0.0) {
    return 0.0;
  }
  double mean = 0.0;
  double std = 0.0;
  meanStd(e, &mean, &std);
  // Normal-tail probability that a heartbeat gap exceeds `since`;
  // phi = -log10 of it. erfc keeps the tail accurate where 1 - cdf
  // would cancel to zero.
  const double z = (since - mean) / (std * std::sqrt(2.0));
  const double tail = 0.5 * std::erfc(z);
  if (tail <= 1e-30) {
    return 30.0;  // saturate: gap is astronomically unlikely
  }
  return -std::log10(tail);
}

void ShardHealthMonitor::enterQuarantine(Entry& e, double now) {
  e.state = HealthState::kQuarantined;
  e.quarantinedAt = now;
  e.probesUsed = 0;
  ++e.quarantines;
}

void ShardHealthMonitor::advance(Entry& e, double now) {
  switch (e.state) {
    case HealthState::kHealthy: {
      const double p = phiLocked(e, now);
      if (p >= config_.quarantinePhi) {
        enterQuarantine(e, now);
      } else if (p >= config_.suspectPhi) {
        e.state = HealthState::kSuspect;
      }
      break;
    }
    case HealthState::kSuspect: {
      const double p = phiLocked(e, now);
      if (p >= config_.quarantinePhi) {
        enterQuarantine(e, now);
      } else if (p < config_.suspectPhi && e.stragglerStreak == 0) {
        e.state = HealthState::kHealthy;
      }
      break;
    }
    case HealthState::kQuarantined:
      if (now - e.quarantinedAt >= config_.quarantineDwellSeconds) {
        e.state = HealthState::kProbing;
        e.probesUsed = 0;
      }
      break;
    case HealthState::kProbing:
      break;  // probe outcomes drive the exits
  }
}

void ShardHealthMonitor::heartbeat(index_t shard, double now) {
  if (!config_.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  if (e.seeded) {
    const double interval = std::max(0.0, now - e.lastArrival);
    if (static_cast<index_t>(e.window.size()) < config_.windowSize) {
      e.window.push_back(interval);
    } else {
      e.window[static_cast<std::size_t>(e.windowNext)] = interval;
      e.windowNext = (e.windowNext + 1) % config_.windowSize;
    }
  }
  e.seeded = true;
  e.lastArrival = now;
  ++e.heartbeats;
  e.stragglerStreak = 0;
  advance(e, now);
}

void ShardHealthMonitor::noteStraggler(index_t shard, double now) {
  if (!config_.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  ++e.stragglers;
  ++e.stragglerStreak;
  if (e.state == HealthState::kHealthy) {
    e.state = HealthState::kSuspect;
  }
  if (e.state == HealthState::kSuspect &&
      e.stragglerStreak >= config_.stragglerStrikes) {
    enterQuarantine(e, now);
  }
}

void ShardHealthMonitor::onOutcome(index_t shard, bool success, double now) {
  if (!config_.enabled) {
    return;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  // Outside probing an outcome is no evidence here: liveness comes from
  // the worker lanes' pulses, and failures are the CircuitBreaker's
  // business (a failing-fast shard has a *healthy* pulse cadence).
  if (e.state != HealthState::kProbing) {
    return;
  }
  if (success) {
    // Healed. The stale gap that put the shard here must not re-trip
    // the detector, so the probe's completion re-seeds the arrival
    // clock without contributing the quarantine-sized interval.
    e.state = HealthState::kHealthy;
    e.stragglerStreak = 0;
    e.seeded = true;
    e.lastArrival = now;
    ++e.heartbeats;
  } else {
    enterQuarantine(e, now);
  }
}

bool ShardHealthMonitor::routable(index_t shard, double now) {
  if (!config_.enabled) {
    return true;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  advance(e, now);
  switch (e.state) {
    case HealthState::kHealthy:
    case HealthState::kSuspect:
      return true;
    case HealthState::kQuarantined:
      return false;
    case HealthState::kProbing:
      if (e.probesUsed >= config_.probeQuota) {
        return false;
      }
      ++e.probesUsed;
      ++e.probes;
      return true;
  }
  return true;
}

double ShardHealthMonitor::phi(index_t shard, double now) const {
  if (!config_.enabled) {
    return 0.0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  HPLMXP_REQUIRE(shard >= 0 &&
                     shard < static_cast<index_t>(entries_.size()),
                 "health monitor: shard out of range");
  return phiLocked(entries_[static_cast<std::size_t>(shard)], now);
}

HealthState ShardHealthMonitor::state(index_t shard, double now) {
  if (!config_.enabled) {
    return HealthState::kHealthy;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  advance(e, now);
  return e.state;
}

std::uint64_t ShardHealthMonitor::quarantines() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += e.quarantines;
  }
  return total;
}

std::uint64_t ShardHealthMonitor::stragglerReports() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const Entry& e : entries_) {
    total += e.stragglers;
  }
  return total;
}

ShardHealthMonitor::ShardSnapshot ShardHealthMonitor::shardSnapshot(
    index_t shard, double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  Entry& e = entry(shard);
  if (config_.enabled) {
    advance(e, now);
  }
  ShardSnapshot s;
  s.shard = shard;
  s.state = e.state;
  s.phi = phiLocked(e, now);
  s.lastHeartbeatAge = e.seeded ? now - e.lastArrival : 0.0;
  double std = 0.0;
  meanStd(e, &s.meanIntervalSeconds, &std);
  s.heartbeats = e.heartbeats;
  s.stragglerReports = e.stragglers;
  s.quarantines = e.quarantines;
  s.probes = e.probes;
  return s;
}

std::vector<ShardHealthMonitor::ShardSnapshot> ShardHealthMonitor::snapshot(
    double now) {
  std::vector<ShardSnapshot> out;
  out.reserve(entries_.size());
  for (index_t s = 0; s < static_cast<index_t>(entries_.size()); ++s) {
    out.push_back(shardSnapshot(s, now));
  }
  return out;
}

}  // namespace hplmxp::serve
