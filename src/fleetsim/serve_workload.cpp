#include "fleetsim/serve_workload.h"

#include <algorithm>

namespace hplmxp::fleetsim {

void ServeWorkloadConfig::validate(const Topology& topology) const {
  HPLMXP_REQUIRE(!trace.requests.empty(), "serve workload needs requests");
  HPLMXP_REQUIRE(shards >= 1, "serve workload needs >= 1 shard");
  HPLMXP_REQUIRE(shards <= topology.nodes(),
                 "more shards than topology nodes");
  HPLMXP_REQUIRE(virtualNodes >= 1, "need >= 1 virtual ring node");
  HPLMXP_REQUIRE(queueDepth >= 1, "queue depth must be >= 1");
  HPLMXP_REQUIRE(maxBatch >= 1, "max batch must be >= 1");
  HPLMXP_REQUIRE(batchDelayUs >= 0.0, "negative batch delay");
  HPLMXP_REQUIRE(cacheMb > 0.0, "cache budget must be positive");
  HPLMXP_REQUIRE(failoverLimit >= 0, "negative failover limit");
  HPLMXP_REQUIRE(hostGflops > 0.0, "host rate must be positive");
  HPLMXP_REQUIRE(irIterations >= 1, "need >= 1 IR iteration");
  if (hedgeEnabled) {
    HPLMXP_REQUIRE(hedgeDelayFactor >= 0.0 && hedgeMinDelayMs >= 0.0,
                   "hedge delay knobs must be non-negative");
    HPLMXP_REQUIRE(hedgeBudgetPerSecond > 0.0 && hedgeBudgetBurst >= 1.0,
                   "hedge budget must admit at least one hedge");
  }
}

namespace {

/// A queued copy's request id: the trace index, with the low bit marking
/// the speculative (hedge) copy.
std::uint64_t copyId(index_t traceIndex, bool hedge) {
  return (static_cast<std::uint64_t>(traceIndex) << 1) | (hedge ? 1u : 0u);
}
index_t traceOf(std::uint64_t id) { return static_cast<index_t>(id >> 1); }
bool isHedge(std::uint64_t id) { return (id & 1u) != 0; }

}  // namespace

ServeWorkload::ServeWorkload(ServeWorkloadConfig config,
                             const Topology& topology)
    : config_(std::move(config)),
      topology_(&topology),
      ring_(config_.shards, config_.virtualNodes),
      breaker_(config_.breaker),
      healthMon_(config_.health, config_.shards) {
  config_.validate(topology);
  hedgeTokens_ = config_.hedgeBudgetBurst;
  reqState_.resize(config_.trace.requests.size());
  const auto cacheBytes =
      static_cast<std::size_t>(config_.cacheMb * 1024.0 * 1024.0);
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  sentinels_.reserve(static_cast<std::size_t>(config_.shards));
  const index_t stride = topology.nodes() / config_.shards;
  for (index_t s = 0; s < config_.shards; ++s) {
    shards_.emplace_back(config_.queueDepth, cacheBytes);
    shards_.back().node = s * std::max<index_t>(stride, 1);
    serve::ProblemKey sentinel;
    sentinel.n = -(s + 1);  // never a servable shape
    sentinels_.push_back(sentinel);
  }
}

index_t ServeWorkload::shardNode(index_t shard) const {
  HPLMXP_REQUIRE(shard >= 0 && shard < config_.shards, "shard out of range");
  return shards_[static_cast<std::size_t>(shard)].node;
}

const serve::TraceRequest& ServeWorkload::traceRequest(index_t i) const {
  return config_.trace.requests[static_cast<std::size_t>(i)];
}

index_t ServeWorkload::keyIndexOf(const serve::TraceRequest& r) {
  const serve::ProblemKey key = r.key();
  const auto [it, inserted] =
      keyIndex_.try_emplace(key, static_cast<index_t>(keys_.size()));
  if (inserted) {
    keys_.push_back(key);
  }
  return it->second;
}

index_t ServeWorkload::routeShard(index_t keyIndex, double now) {
  const serve::ProblemKey& key = keys_[static_cast<std::size_t>(keyIndex)];
  // The live fleet's two-tier routing: `preferred` steers off quarantined
  // shards, `hard` (alive at all) is the fallback so quarantine can never
  // starve the fleet.
  const auto hard = [this](index_t s) {
    return !shards_[static_cast<std::size_t>(s)].crashed;
  };
  const auto preferred = [&](index_t s) {
    return hard(s) && healthMon_.routable(s, now);
  };
  index_t chosen = ring_.route(key, preferred);
  if (chosen < 0) {
    chosen = ring_.route(key, hard);
  }
  if (config_.health.enabled && chosen >= 0) {
    const index_t allUp = ring_.route(key, nullptr);
    if (chosen != allUp && allUp >= 0 &&
        healthMon_.state(allUp, now) ==
            serve::HealthState::kQuarantined) {
      ++stats_.healthDetours;
    }
  }
  return chosen;
}

bool ServeWorkload::markAnswered(index_t traceIndex) {
  RequestState& st = reqState_[static_cast<std::size_t>(traceIndex)];
  if (st.answered) {
    return false;
  }
  st.answered = true;
  return true;
}

void ServeWorkload::failCopy(index_t traceIndex, bool hedge) {
  if (hedge || !markAnswered(traceIndex)) {
    ++stats_.hedgeWasted;  // a losing copy's work, discarded
    return;
  }
  ++stats_.failed;
}

void ServeWorkload::failOver(Simulator& sim, index_t traceIndex, bool hedge,
                             index_t fromShard, index_t keyIndex) {
  RequestState& st = reqState_[static_cast<std::size_t>(traceIndex)];
  if (hedge || st.answered) {
    ++stats_.hedgeWasted;  // a losing copy dies with the shard
    return;
  }
  if (st.failovers >= config_.failoverLimit) {
    failCopy(traceIndex, hedge);
    return;
  }
  const double now = sim.now();
  const index_t next = routeShard(keyIndex, now);
  if (next < 0) {
    failCopy(traceIndex, hedge);
    return;
  }
  ++st.failovers;
  ++stats_.failovers;
  const double hop = topology_->transferSeconds(
      shardNode(fromShard), shardNode(next), config_.requestBytes,
      config_.shards);
  sim.schedule(now + hop, shardNode(next), EventClass::kRequestArrival, me_,
               traceIndex, next);
}

void ServeWorkload::pulse(index_t shardIndex, double now) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  if (!config_.health.enabled || now < shard.nextPulse) {
    return;
  }
  healthMon_.heartbeat(shardIndex, now);
  ++stats_.heartbeats;
  // A slowed lane runs its own clock slow, its pulse cadence included —
  // the gray-failure signal the phi detector exists to notice.
  shard.nextPulse =
      now + config_.health.heartbeatIntervalSeconds / shard.slowFactor;
}

void ServeWorkload::idleTick(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  pulse(shardIndex, sim.now());
  ++shard.generation;
  if (config_.health.enabled && !done()) {
    sim.schedule(shard.nextPulse, shard.node, EventClass::kHeartbeat, me_,
                 shardIndex, shard.generation);
  }
}

double ServeWorkload::hedgeDelaySeconds() const {
  const double minDelay = config_.hedgeMinDelayMs * 1e-3;
  const std::vector<double>& totals = stats_.totalSeconds;
  if (totals.empty()) {
    return minDelay;
  }
  // p95 of the most recent completions: the hedge must track the current
  // service level, not the whole run's history.
  const std::size_t window = std::min<std::size_t>(totals.size(), 64);
  std::vector<double> recent(totals.end() -
                                 static_cast<std::ptrdiff_t>(window),
                             totals.end());
  std::sort(recent.begin(), recent.end());
  const double p95 = recent[static_cast<std::size_t>(
      0.95 * static_cast<double>(recent.size() - 1))];
  return std::max(minDelay, config_.hedgeDelayFactor * p95);
}

void ServeWorkload::fireHedge(Simulator& sim, index_t traceIndex,
                              double now) {
  const RequestState& st = reqState_[static_cast<std::size_t>(traceIndex)];
  if (st.answered) {
    return;  // answered in time: the hedge is moot
  }
  // Token-bucket refill on virtual time: a fleet-wide slowdown (every
  // request late) drains the bucket; an isolated slow shard stays within
  // budget.
  hedgeTokens_ = std::min(
      config_.hedgeBudgetBurst,
      hedgeTokens_ + (now - hedgeRefillAt_) * config_.hedgeBudgetPerSecond);
  hedgeRefillAt_ = now;
  if (hedgeTokens_ < 1.0) {
    ++stats_.hedgeDenied;
    return;
  }
  const serve::TraceRequest& r = traceRequest(traceIndex);
  const index_t keyIdx = keyIndexOf(r);
  const index_t primary = st.primaryShard;
  // Replica target: the first routable ring successor that is not the
  // primary (the hedge exists to bet on a DIFFERENT shard).
  index_t target = -1;
  const std::vector<index_t> successors = ring_.successors(
      keys_[static_cast<std::size_t>(keyIdx)], config_.shards,
      [&](index_t s) {
        return !shards_[static_cast<std::size_t>(s)].crashed &&
               healthMon_.routable(s, now);
      });
  for (const index_t s : successors) {
    if (s != primary) {
      target = s;
      break;
    }
  }
  if (target < 0) {
    ++stats_.hedgeDenied;
    return;
  }
  hedgeTokens_ -= 1.0;
  ++stats_.hedgesIssued;
  const double hop = topology_->transferSeconds(
      0, shardNode(target), config_.requestBytes, config_.shards);
  // x = 1.0 marks the arriving copy as the speculative one.
  sim.schedule(now + hop, shardNode(target), EventClass::kRequestArrival,
               me_, traceIndex, target, /*x=*/1.0);
}

double ServeWorkload::factorBytes(const serve::TraceRequest& r) const {
  // FP32 + low-precision factor pair, the serve cache's resident shape.
  const double n = static_cast<double>(r.n);
  return 6.0 * n * n;
}

void ServeWorkload::start(Simulator& sim) {
  me_ = sim.workloadIndex(this);
  // All arrivals enter at the router (node 0) on the trace clock; routing
  // happens when the event fires, so it sees then-current shard health.
  for (std::size_t i = 0; i < config_.trace.requests.size(); ++i) {
    const serve::TraceRequest& r = config_.trace.requests[i];
    (void)keyIndexOf(r);  // intern keys in trace order (deterministic)
    sim.schedule(r.atMs * 1e-3, 0, EventClass::kRequestArrival, me_,
                 static_cast<std::int64_t>(i), /*shard=*/-1);
  }
  for (const ChaosAction& action : config_.chaos) {
    HPLMXP_REQUIRE(action.shard >= 0 && action.shard < config_.shards,
                   "chaos action names a bad shard");
    const index_t node = shardNode(action.shard);
    switch (action.kind) {
      case ChaosAction::Kind::kCrash:
        sim.schedule(action.atMs * 1e-3, node, EventClass::kCrash, me_,
                     action.shard);
        break;
      case ChaosAction::Kind::kResurrect:
        sim.schedule(action.atMs * 1e-3, node, EventClass::kResurrect, me_,
                     action.shard);
        break;
      case ChaosAction::Kind::kSlow:
        HPLMXP_REQUIRE(action.factor > 0.0 && action.factor <= 1.0,
                       "slow factor must be in (0, 1]");
        sim.schedule(action.atMs * 1e-3, node, EventClass::kSlowdown, me_,
                     action.shard, 0, action.factor);
        break;
    }
  }
  for (index_t s = 0; s < config_.shards; ++s) {
    idleTick(sim, s);  // every lane starts idle
  }
}

bool ServeWorkload::done() const {
  const std::uint64_t answered = stats_.completed + stats_.rejectedQueueFull +
                                 stats_.rejectedDeadline +
                                 stats_.rejectedCircuitOpen + stats_.failed;
  return answered == config_.trace.requests.size();
}

void ServeWorkload::reject(index_t traceIndex, bool hedge,
                           serve::RequestStatus status) {
  if (hedge || !markAnswered(traceIndex)) {
    // A losing copy's rejection is not the request's fate.
    ++stats_.hedgeWasted;
    return;
  }
  switch (status) {
    case serve::RequestStatus::kRejectedQueueFull:
      ++stats_.rejectedQueueFull;
      break;
    case serve::RequestStatus::kRejectedDeadline:
      ++stats_.rejectedDeadline;
      break;
    case serve::RequestStatus::kRejectedCircuitOpen:
      ++stats_.rejectedCircuitOpen;
      break;
    default:
      ++stats_.failed;
      break;
  }
}

void ServeWorkload::armWindow(Simulator& sim, index_t shardIndex,
                              index_t keyIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  sim.schedule(sim.now() + config_.batchDelayUs * 1e-6, shard.node,
               EventClass::kBatchWindow, me_, shardIndex, keyIndex,
               static_cast<double>(shard.windows[keyIndex].generation));
}

void ServeWorkload::dispatchBucket(Simulator& sim, index_t shardIndex,
                                   index_t keyIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  BatchWindow& window = shard.windows[keyIndex];
  if (window.queued == 0) {
    return;
  }
  const double now = sim.now();
  const serve::ProblemKey& key = keys_[static_cast<std::size_t>(keyIndex)];
  std::vector<serve::QueuedRequest> taken =
      shard.queue.take(key, config_.maxBatch);
  window.queued -= static_cast<index_t>(taken.size());

  InFlightBatch batch;
  batch.shard = shardIndex;
  batch.keyIndex = keyIndex;
  for (const serve::QueuedRequest& qr : taken) {
    if (qr.deadlineSeconds > 0.0 && now > qr.deadlineSeconds) {
      reject(traceOf(qr.request.id), isHedge(qr.request.id),
             serve::RequestStatus::kRejectedDeadline);
      continue;
    }
    batch.copies.push_back(qr.request.id);
  }
  ++window.generation;
  if (window.queued > 0) {
    armWindow(sim, shardIndex, keyIndex);  // the remainder's fresh window
  }
  if (batch.copies.empty()) {
    return;  // every picked request was already past its deadline
  }

  // One cache lookup per dispatched batch — the single-flight contract's
  // accounting shape (hits + misses == lookups; a coalesced batch costs
  // at most one factorization).
  const serve::TraceRequest& proto =
      traceRequest(traceOf(batch.copies.front()));
  const double mult =
      topology_->nodeMultiplier(shard.node) * shard.slowFactor;
  const double rate = config_.hostGflops * 1e9 * mult;
  const double n = static_cast<double>(proto.n);
  const bool hit = shard.cache->lookupPayloadFree(
      key, static_cast<std::size_t>(factorBytes(proto)));
  const double factorSeconds = hit ? 0.0 : (2.0 / 3.0) * n * n * n / rate;
  const double cols = static_cast<double>(batch.copies.size());
  const double solveSeconds =
      static_cast<double>(config_.irIterations) * 2.0 * n * n * cols / rate +
      config_.solveOverheadUs * 1e-6;
  batch.solveCost = factorSeconds + solveSeconds;
  // Duplicates included: the hedge amplification gate reads this.
  stats_.solveWorkSeconds += batch.solveCost;

  // One worker lane per shard: the batch queues behind whatever the lane
  // is already solving. Queue wait = submission to lane start.
  const double startAt = std::max(now, shard.busyUntil);
  const double doneAt = startAt + batch.solveCost;
  shard.busyUntil = doneAt;
  batch.dispatchSeconds = startAt;

  ++stats_.batches;
  stats_.batchedColumns += batch.copies.size();
  stats_.maxBatchSize = std::max(stats_.maxBatchSize,
                                 static_cast<index_t>(batch.copies.size()));

  batches_.push_back(std::move(batch));
  sim.schedule(doneAt, shard.node, EventClass::kSolveDone, me_,
               static_cast<std::int64_t>(batches_.size() - 1));
}

void ServeWorkload::crashShard(Simulator& sim, index_t shardIndex) {
  Shard& shard = shards_[static_cast<std::size_t>(shardIndex)];
  if (shard.crashed) {
    return;
  }
  shard.crashed = true;
  ++shard.generation;  // the armed idle tick is now stale
  // A crash loses the cached factors (a real node death does).
  shard.cache->clear();
  shard.busyUntil = 0.0;
  // Queued requests fail over along the ring, key by key in interning
  // order, each key's requests in FIFO order.
  for (index_t k = 0; k < static_cast<index_t>(keys_.size()) &&
                      !shard.queue.empty();
       ++k) {
    for (const serve::QueuedRequest& qr : shard.queue.take(
             keys_[static_cast<std::size_t>(k)], config_.queueDepth)) {
      failOver(sim, traceOf(qr.request.id), isHedge(qr.request.id),
               shardIndex, k);
    }
  }
  shard.windows.clear();
  breaker_.onFailure(sentinels_[static_cast<std::size_t>(shardIndex)],
                     sim.now());
}

void ServeWorkload::handle(Simulator& sim, const Event& event) {
  const double now = sim.now();
  switch (event.cls) {
    case EventClass::kRequestArrival: {
      const index_t traceIdx = static_cast<index_t>(event.a);
      const index_t toShard = static_cast<index_t>(event.b);
      const serve::TraceRequest& r = traceRequest(traceIdx);
      const index_t keyIdx = keyIndexOf(r);
      if (toShard < 0) {
        // Router step: pick the shard, pay the wire.
        ++stats_.submitted;
        RequestState& st = reqState_[static_cast<std::size_t>(traceIdx)];
        st.arrivalSeconds = now;
        const double deadlineMs =
            r.deadlineMs > 0.0 ? r.deadlineMs : config_.defaultDeadlineMs;
        st.deadlineSeconds = deadlineMs > 0.0 ? now + deadlineMs * 1e-3 : 0.0;
        const index_t shard = routeShard(keyIdx, now);
        if (shard < 0) {
          (void)markAnswered(traceIdx);
          ++stats_.failed;  // nobody healthy to route to
          break;
        }
        st.primaryShard = shard;
        const double hop = topology_->transferSeconds(
            0, shardNode(shard), config_.requestBytes, config_.shards);
        sim.schedule(now + hop, shardNode(shard),
                     EventClass::kRequestArrival, me_, traceIdx, shard);
        if (config_.hedgeEnabled && config_.shards > 1) {
          sim.schedule(now + hedgeDelaySeconds(), 0, EventClass::kHedgeFire,
                       me_, traceIdx);
        }
        break;
      }
      // Shard-side admission.
      const RequestState& st = reqState_[static_cast<std::size_t>(traceIdx)];
      if (st.answered) {
        break;  // another copy already answered this request
      }
      const bool hedge = event.x > 0.5;
      Shard& shard = shards_[static_cast<std::size_t>(toShard)];
      if (shard.crashed) {
        // Crashed between routing and arrival: fail over (hedge copies
        // never fail over — the primary is still in flight).
        failOver(sim, traceIdx, hedge, toShard, keyIdx);
        break;
      }
      ++shard.routed;
      if (!breaker_.allow(sentinels_[static_cast<std::size_t>(toShard)],
                          now)) {
        reject(traceIdx, hedge, serve::RequestStatus::kRejectedCircuitOpen);
        break;
      }
      if (st.deadlineSeconds > 0.0 && now > st.deadlineSeconds) {
        reject(traceIdx, hedge, serve::RequestStatus::kRejectedDeadline);
        break;
      }
      serve::QueuedRequest qr;
      qr.request.id = copyId(traceIdx, hedge);
      qr.request.key = keys_[static_cast<std::size_t>(keyIdx)];
      qr.submitSeconds = now;
      qr.deadlineSeconds = st.deadlineSeconds;
      if (!shard.queue.push(std::move(qr))) {
        reject(traceIdx, hedge, serve::RequestStatus::kRejectedQueueFull);
        break;
      }
      const index_t queued = ++shard.windows[keyIdx].queued;
      if (queued >= config_.maxBatch) {
        dispatchBucket(sim, toShard, keyIdx);
      } else if (queued == 1) {
        armWindow(sim, toShard, keyIdx);
      }
      break;
    }
    case EventClass::kBatchWindow: {
      const index_t shardIdx = static_cast<index_t>(event.a);
      const index_t keyIdx = static_cast<index_t>(event.b);
      Shard& shard = shards_[static_cast<std::size_t>(shardIdx)];
      if (shard.crashed) {
        break;
      }
      if (static_cast<double>(shard.windows[keyIdx].generation) != event.x) {
        break;  // the batch this window was armed for already dispatched
      }
      dispatchBucket(sim, shardIdx, keyIdx);
      break;
    }
    case EventClass::kSolveDone: {
      InFlightBatch& batch =
          batches_[static_cast<std::size_t>(event.a)];
      Shard& shard = shards_[static_cast<std::size_t>(batch.shard)];
      if (shard.crashed) {
        // The shard died mid-solve; surviving requests fail over.
        for (const std::uint64_t id : batch.copies) {
          failOver(sim, traceOf(id), isHedge(id), batch.shard,
                   batch.keyIndex);
        }
        batch.copies = {};
        break;
      }
      breaker_.onSuccess(sentinels_[static_cast<std::size_t>(batch.shard)]);
      // Completions only give probe verdicts; the lane's pulse below is
      // the phi stream.
      if (config_.health.enabled &&
          healthMon_.state(batch.shard, now) ==
              serve::HealthState::kProbing) {
        healthMon_.onOutcome(batch.shard, true, now);
      }
      for (const std::uint64_t id : batch.copies) {
        const index_t traceIdx = traceOf(id);
        if (!markAnswered(traceIdx)) {
          ++stats_.hedgeWasted;  // the other copy answered first
          continue;
        }
        if (isHedge(id)) {
          ++stats_.hedgeWins;
        }
        ++stats_.completed;
        ++shard.completed;
        const double arrival =
            reqState_[static_cast<std::size_t>(traceIdx)].arrivalSeconds;
        stats_.queueWaitSeconds.push_back(batch.dispatchSeconds - arrival);
        stats_.solveSeconds.push_back(batch.solveCost);
        stats_.totalSeconds.push_back(now - arrival);
      }
      batch.copies = {};
      if (shard.busyUntil <= now) {
        idleTick(sim, batch.shard);  // nothing queued behind: lane idles
      } else {
        pulse(batch.shard, now);
      }
      break;
    }
    case EventClass::kCrash:
      crashShard(sim, static_cast<index_t>(event.a));
      break;
    case EventClass::kResurrect: {
      Shard& shard = shards_[static_cast<std::size_t>(event.a)];
      shard.crashed = false;  // cold cache, healthy again
      shard.busyUntil = now;
      shard.nextPulse = now;  // a restarted lane pulses as it starts
      breaker_.onSuccess(sentinels_[static_cast<std::size_t>(event.a)]);
      idleTick(sim, static_cast<index_t>(event.a));
      break;
    }
    case EventClass::kSlowdown: {
      Shard& shard = shards_[static_cast<std::size_t>(event.a)];
      shard.slowFactor = std::min(shard.slowFactor, event.x);
      break;
    }
    case EventClass::kHeartbeat: {
      const index_t shardIdx = static_cast<index_t>(event.a);
      const Shard& shard = shards_[static_cast<std::size_t>(shardIdx)];
      if (shard.crashed || event.b != shard.generation ||
          shard.busyUntil > now) {
        break;  // stale, or the lane is solving: its batch end pulses
      }
      idleTick(sim, shardIdx);
      break;
    }
    case EventClass::kHedgeFire:
      fireHedge(sim, static_cast<index_t>(event.a), now);
      break;
    default:
      HPLMXP_REQUIRE(false, "serve workload received a foreign event");
  }
  stats_.breakerTrips = breaker_.trips();
  if (config_.health.enabled) {
    stats_.quarantines = healthMon_.quarantines();
  }
}

ServeStats ServeWorkload::stats() const {
  ServeStats out = stats_;
  for (const Shard& shard : shards_) {
    const serve::FactorCache::Stats c = shard.cache->stats();
    out.cache.lookups += c.lookups;
    out.cache.hits += c.hits;
    out.cache.misses += c.misses;
    out.cache.coalesced += c.coalesced;
    out.cache.evictions += c.evictions;
    out.cache.factorCount += c.factorCount;
    out.cache.bytesInUse += c.bytesInUse;
    out.cache.budgetBytes += c.budgetBytes;
    out.peakQueueDepth = std::max(out.peakQueueDepth, shard.queue.peakDepth());
  }
  return out;
}

ServeWorkload::ShardView ServeWorkload::shardView(index_t shard) const {
  HPLMXP_REQUIRE(shard >= 0 && shard < config_.shards, "shard out of range");
  const Shard& s = shards_[static_cast<std::size_t>(shard)];
  ShardView view;
  view.shard = shard;
  view.node = s.node;
  view.crashed = s.crashed;
  view.slowFactor = s.slowFactor;
  view.queuedRequests = s.queue.depth();
  view.cachedKeys = static_cast<index_t>(s.cache->size());
  view.cachedMb =
      static_cast<double>(s.cache->stats().bytesInUse) / (1024.0 * 1024.0);
  view.routed = s.routed;
  view.completed = s.completed;
  view.busyUntil = s.busyUntil;
  return view;
}

}  // namespace hplmxp::fleetsim
