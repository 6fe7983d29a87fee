#include "serve/fleet/fleet.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>

#include "gen/matgen.h"
#include "serve/json.h"
#include "util/logging.h"

namespace hplmxp::serve {

namespace {

/// FNV-1a over the replicated factor panel: peers verify the broadcast
/// arrived intact (an injected bit flip fails the job, which feeds the
/// shard-health breaker like any other grid fault).
std::uint64_t fnv1a(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (std::size_t i = 0; i < bytes; ++i) {
    h = (h ^ p[i]) * 0x100000001B3ull;
  }
  return h;
}

bool contains(const std::vector<index_t>& v, index_t x) {
  return std::find(v.begin(), v.end(), x) != v.end();
}

}  // namespace

// --- Handle ---------------------------------------------------------------

const RequestOutcome& FleetEngine::Handle::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [&] { return done_; });
  return outcome_;
}

bool FleetEngine::Handle::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

bool FleetEngine::Handle::publish(RequestOutcome outcome,
                                  std::vector<double> solution) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (done_) {
      return false;
    }
    outcome_ = std::move(outcome);
    solution_ = std::move(solution);
    done_ = true;
  }
  cv_.notify_all();
  return true;
}

// --- FleetEngine ----------------------------------------------------------

FleetEngine::FleetEngine(FleetConfig config)
    : config_(std::move(config)),
      ring_(config_.shards, config_.virtualNodes),
      health_(config_.health),
      healthMon_(config_.healthMonitor, config_.shards) {
  HPLMXP_REQUIRE(config_.shards > 0, "fleet needs >= 1 shard");
  HPLMXP_REQUIRE(config_.groupSize > 0, "fleet shards need >= 1 rank");
  HPLMXP_REQUIRE(config_.failoverLimit >= 0,
                 "failover limit must be >= 0");
  HPLMXP_REQUIRE(config_.health.enabled,
                 "fleet shard-health breaker cannot be disabled");
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (index_t s = 0; s < config_.shards; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->id = s;
    // Sentinel keys live in n < 0 space so they can never collide with a
    // servable key (admission rejects n <= 0).
    shard->sentinel.n = -1 - s;
    shard->group = std::make_unique<simmpi::RankGroup>(s, config_.groupSize,
                                                       config_.groupOptions);
    shard->slowRanks = std::make_unique<SlowRankMonitor>(
        config_.groupSize, config_.slowRankPolicy);
    ServeConfig cfg = config_.shard;
    cfg.cacheBytes = config_.fleetCacheBytes /
                     static_cast<std::size_t>(config_.shards);
    cfg.factorOverride = [this, s](const ProblemKey& key) {
      return groupFactor(s, key);
    };
    if (config_.healthMonitor.enabled) {
      // The shard's worker lanes are its heartbeat stream; a crashed
      // shard's lanes are dead and send nothing.
      cfg.pulse = [this, s, raw = shard.get()] {
        if (!raw->crashed.load(std::memory_order_relaxed)) {
          healthMon_.heartbeat(s, now());
        }
        return config_.healthMonitor.heartbeatIntervalSeconds;
      };
    }
    shard->engine = std::make_unique<ServeEngine>(std::move(cfg));
    shard->engine->setCacheEvictionListener(
        [this, s](const ProblemKey& key) { index_.noteEviction(key, s); });
    shards_.push_back(std::move(shard));
  }
  if (config_.hedge.enabled) {
    HPLMXP_REQUIRE(config_.hedge.delayFactor >= 0.0 &&
                       config_.hedge.minDelaySeconds >= 0.0 &&
                       config_.hedge.maxDelaySeconds >=
                           config_.hedge.minDelaySeconds,
                   "hedge delay configuration is inconsistent");
    HPLMXP_REQUIRE(config_.hedge.budgetPerSecond > 0.0 &&
                       config_.hedge.budgetBurst >= 1.0,
                   "hedge budget must admit at least one hedge");
    hedgeTokens_ = config_.hedge.budgetBurst;
    hedgeRefillAt_ = now();
    hedgeThread_ = std::thread([this] { hedgeLoop(); });
  }
}

FleetEngine::~FleetEngine() { stop(); }

Factorization FleetEngine::groupFactor(index_t shard, const ProblemKey& key) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  try {
    Factorization out;
    sh.group->runJob([&](simmpi::Comm& comm) {
      const index_t n = key.n;
      if (comm.rank() == 0) {
        ProblemGenerator gen(key.seed, n);
        Factorization f = factorStorageSingle(gen, key.b,
                                              config_.shard.vendor,
                                              key.precision);
        if (comm.size() > 1) {
          std::uint64_t sum = fnv1a(f.lu.data(), f.lu.bytes());
          comm.bcast(0, f.lu.data(), n * n);
          comm.bcast(0, &sum, 1);
        }
        out = std::move(f);
      } else {
        // Peers hold a verified replica of the panel: the broadcast is
        // the crash/corruption surface an injected grid fault hits.
        Buffer<float> replica(n * n);
        comm.bcast(0, replica.data(), n * n);
        std::uint64_t sum = 0;
        comm.bcast(0, &sum, 1);
        HPLMXP_REQUIRE(fnv1a(replica.data(), replica.bytes()) == sum,
                       "fleet factor replication checksum mismatch");
      }
    });
    HPLMXP_REQUIRE(out.n == key.n,
                   "fleet factor job produced no factorization");
    health_.onSuccess(sh.sentinel);
    return out;
  } catch (...) {
    health_.onFailure(sh.sentinel, now());
    if (!sh.group->alive()) {
      markCrashed(shard);
    }
    throw;
  }
}

void FleetEngine::markCrashed(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  if (!sh.crashed.exchange(true)) {
    // A dead grid takes its resident factors with it: drop the shard's
    // cache and withdraw its fleet-index placements so the router stops
    // chasing factors that no longer exist.
    sh.engine->clearCache();
    index_.dropShard(shard);
    crashes_.fetch_add(1, std::memory_order_relaxed);
    logWarn("fleet: shard ", shard, " crashed (generation ",
            sh.group->generation(), ")");
  }
}

bool FleetEngine::shardRoutable(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  if (sh.crashed.load(std::memory_order_relaxed) || !sh.group->alive()) {
    return false;
  }
  // The health breaker is the drain gate: an open circuit routes nothing
  // (in-flight requests still finish on the shard), a half-open one
  // admits its probe quota, a closed one routes freely.
  return health_.allow(sh.sentinel, now());
}

index_t FleetEngine::pickShard(const ProblemKey& key, std::uint64_t count,
                               const std::vector<index_t>& tried) {
  const double t = now();
  // Two-tier health: `hard` excludes shards that cannot serve (crashed
  // grid, open breaker); `preferred` additionally steers off shards the
  // phi detector has quarantined. The hard tier is the fallback, so
  // gray-failure quarantine deprioritizes but can never starve routing.
  const auto hard = [&](index_t s) {
    return !contains(tried, s) && shardRoutable(s);
  };
  const auto preferred = [&](index_t s) {
    return hard(s) && healthMon_.routable(s, t);
  };
  const auto finish = [&](index_t chosen) {
    if (chosen >= 0) {
      const index_t allUp = ring_.route(key, nullptr);
      if (chosen != allUp && allUp >= 0 &&
          healthMon_.state(allUp, t) == HealthState::kQuarantined) {
        healthDetours_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return chosen;
  };

  // Hot keys spread round-robin across their ring successors so one
  // popular factorization stops serializing on a single shard.
  if (config_.hotKeyRequests > 0 && config_.hotReplicas > 1 &&
      count >= static_cast<std::uint64_t>(config_.hotKeyRequests)) {
    std::vector<index_t> replicas =
        ring_.successors(key, config_.hotReplicas, preferred);
    if (replicas.empty()) {
      replicas = ring_.successors(key, config_.hotReplicas, hard);
    }
    if (!replicas.empty()) {
      return finish(replicas[count % replicas.size()]);
    }
  }

  // Cache affinity: prefer a shard that already holds the factors.
  for (const index_t s : index_.placements(key)) {
    if (preferred(s)) {
      affinityHits_.fetch_add(1, std::memory_order_relaxed);
      return finish(s);
    }
  }

  index_t chosen = ring_.route(key, preferred);
  if (chosen < 0) {
    chosen = ring_.route(key, hard);  // quarantine never starves the fleet
  }
  if (chosen >= 0 && chosen != ring_.route(key, nullptr)) {
    // Routed off the all-up primary: the degraded-fleet detour counter.
    reroutes_.fetch_add(1, std::memory_order_relaxed);
  }
  return finish(chosen);
}

FleetEngine::HandlePtr FleetEngine::submit(const SolveRequest& request) {
  auto handle = std::make_shared<Handle>();
  SolveRequest req = request;
  req.id = req.id != 0
               ? req.id
               : nextId_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    HPLMXP_REQUIRE(!stopping_, "fleet is stopping");
    ++outstanding_;
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  const double submitAt = now();

  const std::uint64_t count = index_.noteRequest(req.key);
  const index_t target = pickShard(req.key, count, {});
  if (target < 0) {
    // Whole-fleet degradation: answer structurally, never hang.
    RequestOutcome o;
    o.id = req.id;
    o.key = req.key;
    o.rhsSeed = req.rhsSeed;
    o.status = RequestStatus::kFailed;
    o.error = "no healthy shard for key " + req.key.toString();
    o.totalSeconds = now() - submitAt;
    publishOutcome(handle, std::move(o), {});
    return handle;
  }
  routeToShard(target, req, handle, submitAt, 0, {target});
  if (config_.hedge.enabled && shardCount() > 1) {
    scheduleHedge(req, handle, submitAt, {target});
  }
  return handle;
}

void FleetEngine::routeToShard(index_t shard, const SolveRequest& request,
                               const HandlePtr& handle, double submitAt,
                               index_t failovers,
                               std::vector<index_t> tried, bool hedge) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  sh.routed.fetch_add(1, std::memory_order_relaxed);
  ServeEngine::HandlePtr shardHandle = sh.engine->submit(request);
  // The callback runs on the shard's finishing thread (or inline for
  // admission rejections); a shard-side failure re-routes within the
  // failover budget, everything else publishes the fleet answer exactly
  // once.
  shardHandle->onDone([this, shard, request, handle, submitAt, failovers,
                       tried = std::move(tried), hedge,
                       shardHandle]() mutable {
    RequestOutcome o = shardHandle->outcome();
    // Outcomes are probe verdicts only: the shard's worker lanes pulse
    // its heartbeat stream (ServeConfig::pulse), and the breaker owns
    // failures otherwise.
    if (o.status == RequestStatus::kCompleted) {
      healthMon_.onOutcome(shard, true, now());
    } else if (o.status == RequestStatus::kFailed) {
      healthMon_.onOutcome(shard, false, now());
    }
    if (!hedge && o.status == RequestStatus::kFailed &&
        failovers < config_.failoverLimit) {
      const index_t next =
          pickShard(request.key, index_.requestCount(request.key), tried);
      if (next >= 0) {
        failovers_.fetch_add(1, std::memory_order_relaxed);
        tried.push_back(next);
        routeToShard(next, request, handle, submitAt, failovers + 1,
                     std::move(tried));
        return;
      }
    }
    if (hedge && o.status != RequestStatus::kCompleted) {
      // A speculative copy may never decide the request's fate: had the
      // hedge's failure published here, a still-running primary could
      // not win anymore. Swallow it as wasted duplicate work.
      hedgeWasted_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    o.shard = shard;
    o.failovers = failovers;
    o.totalSeconds = now() - submitAt;  // fleet view: failover time counts
    if (o.status == RequestStatus::kCompleted) {
      index_.notePlacement(request.key, shard);
    }
    publishOutcome(handle, std::move(o),
                   std::vector<double>(shardHandle->solution()), hedge);
  });
}

void FleetEngine::publishOutcome(const HandlePtr& handle,
                                 RequestOutcome outcome,
                                 std::vector<double> solution, bool hedge) {
  outcome.hedged = hedge;
  const RequestOutcome recorded = outcome;
  if (!handle->publish(std::move(outcome), std::move(solution))) {
    if (handle->hedged_.load(std::memory_order_relaxed)) {
      // The race hedging deliberately creates: both copies finished and
      // the loser's answer bounced off the publish-once handle. Expected
      // duplicate work, not an accounting bug.
      hedgeWasted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      doubleAnswered_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  if (hedge) {
    hedgeWins_.fetch_add(1, std::memory_order_relaxed);
  }
  recorder_.record(recorded);
  answered_.fetch_add(1, std::memory_order_relaxed);
  bool idle = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    idle = --outstanding_ == 0;
  }
  if (idle) {
    idleCv_.notify_all();
  }
}

// --- hedged requests -------------------------------------------------------

double FleetEngine::hedgeDelaySeconds() const {
  const double p95 = recorder_.recentTotalP95Seconds();
  const double raw = config_.hedge.delayFactor * p95;
  return std::max(config_.hedge.minDelaySeconds,
                  std::min(config_.hedge.maxDelaySeconds, raw));
}

void FleetEngine::scheduleHedge(const SolveRequest& request,
                                const HandlePtr& handle, double submitAt,
                                std::vector<index_t> tried) {
  HedgeTask task;
  task.fireAt = now() + hedgeDelaySeconds();
  task.submitAt = submitAt;
  task.request = request;
  task.handle = handle;
  task.tried = std::move(tried);
  {
    std::lock_guard<std::mutex> lock(hedgeMutex_);
    if (hedgeStop_) {
      return;
    }
    hedgeHeap_.push_back(std::move(task));
    std::push_heap(hedgeHeap_.begin(), hedgeHeap_.end(),
                   [](const HedgeTask& a, const HedgeTask& b) {
                     return a.fireAt > b.fireAt;
                   });
  }
  hedgeCv_.notify_one();
}

void FleetEngine::hedgeLoop() {
  const auto later = [](const HedgeTask& a, const HedgeTask& b) {
    return a.fireAt > b.fireAt;
  };
  std::unique_lock<std::mutex> lock(hedgeMutex_);
  for (;;) {
    if (hedgeStop_) {
      return;
    }
    if (hedgeHeap_.empty()) {
      hedgeCv_.wait(lock);
      continue;
    }
    const double due = hedgeHeap_.front().fireAt;
    const double t = now();
    if (t < due) {
      hedgeCv_.wait_for(lock, std::chrono::duration<double>(due - t));
      continue;
    }
    std::pop_heap(hedgeHeap_.begin(), hedgeHeap_.end(), later);
    HedgeTask task = std::move(hedgeHeap_.back());
    hedgeHeap_.pop_back();
    // Token-bucket refill on the same clock the fire times use.
    hedgeTokens_ = std::min(
        config_.hedge.budgetBurst,
        hedgeTokens_ + (t - hedgeRefillAt_) * config_.hedge.budgetPerSecond);
    hedgeRefillAt_ = t;
    if (task.handle->done()) {
      continue;  // answered in time: the hedge is moot (cancelled)
    }
    if (hedgeTokens_ < 1.0) {
      hedgeDenied_.fetch_add(1, std::memory_order_relaxed);
      continue;  // amplification budget exhausted: fleet-wide slowness
    }
    hedgeTokens_ -= 1.0;
    lock.unlock();
    fireHedge(std::move(task));
    lock.lock();
  }
}

void FleetEngine::fireHedge(HedgeTask task) {
  const index_t next = pickShard(
      task.request.key, index_.requestCount(task.request.key), task.tried);
  if (next < 0 || task.handle->done()) {
    if (next < 0) {
      hedgeDenied_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  task.handle->hedged_.store(true, std::memory_order_relaxed);
  hedgesIssued_.fetch_add(1, std::memory_order_relaxed);
  task.tried.push_back(next);
  routeToShard(next, task.request, task.handle, task.submitAt, 0,
               std::move(task.tried), /*hedge=*/true);
}

void FleetEngine::drain() {
  for (const auto& sh : shards_) {
    sh->engine->drain();
  }
  // Failover chains can still be in flight after every shard queue is
  // empty; the fleet ledger is the source of truth.
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void FleetEngine::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  // The hedge scheduler goes first so no speculative copy is submitted
  // to a shard engine that is already shutting down.
  {
    std::lock_guard<std::mutex> lock(hedgeMutex_);
    hedgeStop_ = true;
    hedgeHeap_.clear();
  }
  hedgeCv_.notify_all();
  if (hedgeThread_.joinable()) {
    hedgeThread_.join();
  }
  for (const auto& sh : shards_) {
    sh->engine->stop();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  idleCv_.wait(lock, [&] { return outstanding_ == 0; });
}

void FleetEngine::breakShard(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  const double t = now();
  for (index_t i = 0; i < config_.health.failureThreshold; ++i) {
    health_.onFailure(sh.sentinel, t);
  }
  opsBreaks_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " circuit-broken (draining)");
}

void FleetEngine::unbreakShard(index_t shard) {
  health_.onSuccess(shards_[static_cast<std::size_t>(shard)]->sentinel);
}

void FleetEngine::crashShard(index_t shard) {
  shards_[static_cast<std::size_t>(shard)]->group->kill("ops crash");
  markCrashed(shard);
}

void FleetEngine::resurrectShard(index_t shard) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  sh.group->restart();
  sh.crashed.store(false, std::memory_order_relaxed);
  health_.onSuccess(sh.sentinel);
  resurrections_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " resurrected (generation ",
          sh.group->generation(), ")");
}

void FleetEngine::armShardFaults(
    index_t shard, std::shared_ptr<simmpi::FaultInjector> faults) {
  shards_[static_cast<std::size_t>(shard)]->group->setFaults(
      std::move(faults));
}

void FleetEngine::slowShard(index_t shard, double stretch) {
  shards_[static_cast<std::size_t>(shard)]->engine->setServiceStretch(
      stretch);
  opsSlows_.fetch_add(1, std::memory_order_relaxed);
  logInfo("fleet: shard ", shard, " service stretched x",
          Table::num(stretch, 2));
}

bool FleetEngine::reportRankWaits(index_t shard, index_t k,
                                  const std::vector<double>& waits) {
  Shard& sh = *shards_[static_cast<std::size_t>(shard)];
  bool terminate = false;
  {
    std::lock_guard<std::mutex> lock(sh.slowMutex);
    sh.slowRanks->observe(k, waits);
    terminate = sh.slowRanks->shouldTerminate();
  }
  if (terminate) {
    // A struck-out rank inside the grid is straggler evidence against the
    // whole shard: the grid is only as fast as its slowest rank.
    healthMon_.noteStraggler(shard, now());
  }
  return terminate;
}

std::function<bool(index_t, const std::vector<double>&)>
FleetEngine::rankProgressHook(index_t shard) {
  return [this, shard](index_t k, const std::vector<double>& waits) {
    return reportRankWaits(shard, k, waits);
  };
}

FleetReport FleetEngine::report() const {
  FleetReport r;
  r.shards = static_cast<index_t>(shards_.size());

  FactorCache::Stats cacheSum;
  // Batches form inside the shard engines; the fleet recorder only sees
  // finished requests, so the batching figures roll up from the shards.
  std::uint64_t batchedSolves = 0;
  double batchedColumns = 0.0;
  index_t maxBatchSize = 0;
  const std::vector<CircuitBreaker::KeySnapshot> health = health_.snapshot();
  for (const auto& sh : shards_) {
    ShardReport s;
    s.id = sh->id;
    s.groupAlive = sh->group->alive();
    const simmpi::RankGroup::Stats gs = sh->group->stats();
    s.generation = gs.generation;
    s.groupSize = sh->group->size();
    s.groupJobs = gs.jobs;
    s.groupCrashes = gs.crashes;
    s.routed = sh->routed.load(std::memory_order_relaxed);
    s.report = sh->engine->report();
    s.health = "healthy";
    for (const auto& k : health) {
      if (k.key == sh->sentinel) {
        if (k.state == CircuitBreaker::State::kOpen) {
          s.breakerState = "open";
        } else if (k.state == CircuitBreaker::State::kHalfOpen) {
          s.breakerState = "half-open";
        }
        s.breakerFailures = k.consecutiveFailures;
        s.breakerTrips = k.trips;
        s.breakerRejections = k.rejections;
        break;
      }
    }
    if (sh->crashed.load(std::memory_order_relaxed)) {
      s.health = "crashed";
    } else if (s.breakerState == "open") {
      s.health = "broken";
    } else if (s.breakerState == "half-open") {
      s.health = "half-open";
    }
    const ShardHealthMonitor::ShardSnapshot hs =
        healthMon_.shardSnapshot(sh->id, clock_.seconds());
    s.healthState = toString(hs.state);
    s.phi = hs.phi;
    s.heartbeatAgeSeconds = hs.lastHeartbeatAge;
    s.heartbeats = hs.heartbeats;
    s.quarantines = hs.quarantines;
    s.probes = hs.probes;
    s.stragglerReports = hs.stragglerReports;
    const FactorCache::Stats cs = s.report.cache;
    cacheSum.lookups += cs.lookups;
    cacheSum.hits += cs.hits;
    cacheSum.misses += cs.misses;
    cacheSum.coalesced += cs.coalesced;
    cacheSum.evictions += cs.evictions;
    cacheSum.factorCount += cs.factorCount;
    cacheSum.bytesInUse += cs.bytesInUse;
    cacheSum.budgetBytes += cs.budgetBytes;
    batchedSolves += s.report.batchedSolves;
    batchedColumns += s.report.meanBatchSize *
                      static_cast<double>(s.report.batchedSolves);
    maxBatchSize = std::max(maxBatchSize, s.report.maxBatchSize);
    r.perShard.push_back(std::move(s));
  }

  r.fleet = recorder_.report(cacheSum, clock_.seconds(), 0);
  r.fleet.batchedSolves = batchedSolves;
  r.fleet.meanBatchSize =
      batchedSolves > 0 ? batchedColumns / static_cast<double>(batchedSolves)
                        : 0.0;
  r.fleet.maxBatchSize = maxBatchSize;
  r.reroutes = reroutes_.load(std::memory_order_relaxed);
  r.failovers = failovers_.load(std::memory_order_relaxed);
  r.affinityHits = affinityHits_.load(std::memory_order_relaxed);
  r.opsBreaks = opsBreaks_.load(std::memory_order_relaxed);
  r.opsSlows = opsSlows_.load(std::memory_order_relaxed);
  r.crashes = crashes_.load(std::memory_order_relaxed);
  r.resurrections = resurrections_.load(std::memory_order_relaxed);
  r.healthTrips = health_.trips();
  r.quarantines = healthMon_.quarantines();
  r.healthDetours = healthDetours_.load(std::memory_order_relaxed);
  r.stragglerReports = healthMon_.stragglerReports();
  r.hedgesIssued = hedgesIssued_.load(std::memory_order_relaxed);
  r.hedgeWins = hedgeWins_.load(std::memory_order_relaxed);
  r.hedgeWasted = hedgeWasted_.load(std::memory_order_relaxed);
  r.hedgeDenied = hedgeDenied_.load(std::memory_order_relaxed);
  r.fleet.hedges = r.hedgesIssued;
  r.fleet.hedgeWins = r.hedgeWins;
  r.fleet.hedgeWasted = r.hedgeWasted;
  r.fleet.quarantines = r.quarantines;
  r.cacheIndex = index_.stats();
  r.submitted = submitted_.load(std::memory_order_relaxed);
  r.answered = answered_.load(std::memory_order_relaxed);
  r.dropped = r.submitted - r.answered;
  r.doubleAnswered = doubleAnswered_.load(std::memory_order_relaxed);
  r.cacheLookupInvariant =
      cacheSum.hits + cacheSum.misses == cacheSum.lookups;
  return r;
}

// --- FleetReport rendering ------------------------------------------------

Table FleetReport::toTable() const {
  Table t({"metric", "value"});
  t.addRow({"shards", Table::num((long long)shards)});
  t.addRow({"submitted", Table::num((long long)submitted)});
  t.addRow({"answered", Table::num((long long)answered)});
  t.addRow({"dropped", Table::num((long long)dropped)});
  t.addRow({"double answered", Table::num((long long)doubleAnswered)});
  t.addRow({"completed", Table::num((long long)fleet.completed)});
  t.addRow({"failed", Table::num((long long)fleet.failed)});
  t.addRow({"reroutes / failovers", Table::num((long long)reroutes) + " / " +
                                        Table::num((long long)failovers)});
  t.addRow({"affinity hits", Table::num((long long)affinityHits)});
  t.addRow({"health trips / ops breaks",
            Table::num((long long)healthTrips) + " / " +
                Table::num((long long)opsBreaks)});
  t.addRow({"crashes / resurrections", Table::num((long long)crashes) +
                                           " / " +
                                           Table::num((long long)resurrections)});
  t.addRow({"quarantines / detours / stragglers",
            Table::num((long long)quarantines) + " / " +
                Table::num((long long)healthDetours) + " / " +
                Table::num((long long)stragglerReports)});
  t.addRow({"hedges issued / won / wasted / denied",
            Table::num((long long)hedgesIssued) + " / " +
                Table::num((long long)hedgeWins) + " / " +
                Table::num((long long)hedgeWasted) + " / " +
                Table::num((long long)hedgeDenied)});
  t.addRow({"ops slows", Table::num((long long)opsSlows)});
  t.addRow({"fleet hit rate",
            Table::num(fleet.cache.hitRate() * 100.0, 1) + "%"});
  t.addRow({"fleet lookups = hits + misses",
            cacheLookupInvariant ? "yes" : "VIOLATED"});
  t.addRow({"replicated keys",
            Table::num((long long)cacheIndex.replicatedKeys)});
  t.addRow({"fleet total p50/p95/p99 ms",
            Table::num(fleet.total.p50Ms, 2) + " / " +
                Table::num(fleet.total.p95Ms, 2) + " / " +
                Table::num(fleet.total.p99Ms, 2)});
  for (const ShardReport& s : perShard) {
    t.addRow({"shard " + std::to_string(s.id) + " [" + s.health + "/" +
                  s.healthState + "]",
              Table::num((long long)s.routed) + " routed, " +
                  Table::num((long long)s.report.completed) + " completed, " +
                  "gen " + Table::num((long long)s.generation) + ", phi " +
                  Table::num(s.phi, 2) + ", hit " +
                  Table::num(s.report.cache.hitRate() * 100.0, 1) + "%"});
  }
  return t;
}

std::string FleetReport::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"trace\": " << jsonQuote(trace) << ",\n";
  os << "  \"shards\": " << shards << ",\n";
  os << "  \"submitted\": " << submitted << ",\n";
  os << "  \"answered\": " << answered << ",\n";
  os << "  \"dropped\": " << dropped << ",\n";
  os << "  \"double_answered\": " << doubleAnswered << ",\n";
  os << "  \"reroutes\": " << reroutes << ",\n";
  os << "  \"failovers\": " << failovers << ",\n";
  os << "  \"affinity_hits\": " << affinityHits << ",\n";
  os << "  \"ops_breaks\": " << opsBreaks << ",\n";
  os << "  \"ops_slows\": " << opsSlows << ",\n";
  os << "  \"crashes\": " << crashes << ",\n";
  os << "  \"resurrections\": " << resurrections << ",\n";
  os << "  \"health_trips\": " << healthTrips << ",\n";
  os << "  \"quarantines\": " << quarantines << ",\n";
  os << "  \"health_detours\": " << healthDetours << ",\n";
  os << "  \"straggler_reports\": " << stragglerReports << ",\n";
  os << "  \"hedges_issued\": " << hedgesIssued << ",\n";
  os << "  \"hedge_wins\": " << hedgeWins << ",\n";
  os << "  \"hedge_wasted\": " << hedgeWasted << ",\n";
  os << "  \"hedge_denied\": " << hedgeDenied << ",\n";
  os << "  \"cache_lookup_invariant\": "
     << (cacheLookupInvariant ? "true" : "false") << ",\n";
  os << "  \"index_placements\": " << cacheIndex.placements << ",\n";
  os << "  \"index_evictions\": " << cacheIndex.evictions << ",\n";
  os << "  \"index_dropped\": " << cacheIndex.dropped << ",\n";
  os << "  \"index_resident_keys\": " << cacheIndex.residentKeys << ",\n";
  os << "  \"index_replicated_keys\": " << cacheIndex.replicatedKeys
     << ",\n";
  os << "  \"fleet\": " << fleet.toJson() << ",\n";
  os << "  \"per_shard\": [\n";
  for (std::size_t i = 0; i < perShard.size(); ++i) {
    const ShardReport& s = perShard[i];
    os << "    {\n";
    os << "      \"id\": " << s.id << ",\n";
    os << "      \"health\": " << jsonQuote(s.health) << ",\n";
    os << "      \"group_alive\": " << (s.groupAlive ? "true" : "false")
       << ",\n";
    os << "      \"generation\": " << s.generation << ",\n";
    os << "      \"group_size\": " << s.groupSize << ",\n";
    os << "      \"group_jobs\": " << s.groupJobs << ",\n";
    os << "      \"group_crashes\": " << s.groupCrashes << ",\n";
    os << "      \"routed\": " << s.routed << ",\n";
    os << "      \"breaker_state\": " << jsonQuote(s.breakerState) << ",\n";
    os << "      \"breaker_failures\": " << s.breakerFailures << ",\n";
    os << "      \"breaker_trips\": " << s.breakerTrips << ",\n";
    os << "      \"breaker_rejections\": " << s.breakerRejections << ",\n";
    os << "      \"health_state\": " << jsonQuote(s.healthState) << ",\n";
    os << "      \"phi\": " << s.phi << ",\n";
    os << "      \"heartbeat_age_seconds\": " << s.heartbeatAgeSeconds
       << ",\n";
    os << "      \"heartbeats\": " << s.heartbeats << ",\n";
    os << "      \"quarantines\": " << s.quarantines << ",\n";
    os << "      \"probes\": " << s.probes << ",\n";
    os << "      \"straggler_reports\": " << s.stragglerReports << ",\n";
    os << "      \"report\": " << s.report.toJson();
    os << "    }" << (i + 1 < perShard.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

}  // namespace hplmxp::serve
