// Sharded serve fabric: consistent-hash routing, the fleet-level factor
// index, shard health (break/drain, crash/failover, resurrection), the
// no-lost-answer ledger, and bitwise equivalence of fleet answers across
// shard counts. Also the rank-group isolation proof: concurrent
// simmpi::run invocations with independent fault injectors never see each
// other's faults, recovery, or replay-log state.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/single_solver.h"
#include "gen/matgen.h"
#include "serve/fleet/fleet.h"
#include "serve/json.h"
#include "simmpi/rank_group.h"

namespace hplmxp::serve {
namespace {

ProblemKey key(index_t n, index_t b, std::uint64_t seed) {
  ProblemKey k;
  k.n = n;
  k.b = b;
  k.seed = seed;
  return k;
}

SolveRequest request(const ProblemKey& k, std::uint64_t rhsSeed) {
  SolveRequest r;
  r.key = k;
  r.rhsSeed = rhsSeed;
  return r;
}

/// Ground truth for bitwise checks: the same pure single-device path every
/// shard runs (storage rung from the key, solve from the factors).
std::vector<double> soloSolution(const ProblemKey& k, std::uint64_t rhsSeed) {
  const ProblemGenerator gen(k.seed, k.n);
  const Factorization f =
      factorStorageSingle(gen, k.b, Vendor::kAmd, k.precision);
  std::vector<std::vector<double>> xs;
  (void)solveManyMixedSingle(f, gen, {rhsSeed}, xs);
  return xs[0];
}

void expectBitwise(const std::vector<double>& got,
                   const std::vector<double>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                           sizeof(double) * want.size()))
      << what;
}

// ----------------------------------------------------------- HashRing --

TEST(HashRingTest, DeterministicAcrossInstances) {
  const HashRing a(3, 64);
  const HashRing b(3, 64);
  EXPECT_EQ(a.points(), 3 * 64);
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ProblemKey k = key(64, 16, seed);
    EXPECT_EQ(a.route(k, nullptr), b.route(k, nullptr)) << "seed " << seed;
    EXPECT_EQ(HashRing::hashKey(k), HashRing::hashKey(k));
  }
}

TEST(HashRingTest, SpreadsKeysAcrossShards) {
  const HashRing ring(3, 64);
  std::vector<int> routed(3, 0);
  constexpr int kKeys = 300;
  for (std::uint64_t seed = 0; seed < kKeys; ++seed) {
    const index_t s = ring.route(key(64, 16, seed), nullptr);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 3);
    ++routed[static_cast<std::size_t>(s)];
  }
  for (int s = 0; s < 3; ++s) {
    // 64 virtual nodes keep the split far from degenerate.
    EXPECT_GT(routed[static_cast<std::size_t>(s)], kKeys / 10)
        << "shard " << s;
  }
}

TEST(HashRingTest, RemovingAShardOnlyMovesItsOwnKeys) {
  const HashRing ring(4, 64);
  const auto without1 = [](index_t s) { return s != 1; };
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const ProblemKey k = key(64, 16, seed);
    const index_t primary = ring.route(k, nullptr);
    const index_t rerouted = ring.route(k, without1);
    if (primary != 1) {
      // The consistent-hashing property drain/rebalance relies on.
      EXPECT_EQ(rerouted, primary) << "seed " << seed;
    } else {
      EXPECT_NE(rerouted, 1) << "seed " << seed;
      // The detour is the key's next distinct successor.
      const std::vector<index_t> succ = ring.successors(k, 2, nullptr);
      ASSERT_EQ(succ.size(), 2u);
      EXPECT_EQ(succ[0], 1);
      EXPECT_EQ(rerouted, succ[1]) << "seed " << seed;
    }
  }
}

TEST(HashRingTest, SuccessorsAreDistinctAndStartAtThePrimary) {
  const HashRing ring(4, 64);
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const ProblemKey k = key(64, 16, seed);
    const std::vector<index_t> succ = ring.successors(k, 4, nullptr);
    ASSERT_EQ(succ.size(), 4u);
    EXPECT_EQ(succ[0], ring.route(k, nullptr));
    EXPECT_EQ(std::set<index_t>(succ.begin(), succ.end()).size(), 4u);
  }
  EXPECT_TRUE(ring.successors(key(64, 16, 1), 0, nullptr).empty());
  // Unhealthy shards are skipped, not returned.
  const auto only2 = [](index_t s) { return s == 2; };
  const std::vector<index_t> one = ring.successors(key(64, 16, 1), 4, only2);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 2);
}

TEST(HashRingTest, PlacementIsPinnedForFixedKeys) {
  // Golden placement: a change to hashKey's mixing (or to the ring's
  // point layout) silently re-homes every cached factorization, so these
  // values are frozen. The first rows are the serve benchmark's keyspace
  // (n=128, b=32, seeds from 0x5eed0000 on a 2-shard ring) and the
  // co-simulator's (n=64, b=16 on 24 shards); the last one exercises the
  // grid and precision rounds.
  struct Pin {
    index_t n, b;
    std::uint64_t seed;
    index_t pr, pc;
    lowp::StoragePrecision precision;
    std::uint64_t hash;
    index_t onTwo, onThree, onTwentyFour;
  };
  const Pin pins[] = {
      {128, 32, 0x5eed0000ull, 1, 1, lowp::StoragePrecision::kFp16,
       0xcc91a38637cca1b3ull, 1, 1, 11},
      {128, 32, 0x5eed0001ull, 1, 1, lowp::StoragePrecision::kFp16,
       0x1ed7d49433a87813ull, 0, 0, 6},
      {128, 32, 0x5eed0007ull, 1, 1, lowp::StoragePrecision::kFp16,
       0xfee63718c1ba076eull, 0, 0, 6},
      {128, 32, 0x5eed00ffull, 1, 1, lowp::StoragePrecision::kFp16,
       0x38dc2c23a66564dcull, 0, 0, 23},
      {64, 16, 0x5eed0000ull, 1, 1, lowp::StoragePrecision::kFp16,
       0xfbc35f2fa2f7e7acull, 0, 0, 10},
      {64, 16, 0x5eed0003ull, 1, 1, lowp::StoragePrecision::kFp16,
       0x8fc42dc91e25a6a8ull, 0, 0, 0},
      {64, 16, 42, 2, 2, lowp::StoragePrecision::kFp8E4M3,
       0x2cafa34380c2244dull, 0, 0, 16},
  };
  const HashRing two(2, 64);
  const HashRing three(3, 64);
  const HashRing twentyFour(24, 64);
  for (const Pin& p : pins) {
    ProblemKey k = key(p.n, p.b, p.seed);
    k.pr = p.pr;
    k.pc = p.pc;
    k.precision = p.precision;
    EXPECT_EQ(HashRing::hashKey(k), p.hash) << k.toString();
    EXPECT_EQ(two.route(k, nullptr), p.onTwo) << k.toString();
    EXPECT_EQ(three.route(k, nullptr), p.onThree) << k.toString();
    EXPECT_EQ(twentyFour.route(k, nullptr), p.onTwentyFour) << k.toString();
  }
}

// ----------------------------------------------------- FleetCacheIndex --

TEST(FleetCacheIndexTest, PlacementsDedupAndEvictionsWithdraw) {
  FleetCacheIndex index;
  const ProblemKey k = key(64, 16, 7);
  EXPECT_EQ(index.noteRequest(k), 1u);
  EXPECT_EQ(index.noteRequest(k), 2u);
  EXPECT_EQ(index.requestCount(k), 2u);

  index.notePlacement(k, 0);
  index.notePlacement(k, 0);  // duplicate: ignored
  index.notePlacement(k, 2);
  EXPECT_EQ(index.placements(k), (std::vector<index_t>{0, 2}));
  FleetCacheIndex::Stats s = index.stats();
  EXPECT_EQ(s.placements, 2u);
  EXPECT_EQ(s.residentKeys, 1);
  EXPECT_EQ(s.replicatedKeys, 1);

  index.noteEviction(k, 0);
  index.noteEviction(k, 0);  // already gone: no double count
  EXPECT_EQ(index.placements(k), (std::vector<index_t>{2}));
  s = index.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.replicatedKeys, 0);
}

TEST(FleetCacheIndexTest, DropShardWithdrawsEverythingItHeld) {
  FleetCacheIndex index;
  const ProblemKey a = key(64, 16, 1);
  const ProblemKey b = key(64, 16, 2);
  index.notePlacement(a, 0);
  index.notePlacement(a, 1);
  index.notePlacement(b, 1);
  index.dropShard(1);
  EXPECT_EQ(index.placements(a), (std::vector<index_t>{0}));
  EXPECT_TRUE(index.placements(b).empty());
  const FleetCacheIndex::Stats s = index.stats();
  EXPECT_EQ(s.dropped, 2u);
  EXPECT_EQ(s.residentKeys, 1);
}

// --------------------------------------------------------- FleetEngine --

FleetConfig fleetConfig(index_t shards) {
  FleetConfig cfg;
  cfg.shards = shards;
  cfg.groupSize = 2;
  // Half-crashed grids must fail fast, not hang their peers.
  cfg.groupOptions.timeout = std::chrono::milliseconds(2000);
  return cfg;
}

struct Answer {
  RequestOutcome outcome;
  std::vector<double> solution;
};

/// Replays `requests` through a fresh fleet of `shards` shards, invoking
/// `chaos(fleet, i)` before submitting request i.
std::vector<Answer> replay(
    FleetConfig cfg, const std::vector<SolveRequest>& requests,
    const std::function<void(FleetEngine&, std::size_t)>& chaos = nullptr) {
  FleetEngine fleet(std::move(cfg));
  std::vector<FleetEngine::HandlePtr> handles;
  handles.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    if (chaos) {
      chaos(fleet, i);
    }
    handles.push_back(fleet.submit(requests[i]));
  }
  fleet.drain();
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.submitted, requests.size());
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
  EXPECT_TRUE(report.cacheLookupInvariant);
  std::vector<Answer> out;
  out.reserve(handles.size());
  for (const auto& h : handles) {
    out.push_back({h->wait(), h->solution()});
  }
  return out;
}

std::vector<SolveRequest> mixedTrace() {
  std::vector<SolveRequest> reqs;
  const std::vector<ProblemKey> keys = {key(32, 16, 11), key(32, 16, 12),
                                        key(48, 16, 13)};
  std::uint64_t rhs = 500;
  for (int round = 0; round < 3; ++round) {
    for (const ProblemKey& k : keys) {
      reqs.push_back(request(k, ++rhs));
    }
  }
  return reqs;
}

TEST(FleetEngineTest, ShardedReplayIsBitwiseIdenticalToSingleShard) {
  const std::vector<SolveRequest> reqs = mixedTrace();
  const std::vector<Answer> one = replay(fleetConfig(1), reqs);
  const std::vector<Answer> three = replay(fleetConfig(3), reqs);
  ASSERT_EQ(one.size(), reqs.size());
  ASSERT_EQ(three.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(one[i].outcome.status, RequestStatus::kCompleted)
        << one[i].outcome.error;
    ASSERT_EQ(three[i].outcome.status, RequestStatus::kCompleted)
        << three[i].outcome.error;
    expectBitwise(three[i].solution, one[i].solution, "1 vs 3 shards");
    // And both match the pure single-device path outright.
    expectBitwise(one[i].solution,
                  soloSolution(reqs[i].key, reqs[i].rhsSeed), "solo");
  }
}

TEST(FleetEngineTest, ReportRollsBatchStatisticsUpFromTheShards) {
  // Batches form inside the shard engines, so the fleet-level figures
  // must be the shards' rollup, not the (batch-blind) fleet recorder's.
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxBatch = 4;
  cfg.shard.maxBatchDelaySeconds = 0.05;  // wide window: force coalescing
  // One key homed on each shard, so both contribute to the rollup.
  const HashRing ring(cfg.shards, cfg.virtualNodes);
  std::vector<ProblemKey> keys(2);
  std::vector<bool> found(2, false);
  for (std::uint64_t seed = 1; !(found[0] && found[1]); ++seed) {
    const ProblemKey k = key(32, 16, seed);
    const auto s = static_cast<std::size_t>(ring.route(k, nullptr));
    if (!found[s]) {
      keys[s] = k;
      found[s] = true;
    }
  }
  std::vector<SolveRequest> reqs;
  std::uint64_t rhs = 700;
  for (const ProblemKey& k : keys) {
    for (int i = 0; i < 8; ++i) {
      reqs.push_back(request(k, ++rhs));
    }
  }

  FleetEngine fleet(cfg);
  std::vector<FleetEngine::HandlePtr> handles;
  for (const SolveRequest& r : reqs) {
    handles.push_back(fleet.submit(r));
  }
  for (const auto& h : handles) {
    ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  }
  fleet.drain();
  const FleetReport report = fleet.report();

  std::uint64_t solves = 0;
  double columns = 0.0;
  index_t maxBatch = 0;
  ASSERT_EQ(report.perShard.size(), 2u);
  for (const ShardReport& s : report.perShard) {
    EXPECT_GT(s.report.batchedSolves, 0u) << "shard " << s.id;
    solves += s.report.batchedSolves;
    columns += s.report.meanBatchSize *
               static_cast<double>(s.report.batchedSolves);
    maxBatch = std::max(maxBatch, s.report.maxBatchSize);
  }
  EXPECT_EQ(report.fleet.batchedSolves, solves);
  EXPECT_DOUBLE_EQ(report.fleet.meanBatchSize,
                   columns / static_cast<double>(solves));
  EXPECT_EQ(report.fleet.maxBatchSize, maxBatch);
  // Every request was answered by exactly one batch column.
  EXPECT_DOUBLE_EQ(columns, static_cast<double>(reqs.size()));
  EXPECT_GT(report.fleet.batchedSolves, 0u);
  EXPECT_GT(report.fleet.meanBatchSize, 1.0);
  EXPECT_GT(report.fleet.maxBatchSize, 1);
}

TEST(FleetEngineTest, RepeatedKeysStickToTheirPlacementShard) {
  FleetConfig cfg = fleetConfig(3);
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 21);
  for (std::uint64_t rhs = 1; rhs <= 5; ++rhs) {
    const auto h = fleet.submit(request(k, rhs));
    ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  }
  fleet.drain();
  const FleetReport report = fleet.report();
  // One factorization in the whole fleet: the index kept routing the key
  // to the shard already holding its factors.
  std::uint64_t factorCount = 0;
  for (const ShardReport& s : report.perShard) {
    factorCount += s.report.cache.factorCount;
  }
  EXPECT_EQ(factorCount, 1u);
  EXPECT_GE(report.affinityHits, 4u);
  EXPECT_EQ(fleet.cacheIndex().placements(k).size(), 1u);
}

TEST(FleetEngineTest, HotKeysSpreadAcrossReplicaShards) {
  FleetConfig cfg = fleetConfig(2);
  cfg.hotKeyRequests = 2;
  cfg.hotReplicas = 2;
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 22);
  const std::vector<double> want = soloSolution(k, 900);
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto h = fleet.submit(request(k, 900));
    ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
    expectBitwise(h->solution(), want, "hot replica answer");
  }
  fleet.drain();
  const FleetReport report = fleet.report();
  // Past the hot threshold the key round-robins, so both shards factor it.
  EXPECT_GT(report.perShard[0].routed, 0u);
  EXPECT_GT(report.perShard[1].routed, 0u);
  EXPECT_EQ(report.cacheIndex.replicatedKeys, 1);
  EXPECT_EQ(fleet.cacheIndex().placements(k).size(), 2u);
}

TEST(FleetEngineTest, BrokenShardDrainsAndReroutesUntilUnbroken) {
  FleetConfig cfg = fleetConfig(3);
  cfg.health.openSeconds = 3600.0;  // stays broken until ops intervene
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 23);
  const index_t primary = fleet.ring().route(k, nullptr);

  fleet.breakShard(primary);
  EXPECT_FALSE(fleet.shardRoutable(primary));

  const auto h = fleet.submit(request(k, 777));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  EXPECT_NE(h->wait().shard, primary);
  expectBitwise(h->solution(), soloSolution(k, 777), "rerouted answer");
  fleet.drain();

  FleetReport report = fleet.report();
  EXPECT_GE(report.reroutes, 1u);
  EXPECT_EQ(report.opsBreaks, 1u);
  EXPECT_GE(report.healthTrips, 1u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].health,
            "broken");
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].routed, 0u);

  fleet.unbreakShard(primary);
  EXPECT_TRUE(fleet.shardRoutable(primary));
  EXPECT_EQ(fleet.report().perShard[static_cast<std::size_t>(primary)].health,
            "healthy");
}

TEST(FleetEngineTest, OrganicCrashFailsOverThenResurrectionRebalances) {
  FleetConfig cfg = fleetConfig(2);
  cfg.shard.maxRetries = 0;  // first grid failure fails over immediately
  cfg.failoverLimit = 2;
  FleetEngine fleet(cfg);
  const ProblemKey k = key(32, 16, 24);
  const index_t primary = fleet.ring().route(k, nullptr);
  const index_t other = 1 - primary;
  const std::vector<double> want = soloSolution(k, 888);

  // The peer rank crashes receiving the factor replica: an organic grid
  // death mid-request, not an ops hook.
  simmpi::FaultConfig fc;
  fc.seed = 0xF1EE7;
  fc.crashRank = 1;
  fc.crashAtOp = 1;
  fleet.armShardFaults(primary,
                       std::make_shared<simmpi::FaultInjector>(fc, 2));

  const auto h = fleet.submit(request(k, 888));
  const RequestOutcome& o = h->wait();
  ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
  EXPECT_EQ(o.shard, other);
  EXPECT_GE(o.failovers, 1);
  expectBitwise(h->solution(), want, "failed-over answer");

  // The grid death latched: the shard is crashed, not just unlucky.
  EXPECT_FALSE(fleet.shardRoutable(primary));
  FleetReport report = fleet.report();
  EXPECT_EQ(report.crashes, 1u);
  EXPECT_GE(report.failovers, 1u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].health,
            "crashed");
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].groupCrashes,
            1u);

  // Resurrection: new generation, circuit closed, keyspace routes back.
  fleet.resurrectShard(primary);
  EXPECT_TRUE(fleet.shardRoutable(primary));
  // The failed-over key keeps its cache affinity (its factors now live on
  // the survivor), but fresh keys in the resurrected shard's keyspace
  // route back to it — and its cleared fault plan is gone.
  const auto h2 = fleet.submit(request(k, 889));
  ASSERT_EQ(h2->wait().status, RequestStatus::kCompleted)
      << h2->wait().error;
  EXPECT_EQ(h2->wait().shard, other);  // affinity to the live factors
  expectBitwise(h2->solution(), soloSolution(k, 889), "post-resurrection");
  ProblemKey fresh = k;
  for (std::uint64_t seed = 100;; ++seed) {
    fresh = key(32, 16, seed);
    if (fleet.ring().route(fresh, nullptr) == primary) {
      break;
    }
  }
  const auto h3 = fleet.submit(request(fresh, 890));
  ASSERT_EQ(h3->wait().status, RequestStatus::kCompleted)
      << h3->wait().error;
  EXPECT_EQ(h3->wait().shard, primary);  // rebalanced back, gen 2 grid
  expectBitwise(h3->solution(), soloSolution(fresh, 890), "rebalanced key");
  fleet.drain();

  report = fleet.report();
  EXPECT_EQ(report.resurrections, 1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.doubleAnswered, 0u);
  EXPECT_EQ(report.perShard[static_cast<std::size_t>(primary)].generation, 2);
}

TEST(FleetEngineTest, ChaoticReplayStaysBitwiseAndLosesNoAnswer) {
  const std::vector<SolveRequest> reqs = mixedTrace();
  const std::vector<Answer> clean = replay(fleetConfig(1), reqs);

  FleetConfig cfg = fleetConfig(3);
  cfg.failoverLimit = 2;
  const std::vector<Answer> chaotic = replay(
      cfg, reqs, [&](FleetEngine& fleet, std::size_t i) {
        if (i == reqs.size() / 3) {
          fleet.breakShard(0);
        } else if (i == 2 * reqs.size() / 3) {
          fleet.crashShard(1);
        } else if (i == reqs.size() - 1) {
          fleet.resurrectShard(1);
          fleet.unbreakShard(0);
        }
      });

  ASSERT_EQ(chaotic.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(chaotic[i].outcome.status, RequestStatus::kCompleted)
        << "request " << i << ": " << chaotic[i].outcome.error;
    expectBitwise(chaotic[i].solution, clean[i].solution, "chaotic replay");
  }
}

TEST(FleetEngineTest, WholeFleetDownAnswersStructurallyNotHangs) {
  FleetConfig cfg = fleetConfig(2);
  cfg.health.openSeconds = 3600.0;
  FleetEngine fleet(cfg);
  fleet.crashShard(0);
  fleet.breakShard(1);
  const auto h = fleet.submit(request(key(32, 16, 25), 1));
  const RequestOutcome& o = h->wait();
  EXPECT_EQ(o.status, RequestStatus::kFailed);
  EXPECT_NE(o.error.find("no healthy shard"), std::string::npos) << o.error;
  fleet.drain();
  const FleetReport report = fleet.report();
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.fleet.failed, 1u);
}

TEST(FleetEngineTest, ReportJsonCarriesTheCiGates) {
  FleetConfig cfg = fleetConfig(2);
  FleetEngine fleet(cfg);
  const auto h = fleet.submit(request(key(32, 16, 26), 5));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  fleet.drain();
  FleetReport report = fleet.report();
  report.trace = "unit";
  const JsonValue v = JsonValue::parse(report.toJson());
  EXPECT_EQ(v.get("trace").asString(), "unit");
  EXPECT_DOUBLE_EQ(v.get("shards").asNumber(), 2.0);
  EXPECT_DOUBLE_EQ(v.get("dropped").asNumber(), 0.0);
  EXPECT_DOUBLE_EQ(v.get("double_answered").asNumber(), 0.0);
  EXPECT_TRUE(v.get("cache_lookup_invariant").asBool());
  EXPECT_GE(v.get("fleet").get("total_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(v.get("fleet").get("cache_hit_rate").asNumber(), 0.0);
  EXPECT_GE(v.get("fleet").get("cache_lookups").asNumber(), 1.0);
  ASSERT_EQ(v.get("per_shard").asArray().size(), 2u);
  EXPECT_EQ(v.get("per_shard").asArray()[0].get("health").asString(),
            "healthy");
}

// ------------------------------------------------- gray-failure defense --

TEST(FleetEngineTest, HedgedReplayUnderGrayFailureLosesNoAnswer) {
  // The hedging race, stress-shaped: a slow-but-alive shard (the gray
  // failure) plus an aggressive hedge policy means nearly every request
  // runs as two racing copies. Whichever copy wins, the publish-once
  // Handle must keep the ledger exact — zero dropped, zero double
  // answered — and the answers bitwise right. Repeated to shake races.
  const std::vector<SolveRequest> reqs = mixedTrace();
  for (int rep = 0; rep < 3; ++rep) {
    FleetConfig cfg = fleetConfig(3);
    cfg.failoverLimit = 2;
    cfg.hedge.enabled = true;
    cfg.hedge.delayFactor = 0.25;  // hedge long before a stretched solve
    cfg.hedge.minDelaySeconds = 0.0005;
    cfg.hedge.budgetPerSecond = 1000.0;
    cfg.hedge.budgetBurst = 64.0;
    FleetEngine fleet(cfg);
    // Stretch the shard that owns the first key so the gray failure hits
    // live traffic no matter how the ring maps keys this run.
    fleet.slowShard(fleet.ring().route(reqs[0].key, nullptr), 25.0);

    std::vector<FleetEngine::HandlePtr> handles;
    handles.reserve(reqs.size());
    for (const SolveRequest& r : reqs) {
      handles.push_back(fleet.submit(r));
    }
    fleet.drain();
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(handles[i]->wait().status, RequestStatus::kCompleted)
          << "rep " << rep << " request " << i << ": "
          << handles[i]->wait().error;
      expectBitwise(handles[i]->solution(),
                    soloSolution(reqs[i].key, reqs[i].rhsSeed),
                    "hedged answer");
    }
    const FleetReport report = fleet.report();
    EXPECT_EQ(report.submitted, reqs.size());
    EXPECT_EQ(report.dropped, 0u) << "rep " << rep;
    EXPECT_EQ(report.doubleAnswered, 0u) << "rep " << rep;
    EXPECT_TRUE(report.cacheLookupInvariant);
    EXPECT_GT(report.hedgesIssued, 0u) << "rep " << rep;
  }
}

TEST(FleetEngineTest, StragglerVerdictsQuarantineAndDetourTheShard) {
  // The rankProgressHook path: slow-rank verdicts from a shard's grid are
  // straggler evidence against the whole shard. Enough strikes quarantine
  // it, and new routes detour to a replica instead of waiting on it.
  FleetConfig cfg = fleetConfig(2);
  cfg.slowRankPolicy.minLagSeconds = 0.002;
  cfg.slowRankPolicy.medianFactor = 4.0;
  cfg.slowRankPolicy.strikes = 2;
  // healthMonitor.stragglerStrikes defaults to 2: two verdicts condemn.
  FleetEngine fleet(cfg);

  // Rank 0 paces the grid (arrives last, waits ~0) while rank 1 idles.
  const std::vector<double> waits = {0.05, 0.0001};
  const auto hook = fleet.rankProgressHook(0);
  EXPECT_FALSE(hook(0, waits));  // strike one: observed, not terminal
  EXPECT_TRUE(hook(1, waits));   // strike two: verdict -> straggler report
  EXPECT_TRUE(fleet.reportRankWaits(0, 2, waits));  // second report

  EXPECT_EQ(fleet.healthMonitor().stragglerReports(), 2u);
  EXPECT_EQ(fleet.healthMonitor().quarantines(), 1u);
  // Quarantine deprioritizes, it does not hard-exclude: the breaker tier
  // still admits the shard (so the detector can never starve the fleet),
  // but preferred routing steers off it — witnessed by the detour below.
  EXPECT_TRUE(fleet.shardRoutable(0));

  // A key whose ring primary is the quarantined shard detours to its
  // replica — and still answers bitwise right.
  ProblemKey victim;
  for (std::uint64_t seed = 40;; ++seed) {
    victim = key(32, 16, seed);
    if (fleet.ring().route(victim, nullptr) == 0) {
      break;
    }
  }
  const auto h = fleet.submit(request(victim, 321));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted) << h->wait().error;
  EXPECT_EQ(h->wait().shard, 1);
  expectBitwise(h->solution(), soloSolution(victim, 321), "detoured answer");
  fleet.drain();

  const FleetReport report = fleet.report();
  EXPECT_EQ(report.stragglerReports, 2u);
  EXPECT_EQ(report.quarantines, 1u);
  EXPECT_GE(report.healthDetours, 1u);
  EXPECT_EQ(report.dropped, 0u);
  EXPECT_EQ(report.perShard[0].healthState, "quarantined");
  EXPECT_GE(report.perShard[0].phi, 0.0);
  EXPECT_EQ(report.perShard[1].healthState, "healthy");
}

TEST(FleetEngineTest, ReportJsonCarriesGrayFailureFields) {
  FleetConfig cfg = fleetConfig(2);
  cfg.hedge.enabled = true;
  FleetEngine fleet(cfg);
  fleet.slowShard(0, 2.0);
  const auto h = fleet.submit(request(key(32, 16, 27), 9));
  ASSERT_EQ(h->wait().status, RequestStatus::kCompleted);
  fleet.drain();
  const FleetReport report = fleet.report();
  const JsonValue v = JsonValue::parse(report.toJson());
  EXPECT_DOUBLE_EQ(v.get("ops_slows").asNumber(), 1.0);
  EXPECT_GE(v.get("quarantines").asNumber(), 0.0);
  EXPECT_GE(v.get("health_detours").asNumber(), 0.0);
  EXPECT_GE(v.get("straggler_reports").asNumber(), 0.0);
  EXPECT_GE(v.get("hedges_issued").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_wins").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_wasted").asNumber(), 0.0);
  EXPECT_GE(v.get("hedge_denied").asNumber(), 0.0);
  const auto& shards = v.get("per_shard").asArray();
  ASSERT_EQ(shards.size(), 2u);
  double heartbeats = 0.0;
  for (const JsonValue& s : shards) {
    EXPECT_EQ(s.get("health_state").asString(), "healthy");
    EXPECT_EQ(s.get("breaker_state").asString(), "closed");
    EXPECT_GE(s.get("phi").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(s.get("quarantines").asNumber(), 0.0);
    heartbeats += s.get("heartbeats").asNumber();
  }
  // The completion fed the winner shard's heartbeat stream.
  EXPECT_GE(heartbeats, 1.0);
}

// ---------------------------------------- rank-group isolation (simmpi) --

/// One deterministic "grid job": a send/recv swap plus a barrier, returning
/// a value that proves both directions delivered intact.
int swapJob(simmpi::Comm& comm, int base) {
  int got = 0;
  const int mine = base + static_cast<int>(comm.rank());
  const index_t peer = 1 - comm.rank();
  if (comm.rank() == 0) {
    comm.send(peer, 40, &mine, 1);
    comm.recv(peer, 41, &got, 1);
  } else {
    comm.recv(peer, 40, &got, 1);
    comm.send(peer, 41, &mine, 1);
  }
  comm.barrier();
  return got;
}

TEST(RankGroupTest, ConcurrentGroupsKeepFaultsAndReplayLogsIsolated) {
  // Group A is armed to crash; group B runs clean with the replay log on.
  // They run concurrently: A's faults, death, and recovery state must be
  // invisible to B, and B's replay-log counters must count only B's ops.
  simmpi::FaultConfig fc;
  fc.seed = 0xAB1E;
  fc.crashRank = 1;
  fc.crashAtOp = 4;
  auto injA = std::make_shared<simmpi::FaultInjector>(fc, 2);
  auto injB = std::make_shared<simmpi::FaultInjector>(simmpi::FaultConfig{}, 2);

  simmpi::RunOptions optsA;
  optsA.faults = injA;
  optsA.timeout = std::chrono::milliseconds(2000);
  simmpi::RunOptions optsB;
  optsB.faults = injB;
  optsB.replayLog = true;

  simmpi::RankGroup groupA(0, 2, optsA);
  simmpi::RankGroup groupB(1, 2, optsB);

  std::atomic<int> aJobsBeforeCrash{0};
  std::atomic<bool> aCrashed{false};
  std::thread threadA([&] {
    for (int j = 0; j < 16; ++j) {
      try {
        groupA.runJob([&](simmpi::Comm& comm) { (void)swapJob(comm, 100); });
        aJobsBeforeCrash.fetch_add(1);
      } catch (...) {
        aCrashed.store(true);
        break;
      }
    }
  });

  constexpr int kJobsB = 12;
  std::atomic<int> bCorrect{0};
  std::thread threadB([&] {
    for (int j = 0; j < kJobsB; ++j) {
      groupB.runJob([&](simmpi::Comm& comm) {
        EXPECT_TRUE(comm.replayLogEnabled());
        const int got = swapJob(comm, 200 + 10 * j);
        const index_t peer = 1 - comm.rank();
        if (got == 200 + 10 * j + static_cast<int>(peer)) {
          bCorrect.fetch_add(1);
        }
        // Each job is its own world, so the log holds exactly this job's
        // ops for this rank — concurrent group A contributes nothing.
        const simmpi::ReplayCounters c = comm.replayCounters(comm.rank());
        EXPECT_EQ(c.sends, 1u);
        EXPECT_EQ(c.recvs, 1u);
        EXPECT_EQ(c.barriers, 1u);
      });
    }
  });
  threadA.join();
  threadB.join();

  // A crashed on schedule and latched dead...
  EXPECT_TRUE(aCrashed.load());
  EXPECT_FALSE(groupA.alive());
  EXPECT_EQ(injA->stats().crashes, 1u);
  const simmpi::RankGroup::Stats sa = groupA.stats();
  EXPECT_EQ(sa.crashes, 1u);
  EXPECT_EQ(sa.jobs,
            static_cast<std::uint64_t>(aJobsBeforeCrash.load()) + 1u);
  EXPECT_THROW(groupA.runJob([](simmpi::Comm&) {}), simmpi::GroupDownError);

  // ...while B saw none of it: every answer correct, no faults observed,
  // group alive, zero failures.
  EXPECT_EQ(bCorrect.load(), 2 * kJobsB);  // both ranks of every job
  EXPECT_TRUE(groupB.alive());
  const simmpi::RankGroup::Stats sb = groupB.stats();
  EXPECT_EQ(sb.jobs, static_cast<std::uint64_t>(kJobsB));
  EXPECT_EQ(sb.failures, 0u);
  const simmpi::FaultStats fsB = injB->stats();
  EXPECT_EQ(fsB.crashes, 0u);
  EXPECT_EQ(fsB.delays + fsB.transientFailures + fsB.bitflips + fsB.stalls,
            0u);

  // Restart rearms A on a fresh generation with the spent plan cleared.
  groupA.restart();
  EXPECT_TRUE(groupA.alive());
  EXPECT_EQ(groupA.generation(), 2);
  int recovered = 0;
  groupA.runJob(
      [&](simmpi::Comm& comm) { recovered = swapJob(comm, 300); });
  EXPECT_TRUE(recovered == 300 || recovered == 301);
}

TEST(RankGroupTest, OpsKillFailsFastUntilRestart) {
  simmpi::RankGroup group(7, 2);
  group.runJob([](simmpi::Comm& comm) { comm.barrier(); });
  group.kill("maintenance");
  EXPECT_FALSE(group.alive());
  EXPECT_THROW(group.runJob([](simmpi::Comm&) {}), simmpi::GroupDownError);
  group.restart();
  EXPECT_TRUE(group.alive());
  EXPECT_EQ(group.generation(), 2);
  group.runJob([](simmpi::Comm& comm) { comm.barrier(); });
  EXPECT_EQ(group.stats().jobs, 2u);  // killed-window attempt not counted
}

}  // namespace
}  // namespace hplmxp::serve
