// Serving subsystem: factor cache (LRU, budget, single-flight), admission
// control, batching policy, the end-to-end engine (including bitwise
// equivalence of served solutions and chaos-driven retries/deadline
// rejections), trace I/O, and the `hplmxp serve` command.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "cli/commands.h"
#include "cli/options.h"
#include "core/single_solver.h"
#include "gen/matgen.h"
#include "serve/engine.h"
#include "serve/json.h"
#include "serve/trace_io.h"

namespace hplmxp::serve {
namespace {

ProblemKey key(index_t n, index_t b, std::uint64_t seed) {
  ProblemKey k;
  k.n = n;
  k.b = b;
  k.seed = seed;
  return k;
}

Factorization factorOf(const ProblemKey& k) {
  const ProblemGenerator gen(k.seed, k.n);
  return factorMixedSingle(gen, k.b, Vendor::kAmd);
}

// ---------------------------------------------------------------- JSON --

TEST(Json, ParsesScalarsObjectsArrays) {
  const JsonValue v = JsonValue::parse(
      R"({"name": "t", "pi": 3.5, "on": true, "off": false,
          "nil": null, "list": [1, 2, 3], "nest": {"k": -2e2}})");
  EXPECT_EQ(v.get("name").asString(), "t");
  EXPECT_DOUBLE_EQ(v.get("pi").asNumber(), 3.5);
  EXPECT_TRUE(v.get("on").asBool());
  EXPECT_FALSE(v.get("off").asBool());
  EXPECT_TRUE(v.get("nil").isNull());
  ASSERT_EQ(v.get("list").asArray().size(), 3u);
  EXPECT_DOUBLE_EQ(v.get("list").asArray()[2].asNumber(), 3.0);
  EXPECT_DOUBLE_EQ(v.get("nest").get("k").asNumber(), -200.0);
  EXPECT_DOUBLE_EQ(v.numberOr("absent", 7.0), 7.0);
  EXPECT_EQ(v.stringOr("absent", "d"), "d");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  // The escape sequences are assembled from `esc` so the test source
  // itself stays plain ASCII.
  const std::string esc = "\\u";
  // BMP code points across the 1-, 2-, and 3-byte UTF-8 ranges.
  EXPECT_EQ(JsonValue::parse("\"" + esc + "0041\"").asString(), "A");
  EXPECT_EQ(JsonValue::parse("\"" + esc + "00e9\"").asString(),
            "\xC3\xA9");  // e-acute
  EXPECT_EQ(JsonValue::parse("\"" + esc + "20AC\"").asString(),
            "\xE2\x82\xAC");  // euro sign
  // Escaped control characters (the reason external traces escape).
  EXPECT_EQ(JsonValue::parse("\"" + esc + "0007\"").asString(), "\a");
  // Surrogate pair: U+1D11E (musical G clef) -> 4-byte UTF-8.
  EXPECT_EQ(JsonValue::parse("\"" + esc + "D834" + esc + "DD1E\"").asString(),
            "\xF0\x9D\x84\x9E");
  // Mixed with plain escapes and surrounding text.
  EXPECT_EQ(JsonValue::parse("\"a" + esc + "0042c\\n\"").asString(), "aBc\n");
  // Round trip: jsonQuote emits the \uXXXX escapes the parser decodes.
  const std::string original = std::string("x\x01y\x1Fz");
  EXPECT_EQ(JsonValue::parse(jsonQuote(original)).asString(), original);
}

TEST(Json, MalformedUnicodeEscapesCarryByteOffset) {
  const std::string esc = "\\u";
  const auto offsetOf = [](const std::string& text) -> std::size_t {
    try {
      (void)JsonValue::parse(text);
    } catch (const JsonParseError& e) {
      return e.offset();
    }
    ADD_FAILURE() << "expected JsonParseError for: " << text;
    return static_cast<std::size_t>(-1);
  };
  // Bad hex digit: blamed on the digit itself.
  EXPECT_EQ(offsetOf("\"" + esc + "12G4\""), 5u);
  // Truncated escape: blamed on the opening backslash.
  EXPECT_EQ(offsetOf("\"" + esc + "12"), 1u);
  // Unpaired low surrogate.
  EXPECT_EQ(offsetOf("\"" + esc + "DC00\""), 1u);
  // High surrogate with no escape after it.
  EXPECT_EQ(offsetOf("\"" + esc + "D834x\""), 1u);
  // High surrogate followed by an escape that is not a low surrogate.
  EXPECT_EQ(offsetOf("\"" + esc + "D834\\n\""), 1u);
  // The offset survives nesting: the prefix before the escape counts
  // (the bad hex digit 'Z' sits at byte 11).
  EXPECT_EQ(offsetOf("{\"k\": \"ab" + esc + "ZZZZ\"}"), 11u);
  // JsonParseError is still a CheckError for existing catch sites.
  EXPECT_THROW((void)JsonValue::parse("\"" + esc + "DEAD beef\""), CheckError);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)JsonValue::parse("{"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("[1,]"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{\"a\" 1}"), CheckError);
  EXPECT_THROW((void)JsonValue::parse("{} trailing"), CheckError);
  const JsonValue v = JsonValue::parse(R"({"a": 1})");
  EXPECT_THROW((void)v.get("missing"), CheckError);
  EXPECT_THROW((void)v.get("a").asString(), CheckError);
  // Defaulted lookups still type-check present keys.
  EXPECT_THROW((void)v.stringOr("a", "x"), CheckError);
  EXPECT_DOUBLE_EQ(v.numberOr("a", 0.0), 1.0);
}

// ------------------------------------------------------------ trace IO --

TEST(TraceIo, RoundTripsThroughJson) {
  const RequestTrace trace = makeSyntheticTrace(10, 3, 0.5, 64, 16, 21);
  const std::string path = "test_serve_trace_roundtrip.json";
  {
    std::ofstream out(path);
    out << traceToJson(trace);
  }
  const RequestTrace back = loadRequestTrace(path);
  std::remove(path.c_str());
  EXPECT_EQ(back.name, trace.name);
  ASSERT_EQ(back.requests.size(), trace.requests.size());
  for (std::size_t i = 0; i < trace.requests.size(); ++i) {
    EXPECT_EQ(back.requests[i].seed, trace.requests[i].seed);
    EXPECT_EQ(back.requests[i].rhsSeed, trace.requests[i].rhsSeed);
    EXPECT_EQ(back.requests[i].n, trace.requests[i].n);
    EXPECT_DOUBLE_EQ(back.requests[i].atMs, trace.requests[i].atMs);
  }
}

TEST(TraceIo, ArrivalUsAccumulatesFromPreviousRequest) {
  const std::string path = "test_serve_trace_arrival_us.json";
  {
    std::ofstream out(path);
    out << R"({"name": "gaps", "requests": [
      {"arrival_us": 0,    "n": 32, "b": 16, "seed": 1},
      {"arrival_us": 250,  "n": 32, "b": 16, "seed": 2},
      {"arrival_us": 1500, "n": 32, "b": 16, "seed": 3},
      {"at_ms": 10.0,      "n": 32, "b": 16, "seed": 4},
      {"arrival_us": 500,  "n": 32, "b": 16, "seed": 5},
      {"n": 32, "b": 16, "seed": 6}
    ]})";
  }
  const RequestTrace trace = loadRequestTrace(path);
  std::remove(path.c_str());
  ASSERT_EQ(trace.requests.size(), 6u);
  EXPECT_DOUBLE_EQ(trace.requests[0].atMs, 0.0);
  EXPECT_DOUBLE_EQ(trace.requests[1].atMs, 0.25);
  EXPECT_DOUBLE_EQ(trace.requests[2].atMs, 1.75);
  // at_ms stays absolute and resets the accumulation base.
  EXPECT_DOUBLE_EQ(trace.requests[3].atMs, 10.0);
  EXPECT_DOUBLE_EQ(trace.requests[4].atMs, 10.5);
  // Neither field: back-to-back with the predecessor.
  EXPECT_DOUBLE_EQ(trace.requests[5].atMs, 0.0);
}

TEST(TraceIo, ArrivalUsRejectsNegativeGaps) {
  const std::string path = "test_serve_trace_arrival_neg.json";
  {
    std::ofstream out(path);
    out << R"({"requests": [{"arrival_us": -5, "n": 32, "b": 16, "seed": 1}]})";
  }
  EXPECT_THROW((void)loadRequestTrace(path), CheckError);
  std::remove(path.c_str());
}

// --------------------------------------------------------- FactorCache --

TEST(FactorCacheTest, HitsMissesAndProblemKeyIdentity) {
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);  // different seed => different entry

  const FactorCache::Fetch a = cache.getOrFactor(k1, [&] { return factorOf(k1); });
  EXPECT_FALSE(a.hit);
  const FactorCache::Fetch b = cache.getOrFactor(k1, [&] { return factorOf(k1); });
  EXPECT_TRUE(b.hit);
  EXPECT_EQ(a.factors.get(), b.factors.get());
  const FactorCache::Fetch c = cache.getOrFactor(k2, [&] { return factorOf(k2); });
  EXPECT_FALSE(c.hit);

  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 3u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.factorCount, 2u);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_NEAR(s.hitRate(), 1.0 / 3.0, 1e-12);
}

TEST(FactorCacheTest, EvictsLeastRecentlyUsedForBudget) {
  // One 32x32 FP32 factorization is ~4 KB; budget two of them.
  const std::size_t one = factorOf(key(32, 16, 1)).bytes();
  FactorCache cache(2 * one + 64);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);
  const ProblemKey k3 = key(32, 16, 3);

  (void)cache.getOrFactor(k1, [&] { return factorOf(k1); });
  (void)cache.getOrFactor(k2, [&] { return factorOf(k2); });
  (void)cache.peek(k1);  // touch k1 so k2 is now least-recently used
  (void)cache.getOrFactor(k3, [&] { return factorOf(k3); });

  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_LE(cache.stats().bytesInUse, 2 * one + 64);
}

TEST(FactorCacheTest, PayloadFreeLookupsShareTheLruBudgetAndStats) {
  // The virtual-time replay's mode: sized entries with no factors behind
  // them, evicted and counted exactly like real ones.
  FactorCache cache(250);
  const ProblemKey k1 = key(32, 16, 1);
  const ProblemKey k2 = key(32, 16, 2);
  const ProblemKey k3 = key(32, 16, 3);
  EXPECT_FALSE(cache.lookupPayloadFree(k1, 100));
  EXPECT_FALSE(cache.lookupPayloadFree(k2, 100));
  EXPECT_TRUE(cache.lookupPayloadFree(k1, 100));  // k2 is now LRU
  EXPECT_FALSE(cache.lookupPayloadFree(k3, 100));
  EXPECT_TRUE(cache.contains(k1));
  EXPECT_FALSE(cache.contains(k2));
  EXPECT_TRUE(cache.contains(k3));
  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, 4u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.factorCount, 3u);
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.bytesInUse, 200u);
  EXPECT_EQ(cache.peek(k1), nullptr);  // no payload, ever
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(FactorCacheTest, SingleFlightCoalescesConcurrentMisses) {
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k = key(32, 16, 9);
  std::atomic<int> factored{0};

  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      const FactorCache::Fetch f = cache.getOrFactor(k, [&] {
        ++factored;
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return factorOf(k);
      });
      EXPECT_NE(f.factors, nullptr);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // A burst of misses on one key costs exactly one factorization, and
  // every waiter that shared the result counts as a hit (coalesced is the
  // wait-event tally, not a third outcome).
  EXPECT_EQ(factored.load(), 1);
  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.factorCount, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, static_cast<std::uint64_t>(kThreads - 1));
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(s.hits + s.misses, s.lookups);
}

TEST(FactorCacheTest, CoalescedWaitersCountAsHitsUnderContention) {
  // Regression for the waiter path returning hit=true without bumping
  // stats_.hits: hammer one key from many threads through repeated
  // rounds and assert the accounting identity the fleet report gates on.
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k = key(32, 16, 21);

  constexpr int kThreads = 8;
  constexpr int kRounds = 25;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        const FactorCache::Fetch f =
            cache.getOrFactor(k, [&] { return factorOf(k); });
        EXPECT_NE(f.factors, nullptr);
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }

  const FactorCache::Stats s = cache.stats();
  EXPECT_EQ(s.lookups, static_cast<std::uint64_t>(kThreads * kRounds));
  EXPECT_EQ(s.hits + s.misses, s.lookups);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.factorCount, 1u);
  EXPECT_NEAR(s.hitRate(),
              static_cast<double>(s.hits) / static_cast<double>(s.lookups),
              1e-12);
}

TEST(FactorCacheTest, FailedFactorizationIsWithdrawn) {
  FactorCache cache(std::size_t{16} << 20);
  const ProblemKey k = key(32, 16, 4);
  EXPECT_THROW((void)cache.getOrFactor(
                   k, [&]() -> Factorization { throw CheckError("boom"); }),
               CheckError);
  EXPECT_FALSE(cache.contains(k));
  // The key is retryable: the next caller factors fresh.
  const FactorCache::Fetch f = cache.getOrFactor(k, [&] { return factorOf(k); });
  EXPECT_FALSE(f.hit);
  EXPECT_NE(f.factors, nullptr);
}

// -------------------------------------------------------- RequestQueue --

QueuedRequest queued(const ProblemKey& k, std::uint64_t id, double at) {
  QueuedRequest qr;
  qr.request.id = id;
  qr.request.key = k;
  qr.submitSeconds = at;
  return qr;
}

TEST(RequestQueueTest, BoundsDepthAndCountsRejections) {
  RequestQueue q(2);
  EXPECT_TRUE(q.push(queued(key(32, 16, 1), 1, 0.0)));
  EXPECT_TRUE(q.push(queued(key(32, 16, 1), 2, 0.1)));
  EXPECT_FALSE(q.push(queued(key(32, 16, 1), 3, 0.2)));
  EXPECT_EQ(q.depth(), 2);
  EXPECT_EQ(q.rejectedFull(), 1u);
  // Retries bypass the bound: an admitted request is never re-rejected.
  q.pushRetry(queued(key(32, 16, 1), 4, 0.3));
  EXPECT_EQ(q.depth(), 3);
  EXPECT_EQ(q.peakDepth(), 3);
}

TEST(RequestQueueTest, TakesFifoPerKeyAndTracksOldest) {
  RequestQueue q(8);
  const ProblemKey a = key(32, 16, 1);
  const ProblemKey b = key(32, 16, 2);
  ASSERT_TRUE(q.push(queued(b, 10, 1.0)));
  ASSERT_TRUE(q.push(queued(a, 11, 2.0)));
  ASSERT_TRUE(q.push(queued(b, 12, 3.0)));

  double submit = 0.0;
  const ProblemKey* oldest = q.oldestKey(&submit);
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(*oldest, b);
  EXPECT_DOUBLE_EQ(submit, 1.0);

  const std::vector<QueuedRequest> taken = q.take(b, 8);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].request.id, 10u);
  EXPECT_EQ(taken[1].request.id, 12u);
  EXPECT_EQ(q.depth(), 1);
  EXPECT_EQ(q.take(b, 8).size(), 0u);
}

TEST(RequestQueueTest, BackoffHidesFrontsUntilTheyMature) {
  RequestQueue q(8);
  const ProblemKey a = key(32, 16, 1);
  const ProblemKey b = key(32, 16, 2);
  QueuedRequest ra = queued(a, 1, 0.0);
  ra.notBeforeSeconds = 5.0;  // backing off
  q.pushRetry(std::move(ra));
  ASSERT_TRUE(q.push(queued(b, 2, 1.0)));

  // At t=2 only b is eligible, even though a submitted first.
  double submit = 0.0;
  double nextReady = 0.0;
  const ProblemKey* ready = q.readyKey(2.0, &submit, &nextReady);
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(*ready, b);
  EXPECT_DOUBLE_EQ(submit, 1.0);

  // oldestKey ignores eligibility (stop-flush path): a is oldest.
  const ProblemKey* oldest = q.oldestKey(&submit);
  ASSERT_NE(oldest, nullptr);
  EXPECT_EQ(*oldest, a);

  // Once b is gone, nothing is ready until a matures at t=5.
  (void)q.take(b, 8, 2.0);
  EXPECT_EQ(q.readyKey(2.0, &submit, &nextReady), nullptr);
  EXPECT_DOUBLE_EQ(nextReady, 5.0);
  ASSERT_NE(q.readyKey(5.0, &submit, &nextReady), nullptr);
}

TEST(RequestQueueTest, BackoffFrontBlocksItsWholeBucketFifo) {
  // Per-key FIFO is part of the serving contract: a backed-off front must
  // not be overtaken by a younger entry of the same key.
  RequestQueue q(8);
  const ProblemKey a = key(32, 16, 1);
  QueuedRequest retry = queued(a, 1, 0.0);
  retry.notBeforeSeconds = 9.0;
  q.pushRetry(std::move(retry));
  ASSERT_TRUE(q.push(queued(a, 2, 1.0)));

  double submit = 0.0;
  EXPECT_EQ(q.readyKey(2.0, &submit, nullptr), nullptr);
  EXPECT_TRUE(q.take(a, 8, 2.0).empty());

  // After the front matures the bucket drains in FIFO order.
  const std::vector<QueuedRequest> taken = q.take(a, 8, 9.0);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].request.id, 1u);
  EXPECT_EQ(taken[1].request.id, 2u);
}

// ------------------------------------------------------------- Batcher --

TEST(BatcherTest, DispatchesOnFullBatchOrAgedWindow) {
  const Batcher batcher(BatchPolicy{2, 0.010});
  RequestQueue q(8);
  EXPECT_FALSE(batcher.decide(q, 0.0).dispatch);  // idle

  ASSERT_TRUE(q.push(queued(key(32, 16, 1), 1, 0.0)));
  const Batcher::Decision waiting = batcher.decide(q, 0.004);
  EXPECT_FALSE(waiting.dispatch);  // one request, window not aged out
  EXPECT_NEAR(waiting.waitSeconds, 0.006, 1e-9);

  EXPECT_TRUE(batcher.decide(q, 0.011).dispatch);  // aged past the window

  ASSERT_TRUE(q.push(queued(key(32, 16, 1), 2, 0.001)));
  const Batcher::Decision full = batcher.decide(q, 0.002);
  EXPECT_TRUE(full.dispatch);  // full batch dispatches immediately
  EXPECT_EQ(full.key, key(32, 16, 1));
}

TEST(BatcherTest, SleepsExactlyUntilBackedOffRetryMatures) {
  const Batcher batcher(BatchPolicy{2, 0.010});
  RequestQueue q(8);
  QueuedRequest retry = queued(key(32, 16, 1), 1, 0.0);
  retry.notBeforeSeconds = 0.040;
  q.pushRetry(std::move(retry));

  const Batcher::Decision d = batcher.decide(q, 0.015);
  EXPECT_FALSE(d.dispatch);
  EXPECT_NEAR(d.waitSeconds, 0.025, 1e-9);  // exactly until t=0.040

  // Matured: the aged request dispatches (submitted at 0, window long gone).
  EXPECT_TRUE(batcher.decide(q, 0.041).dispatch);
}

// ------------------------------------------------------ CircuitBreaker --

TEST(CircuitBreakerTest, TripsAfterConsecutiveFailuresAndCoolsDown) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failureThreshold = 3;
  cfg.openSeconds = 1.0;
  CircuitBreaker cb(cfg);
  const ProblemKey k = key(32, 16, 1);

  cb.onFailure(k, 0.0);
  cb.onFailure(k, 0.1);
  EXPECT_TRUE(cb.allow(k, 0.2));  // two failures: still closed
  cb.onFailure(k, 0.2);           // third: trips
  EXPECT_EQ(cb.trips(), 1u);
  EXPECT_EQ(cb.openCount(), 1);
  EXPECT_FALSE(cb.allow(k, 0.5));  // open, inside cool-down
  EXPECT_EQ(cb.rejections(), 1u);

  // Cool-down elapsed: one probe admitted, further admissions rejected
  // until the probe's verdict.
  EXPECT_TRUE(cb.allow(k, 1.3));
  EXPECT_FALSE(cb.allow(k, 1.3));
  cb.onSuccess(k);
  EXPECT_TRUE(cb.allow(k, 1.4));  // closed again
  EXPECT_EQ(cb.openCount(), 0);
}

TEST(CircuitBreakerTest, FailedProbeReopensTheCircuit) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failureThreshold = 1;
  cfg.openSeconds = 1.0;
  CircuitBreaker cb(cfg);
  const ProblemKey k = key(32, 16, 2);

  cb.onFailure(k, 0.0);             // trips immediately
  EXPECT_TRUE(cb.allow(k, 1.5));    // probe
  cb.onFailure(k, 1.5);             // probe failed: re-open
  EXPECT_EQ(cb.trips(), 2u);
  EXPECT_FALSE(cb.allow(k, 2.0));   // cooling down again until 2.5
  EXPECT_TRUE(cb.allow(k, 2.6));
}

TEST(CircuitBreakerTest, SuccessResetsTheFailureStreak) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failureThreshold = 2;
  CircuitBreaker cb(cfg);
  const ProblemKey k = key(32, 16, 3);
  cb.onFailure(k, 0.0);
  cb.onSuccess(k);      // streak broken
  cb.onFailure(k, 0.2);
  EXPECT_EQ(cb.trips(), 0u);  // never reached two consecutive
  EXPECT_TRUE(cb.allow(k, 0.3));
}

TEST(CircuitBreakerTest, KeysAreIndependent) {
  BreakerConfig cfg;
  cfg.enabled = true;
  cfg.failureThreshold = 1;
  cfg.openSeconds = 10.0;
  CircuitBreaker cb(cfg);
  const ProblemKey bad = key(32, 16, 4);
  const ProblemKey good = key(32, 16, 5);
  cb.onFailure(bad, 0.0);
  EXPECT_FALSE(cb.allow(bad, 1.0));
  EXPECT_TRUE(cb.allow(good, 1.0));  // untouched key stays closed
  const std::vector<CircuitBreaker::KeySnapshot> snap = cb.snapshot();
  ASSERT_EQ(snap.size(), 1u);  // `good` never allocated an entry
  EXPECT_EQ(snap[0].key, bad);
  EXPECT_STREQ(toString(snap[0].state), "open");
}

// -------------------------------------------------------------- Engine --

SolveRequest request(const ProblemKey& k, std::uint64_t rhsSeed,
                     double deadlineSeconds = 0.0) {
  SolveRequest r;
  r.key = k;
  r.rhsSeed = rhsSeed;
  r.deadlineSeconds = deadlineSeconds;
  return r;
}

TEST(ServeEngineTest, BatchesCompatibleRequestsAndMatchesSoloBitwise) {
  ServeConfig cfg;
  cfg.startPaused = true;  // queue everything, then release: one batch
  cfg.maxBatch = 8;
  ServeEngine engine(cfg);

  const ProblemKey k = key(64, 16, 31);
  const std::vector<std::uint64_t> rhsSeeds = {101, 202, 303, 404};
  std::vector<ServeEngine::HandlePtr> handles;
  for (const std::uint64_t s : rhsSeeds) {
    handles.push_back(engine.submit(request(k, s)));
  }
  engine.resume();
  engine.drain();

  const Factorization f = factorOf(k);
  const ProblemGenerator gen(k.seed, k.n);
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const RequestOutcome& o = handles[i]->wait();
    ASSERT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    EXPECT_EQ(o.batchSize, static_cast<index_t>(rhsSeeds.size()));
    EXPECT_TRUE(o.converged);
    std::vector<std::vector<double>> xs;
    (void)solveManyMixedSingle(f, gen, {rhsSeeds[i]}, xs);
    ASSERT_EQ(handles[i]->solution().size(), xs[0].size());
    EXPECT_EQ(0, std::memcmp(handles[i]->solution().data(), xs[0].data(),
                             sizeof(double) * xs[0].size()))
        << "rhs seed " << rhsSeeds[i];
  }
  const ServeReport report = engine.report();
  EXPECT_EQ(report.completed, rhsSeeds.size());
  EXPECT_EQ(report.cache.factorCount, 1u);  // one batch, one factorization
  EXPECT_EQ(report.maxBatchSize, static_cast<index_t>(rhsSeeds.size()));
}

TEST(ServeEngineTest, LanesPulseAsTheyStartOnIdleTicksAndBetweenBatches) {
  std::atomic<int> pulses{0};
  ServeConfig cfg;
  cfg.workers = 2;
  cfg.pulse = [&] {
    pulses.fetch_add(1);
    return 0.002;  // seconds to the next pulse
  };
  {
    ServeEngine engine(cfg);
    // An idle engine is alive: both lanes pulse as they start and then on
    // idle ticks, with no request in sight.
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    const int idle = pulses.load();
    EXPECT_GE(idle, 4);
    for (std::uint64_t s = 1; s <= 4; ++s) {
      ASSERT_EQ(engine.submit(request(key(32, 16, 9), s))->wait().status,
                RequestStatus::kCompleted);
    }
    engine.drain();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GT(pulses.load(), idle);

    // A stretched (gray) engine runs its pulse cadence slow too.
    engine.setServiceStretch(8.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const int before = pulses.load();
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
    EXPECT_LE(pulses.load() - before, 2 * 80 / 16 + 2);
  }
  // A stopped engine's lanes are gone: no more pulses.
  const int stopped = pulses.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_EQ(pulses.load(), stopped);
}

TEST(ServeEngineTest, RepeatedKeysHitTheCache) {
  ServeConfig cfg;
  cfg.maxBatchDelaySeconds = 0.0;  // no coalescing: every request solo
  ServeEngine engine(cfg);
  const ProblemKey k = key(32, 16, 5);
  for (std::uint64_t s = 1; s <= 6; ++s) {
    engine.submit(request(k, 1000 + s))->wait();
  }
  engine.drain();
  const ServeReport report = engine.report();
  EXPECT_EQ(report.completed, 6u);
  EXPECT_EQ(report.cache.factorCount, 1u);
  EXPECT_GT(report.cache.hitRate(), 0.0);
}

TEST(ServeEngineTest, QueueFullRejectsImmediately) {
  ServeConfig cfg;
  cfg.queueDepth = 2;
  cfg.startPaused = true;
  ServeEngine engine(cfg);
  const ProblemKey k = key(32, 16, 6);
  const ServeEngine::HandlePtr a = engine.submit(request(k, 1));
  const ServeEngine::HandlePtr b = engine.submit(request(k, 2));
  const ServeEngine::HandlePtr c = engine.submit(request(k, 3));
  EXPECT_TRUE(c->done());  // rejected synchronously, while still paused
  EXPECT_EQ(c->wait().status, RequestStatus::kRejectedQueueFull);
  engine.resume();
  engine.drain();
  EXPECT_EQ(a->wait().status, RequestStatus::kCompleted);
  EXPECT_EQ(b->wait().status, RequestStatus::kCompleted);
  EXPECT_EQ(engine.report().rejectedQueueFull, 1u);
}

TEST(ServeEngineTest, RejectsKeysTheBackendCannotServe) {
  ServeEngine engine(ServeConfig{});
  ProblemKey distributed = key(64, 16, 1);
  distributed.pr = 2;
  const RequestOutcome grid = engine.submit(request(distributed, 1))->wait();
  EXPECT_EQ(grid.status, RequestStatus::kFailed);
  EXPECT_NE(grid.error.find("1x1"), std::string::npos);

  const RequestOutcome shape =
      engine.submit(request(key(0, 16, 1), 1))->wait();
  EXPECT_EQ(shape.status, RequestStatus::kFailed);
}

TEST(ServeEngineTest, InjectedDelaySurfacesAsDeadlineRejectionNotHang) {
  ServeConfig cfg;
  simmpi::FaultConfig faults;
  faults.delayProbability = 1.0;    // every attempt sleeps...
  faults.delayMicros = 20000;       // ...20 ms
  cfg.chaos = std::make_shared<simmpi::FaultInjector>(faults, cfg.workers);
  cfg.defaultDeadlineSeconds = 0.005;  // 5 ms budget: unmeetable
  ServeEngine engine(cfg);

  const ProblemKey k = key(32, 16, 7);
  const RequestOutcome o = engine.submit(request(k, 1))->wait();
  EXPECT_EQ(o.status, RequestStatus::kRejectedDeadline);
  engine.drain();
  const ServeReport report = engine.report();
  EXPECT_EQ(report.rejectedDeadline, 1u);
  EXPECT_GT(report.injectedDelays, 0u);
}

TEST(ServeEngineTest, TransientFaultsExhaustRetryBudgetIntoFailure) {
  ServeConfig cfg;
  simmpi::FaultConfig faults;
  faults.transientSendProbability = 1.0;  // every attempt fails
  cfg.chaos = std::make_shared<simmpi::FaultInjector>(faults, cfg.workers);
  cfg.maxRetries = 2;
  ServeEngine engine(cfg);

  const RequestOutcome o = engine.submit(request(key(32, 16, 8), 1))->wait();
  EXPECT_EQ(o.status, RequestStatus::kFailed);
  EXPECT_EQ(o.retries, 2);
  EXPECT_NE(o.error.find("retry budget"), std::string::npos);
  EXPECT_GT(engine.report().injectedTransients, 0u);
}

TEST(ServeEngineTest, TransientFaultsWithinBudgetRecover) {
  ServeConfig cfg;
  simmpi::FaultConfig faults;
  faults.seed = 11;
  faults.transientSendProbability = 0.45;
  cfg.chaos = std::make_shared<simmpi::FaultInjector>(faults, cfg.workers);
  cfg.maxRetries = 64;
  cfg.maxBatchDelaySeconds = 0.0;
  ServeEngine engine(cfg);

  std::uint64_t retries = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    // Distinct keys so each request is its own batch (its own fault draw).
    const RequestOutcome o =
        engine.submit(request(key(32, 16, 100 + s), 1))->wait();
    EXPECT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    retries += static_cast<std::uint64_t>(o.retries);
  }
  EXPECT_GT(retries, 0u);  // the deterministic plan injects some failures
}

TEST(ServeEngineTest, PersistentKeyFaultTripsBreakerIntoStructuredRejection) {
  ServeConfig cfg;
  cfg.maxBatchDelaySeconds = 0.0;
  cfg.maxRetries = 0;  // every hook failure is terminal: one per submit
  cfg.breaker.enabled = true;
  cfg.breaker.failureThreshold = 3;
  cfg.breaker.openSeconds = 60.0;  // stays open for the rest of the test
  const ProblemKey bad = key(32, 16, 66);
  cfg.keyFaultHook = [bad](const ProblemKey& k) { return k == bad; };
  ServeEngine engine(cfg);

  // The first `failureThreshold` submissions execute (and fail); once the
  // circuit trips, admissions are rejected without touching a worker.
  for (int i = 0; i < 3; ++i) {
    const ServeEngine::HandlePtr h = engine.submit(request(bad, 1 + i));
    const RequestOutcome& o = h->wait();
    EXPECT_EQ(o.status, RequestStatus::kFailed) << "attempt " << i;
    EXPECT_NE(o.error.find("injected key fault"), std::string::npos);
  }
  const ServeEngine::HandlePtr rejectedHandle = engine.submit(request(bad, 9));
  const RequestOutcome& rejected = rejectedHandle->wait();
  EXPECT_EQ(rejected.status, RequestStatus::kRejectedCircuitOpen);
  EXPECT_NE(rejected.error.find("circuit open"), std::string::npos);

  // A healthy key is untouched by the bad key's open circuit.
  const ServeEngine::HandlePtr healthyHandle =
      engine.submit(request(key(32, 16, 67), 1));
  const RequestOutcome& healthy = healthyHandle->wait();
  EXPECT_EQ(healthy.status, RequestStatus::kCompleted) << healthy.error;

  engine.drain();
  const ServeReport report = engine.report();
  EXPECT_EQ(report.rejectedCircuitOpen, 1u);
  EXPECT_EQ(report.breakerTrips, 1u);
  EXPECT_GE(report.breakerRejections, 1u);
  EXPECT_EQ(report.breakersOpen, 1);
}

TEST(ServeEngineTest, HalfOpenProbeClosesTheCircuitAfterTheFaultClears) {
  ServeConfig cfg;
  cfg.maxBatchDelaySeconds = 0.0;
  cfg.maxRetries = 0;
  cfg.breaker.enabled = true;
  cfg.breaker.failureThreshold = 1;
  cfg.breaker.openSeconds = 0.010;  // short cool-down: the test waits it out
  auto faulty = std::make_shared<std::atomic<bool>>(true);
  const ProblemKey k = key(32, 16, 68);
  cfg.keyFaultHook = [faulty, k](const ProblemKey& kk) {
    return kk == k && faulty->load();
  };
  ServeEngine engine(cfg);

  EXPECT_EQ(engine.submit(request(k, 1))->wait().status,
            RequestStatus::kFailed);  // trips (threshold 1)
  EXPECT_EQ(engine.submit(request(k, 2))->wait().status,
            RequestStatus::kRejectedCircuitOpen);

  // Fault clears; after the cool-down the next admission is the probe,
  // it succeeds, and the circuit closes for good.
  faulty->store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(engine.submit(request(k, 3))->wait().status,
            RequestStatus::kCompleted);
  EXPECT_EQ(engine.submit(request(k, 4))->wait().status,
            RequestStatus::kCompleted);
  engine.drain();
  EXPECT_EQ(engine.report().breakersOpen, 0);
}

TEST(ServeEngineTest, DegradedModeShedsBatchingWhileCircuitsBurn) {
  ServeConfig cfg;
  cfg.startPaused = true;
  cfg.maxBatch = 8;
  cfg.maxBatchDelaySeconds = 0.050;  // generous window: would coalesce
  cfg.maxRetries = 0;
  cfg.breaker.enabled = true;
  cfg.breaker.failureThreshold = 1;
  cfg.breaker.openSeconds = 60.0;
  cfg.degradedOpenBreakers = 1;
  const ProblemKey bad = key(32, 16, 70);
  cfg.keyFaultHook = [bad](const ProblemKey& k) { return k == bad; };
  ServeEngine engine(cfg);
  EXPECT_FALSE(engine.degraded());

  const ProblemKey good = key(32, 16, 71);
  std::vector<ServeEngine::HandlePtr> handles;
  handles.push_back(engine.submit(request(bad, 1)));  // will trip
  for (std::uint64_t s = 0; s < 4; ++s) {
    handles.push_back(engine.submit(request(good, 10 + s)));
  }
  engine.resume();
  engine.drain();

  EXPECT_EQ(handles[0]->wait().status, RequestStatus::kFailed);
  for (std::size_t i = 1; i < handles.size(); ++i) {
    const RequestOutcome& o = handles[i]->wait();
    EXPECT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    // Degraded mode sheds coalescing: solo batches despite the window.
    EXPECT_EQ(o.batchSize, 1);
  }
  EXPECT_TRUE(engine.degraded());
  EXPECT_TRUE(engine.report().degraded);
}

TEST(ServeEngineTest, RetryBackoffDelaysRequeuedWorkButStillCompletes) {
  ServeConfig cfg;
  simmpi::FaultConfig faults;
  faults.seed = 13;
  faults.transientSendProbability = 0.45;
  cfg.chaos = std::make_shared<simmpi::FaultInjector>(faults, cfg.workers);
  cfg.maxRetries = 64;
  cfg.maxBatchDelaySeconds = 0.0;
  cfg.retryBackoffSeconds = 0.001;
  cfg.retryBackoffMaxSeconds = 0.004;
  ServeEngine engine(cfg);

  std::uint64_t retries = 0;
  for (std::uint64_t s = 0; s < 6; ++s) {
    const ServeEngine::HandlePtr h =
        engine.submit(request(key(32, 16, 200 + s), 1));
    const RequestOutcome& o = h->wait();
    EXPECT_EQ(o.status, RequestStatus::kCompleted) << o.error;
    retries += static_cast<std::uint64_t>(o.retries);
  }
  // Backoff delays retries; it must never strand them.
  EXPECT_GT(retries, 0u);
  engine.drain();
  EXPECT_EQ(engine.report().completed, 6u);
}

// ----------------------------------------------------------------- CLI --

TEST(CmdServe, ReplayReportsAndVerifiesBitwise) {
  const std::string jsonPath = "test_serve_report.json";
  // serve.batch=2 caps coalescing below the 5 requests per key, so each
  // key dispatches several batches and the second onward is a cache hit
  // no matter how the scheduler interleaves arrivals with the worker.
  const int rc = cli::cmdServe(cli::Options::parseArgs(
      {"--requests=10", "--keys=2", "--gap-ms=0.2", "--n=48", "--b=16",
       "--serve.batch=2", "--json", jsonPath, "--verify=3"}));
  EXPECT_EQ(rc, 0);

  std::ifstream in(jsonPath);
  ASSERT_TRUE(in.good());
  std::ostringstream text;
  text << in.rdbuf();
  std::remove(jsonPath.c_str());

  const JsonValue report = JsonValue::parse(text.str());
  EXPECT_EQ(report.get("completed").asNumber(), 10.0);
  EXPECT_GT(report.get("cache_hit_rate").asNumber(), 0.0);
  EXPECT_EQ(report.get("factor_count").asNumber(), 2.0);
  EXPECT_GE(report.get("queue_wait_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(report.get("solve_ms").get("p99").asNumber(), 0.0);
  EXPECT_GE(report.get("total_ms").get("p50").asNumber(), 0.0);
}

}  // namespace
}  // namespace hplmxp::serve
