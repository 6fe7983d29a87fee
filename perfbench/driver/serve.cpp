// serve_zipf: the `hplmxp serve --shards 2` fleet driven open-loop from one
// generator thread with seeded Poisson arrivals. Keys are n=128, B=32,
// drawn Zipf(1.1) over 256 problems, and the fleet cache holds only the
// head, so cache-hit reads (batched IR solves) sit beside misses (factor,
// insert, evict, group replication). A paced phase below the knee gives
// the latency percentiles; peak bursts above capacity give goodput.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "gen/matgen.h"
#include "serve/fleet/fleet.h"
#include "util/thread_pool.h"

namespace perfbench {
namespace {

using hplmxp::index_t;
using hplmxp::serve::FleetEngine;
using hplmxp::serve::FleetReport;
using hplmxp::serve::RequestOutcome;
using hplmxp::serve::RequestStatus;
using hplmxp::serve::SolveRequest;

constexpr index_t kN = 128;
constexpr index_t kB = 32;
constexpr std::size_t kKeys = 256;
constexpr double kZipfS = 1.1;
constexpr std::size_t kFleetCacheBytes = std::size_t{1} << 20;
constexpr std::size_t kWarmKeys = 8;  // head keys factored during set-up
// Paced: below the knee (about a quarter of a shard's worker busy).
constexpr double kPacedRate = 100.0;  // req/s
// The tail of the paced phase comes in clusters of a few requests that one
// host stall creates, so its p99 is taken per window of the schedule (about
// 70 requests each in the untraced half of a 35 s traced run) and reported
// as the median over windows.
constexpr int kPacedWindows = 20;
constexpr double kPeakRate = 4000.0;  // req/s, above capacity
constexpr int kPeakBursts = 8;
// Answers checked against the residual bound: per paced phase, per burst.
constexpr std::size_t kPacedSamples = 16;
constexpr std::size_t kBurstSamples = 2;
// HPL's acceptance bound on the scaled residual of a served answer.
constexpr double kResidualBound = 16.0;

hplmxp::serve::FleetConfig fleetConfig() {
  // The shape `hplmxp serve --shards 2` builds from its defaults.
  hplmxp::serve::FleetConfig f;
  f.shards = 2;
  f.groupSize = 2;
  f.virtualNodes = 64;
  f.fleetCacheBytes = kFleetCacheBytes;
  f.failoverLimit = 2;
  f.groupOptions.timeout = std::chrono::milliseconds(5000);
  return f;
}

struct Sent {
  SolveRequest request;
  double scheduledS = 0.0;  // since process start
  double submitS = 0.0;     // submit() entered
  double returnS = 0.0;     // submit() returned
  FleetEngine::HandlePtr handle;
};

/// Problem of popularity rank `rank`. The keyspace is fixed (it is the
/// deployment's set of matrices, and it decides the ring placement); the
/// run seed drives the traffic: arrival times, which key each request
/// draws, and its rhs.
hplmxp::serve::ProblemKey keyOf(std::size_t rank) {
  hplmxp::serve::ProblemKey k;
  k.n = kN;
  k.b = kB;
  k.seed = 0x5eed0000 + rank;
  return k;
}

/// Records one request's spans once it is answered (waits for it).
void recordRequestSpans(Spans& spans, const Sent& s, const char* phase) {
  const RequestOutcome& o = s.handle->wait();
  const std::uint64_t group = s.request.id;
  const std::uint64_t root = spans.reserve();
  const double answerUs = (s.submitS + o.totalSeconds) * 1e6;
  spans.add({"serve.request", "serve", s.scheduledS * 1e6, answerUs, root,
             group, 0, -1,
             std::string("\"phase\": \"") + phase + "\", \"status\": \"" +
                 hplmxp::serve::toString(o.status) + "\", \"hit\": " +
                 (o.cacheHit ? "true" : "false")});
  spans.add({"fleet.submit", "serve", s.submitS * 1e6, s.returnS * 1e6, 0,
             group, root, -1, ""});
  if (o.status != RequestStatus::kCompleted) {
    return;
  }
  // The split inside the shard comes from the request's own outcome.
  double t = s.submitS * 1e6;
  const struct {
    const char* name;
    double seconds;
  } parts[] = {{"serve.queue", o.queueWaitSeconds},
               {"serve.factor", o.factorSeconds},
               {"serve.solve", o.solveSeconds}};
  for (const auto& p : parts) {
    if (p.seconds > 0.0) {
      spans.add({p.name, "serve", t, t + p.seconds * 1e6, 0, group, root,
                 -1, "\"source\": \"outcome\""});
      t += p.seconds * 1e6;
    }
  }
}

/// One phase of the schedule: where it started and its requests in send
/// order (a deque, so a request keeps its address while later ones join).
struct Phase {
  double startS = 0.0;
  std::deque<Sent> sent;
};

/// Sends requests open-loop at Poisson `rate` for `seconds` of schedule,
/// then waits until every one is answered. With `live` set, a collector
/// thread records each request's spans as its answer arrives, so the
/// tracing work happens while the phase runs.
Phase runPhase(FleetEngine& fleet, const Zipf& zipf, Rng& rng, double rate,
               double seconds, std::uint64_t& nextId, Spans* live = nullptr,
               const char* label = "") {
  Phase phase;
  phase.startS = sinceStart() + 0.005;
  std::mutex mutex;
  std::condition_variable sentCv;
  std::size_t ready = 0;
  bool ended = false;
  std::thread collector;
  if (live != nullptr) {
    collector = std::thread([&] {
      for (std::size_t i = 0;; ++i) {
        const Sent* s = nullptr;
        {
          std::unique_lock<std::mutex> lock(mutex);
          sentCv.wait(lock, [&] { return i < ready || ended; });
          if (i == ready) {
            return;
          }
          s = &phase.sent[i];
        }
        recordRequestSpans(*live, *s, label);
      }
    });
  }
  // Joins the collector on every way out, so it never outlives `phase`.
  struct StopCollector {
    std::thread& thread;
    std::mutex& mutex;
    std::condition_variable& cv;
    bool& ended;
    ~StopCollector() { join(); }
    void join() {
      if (thread.joinable()) {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          ended = true;
        }
        cv.notify_one();
        thread.join();
      }
    }
  } stop{collector, mutex, sentCv, ended};

  double at = phase.startS + rng.exponential(rate);
  while (at < phase.startS + seconds) {
    Sent s;
    s.request.id = nextId++;
    s.request.key = keyOf(zipf.draw(rng));
    s.request.rhsSeed = rng.next();
    s.scheduledS = at;
    std::this_thread::sleep_until(startPlus(at));
    s.submitS = sinceStart();
    s.handle = fleet.submit(s.request);
    s.returnS = sinceStart();
    {
      const std::lock_guard<std::mutex> lock(mutex);
      phase.sent.push_back(std::move(s));
      ++ready;
    }
    sentCv.notify_one();
    at += rng.exponential(rate);
  }
  fleet.drain();
  stop.join();
  return phase;
}

/// Latency from the scheduled send to the answer; refused or failed
/// requests never meet any limit.
double latencyS(const Sent& s) {
  const RequestOutcome& o = s.handle->wait();
  if (o.status != RequestStatus::kCompleted) {
    return INFINITY;
  }
  return (s.submitS - s.scheduledS) + o.totalSeconds;
}

/// The p-th latency percentile of each of `windows` equal slices of a
/// phase's `seconds` of schedule (by scheduled send), and the median over
/// the slices: a host stall that delays one cluster of requests moves one
/// slice, not the figure.
double windowedPct(const Phase& phase, double seconds, int windows,
                   double p) {
  std::vector<std::vector<double>> slices(static_cast<std::size_t>(windows));
  for (const Sent& s : phase.sent) {
    const int w = std::min(
        windows - 1, static_cast<int>((s.scheduledS - phase.startS) /
                                      seconds * windows));
    slices[static_cast<std::size_t>(w)].push_back(latencyS(s));
  }
  std::vector<double> perSlice;
  for (std::vector<double>& slice : slices) {
    if (!slice.empty()) {
      perSlice.push_back(pct(std::move(slice), p));
    }
  }
  return median(perSlice);
}

/// HPL's scaled residual ||A x - b||_inf / (eps n (||A||_inf ||x||_inf +
/// ||b||_inf)) of a served answer, computed entry by entry from the
/// problem's generator, apart from the serving solver and its IR loop.
double scaledResidual(const hplmxp::serve::ProblemKey& key,
                      std::uint64_t rhsSeed, const std::vector<double>& x) {
  const hplmxp::ProblemGenerator gen(key.seed, key.n);
  const hplmxp::ProblemGenerator rhs(rhsSeed, key.n);
  if (x.size() != static_cast<std::size_t>(key.n)) {
    return INFINITY;
  }
  double rInf = 0.0, aInf = 0.0, xInf = 0.0, bInf = 0.0;
  for (index_t i = 0; i < key.n; ++i) {
    const double b = rhs.rhs(i);
    double ax = 0.0, rowSum = 0.0;
    for (index_t j = 0; j < key.n; ++j) {
      const double a = gen.entry(i, j);
      ax += a * x[static_cast<std::size_t>(j)];
      rowSum += std::fabs(a);
    }
    rInf = std::max(rInf, std::fabs(ax - b));
    aInf = std::max(aInf, rowSum);
    xInf = std::max(xInf, std::fabs(x[static_cast<std::size_t>(i)]));
    bInf = std::max(bInf, std::fabs(b));
  }
  return rInf / (std::numeric_limits<double>::epsilon() *
                 static_cast<double>(key.n) * (aInf * xInf + bInf));
}

/// Adds a phase's requests to the operation ledger and checks `samples` of
/// its answers, spread over the phase: each must report IR convergence and
/// solve A x = b to HPL's residual bound. Refusals in a peak burst are
/// admission control by design, not failures.
void settle(const Phase& phase, bool peakBurst, std::size_t samples,
            RunResult& out, std::size_t& verified) {
  std::vector<const Sent*> completed;
  for (const Sent& s : phase.sent) {
    ++out.attempted;
    const RequestStatus status = s.handle->wait().status;
    if (status == RequestStatus::kCompleted) {
      completed.push_back(&s);
    } else if (!peakBurst || status == RequestStatus::kFailed) {
      ++out.failed;
    }
  }
  const std::size_t stride =
      std::max<std::size_t>(1, completed.size() / samples);
  for (std::size_t i = 0; i < completed.size(); i += stride) {
    const Sent& s = *completed[i];
    out.check(s.handle->wait().converged,
              "served answer reports no IR convergence");
    const double residual = scaledResidual(s.request.key, s.request.rhsSeed,
                                           s.handle->solution());
    out.check(residual < kResidualBound,
              "served answer misses the residual bound (scaled residual " +
                  std::to_string(residual) + ")");
    ++verified;
  }
}

/// Fleet counters that accumulate over the fleet's life.
struct Counters {
  double lookups = 0, hits = 0, factors = 0, evictions = 0, coalesced = 0;
  double submitted = 0, affinity = 0, reroutes = 0, detours = 0,
         quarantines = 0, failovers = 0, hedges = 0;
  double batches = 0, batchColumns = 0;

  static Counters of(const FleetReport& r) {
    Counters c;
    c.lookups = static_cast<double>(r.fleet.cache.lookups);
    c.hits = static_cast<double>(r.fleet.cache.hits);
    c.factors = static_cast<double>(r.fleet.cache.factorCount);
    c.evictions = static_cast<double>(r.fleet.cache.evictions);
    c.coalesced = static_cast<double>(r.fleet.cache.coalesced);
    c.submitted = static_cast<double>(r.submitted);
    c.affinity = static_cast<double>(r.affinityHits);
    c.reroutes = static_cast<double>(r.reroutes);
    c.detours = static_cast<double>(r.healthDetours);
    c.quarantines = static_cast<double>(r.quarantines);
    c.failovers = static_cast<double>(r.failovers);
    c.hedges = static_cast<double>(r.hedgesIssued);
    // The fleet-level mean batch size is never filled in; the per-shard
    // engine reports carry the batching picture.
    for (const hplmxp::serve::ShardReport& s : r.perShard) {
      c.batches += static_cast<double>(s.report.batchedSolves);
      c.batchColumns += s.report.meanBatchSize *
                        static_cast<double>(s.report.batchedSolves);
    }
    return c;
  }

  /// Growth of every counter since `b`.
  [[nodiscard]] Counters since(const Counters& b) const {
    Counters c;
    c.lookups = lookups - b.lookups;
    c.hits = hits - b.hits;
    c.factors = factors - b.factors;
    c.evictions = evictions - b.evictions;
    c.coalesced = coalesced - b.coalesced;
    c.submitted = submitted - b.submitted;
    c.affinity = affinity - b.affinity;
    c.reroutes = reroutes - b.reroutes;
    c.detours = detours - b.detours;
    c.quarantines = quarantines - b.quarantines;
    c.failovers = failovers - b.failovers;
    c.hedges = hedges - b.hedges;
    c.batches = batches - b.batches;
    c.batchColumns = batchColumns - b.batchColumns;
    return c;
  }
};

}  // namespace

void runServe(const Options& opts, Spans& spans, RunResult& out) {
  hplmxp::ThreadPool::global();  // pool start belongs to set-up
  const Zipf zipf(kKeys, kZipfS);
  Rng rng(deriveSeed(opts.seed, 0x7365));
  std::uint64_t nextId = 1;

  // Set-up: fleet start (rank groups, engines) and a cache warm of the
  // head keys, repeated; the last fleet serves the run.
  std::unique_ptr<FleetEngine> fleet;
  const double preSetup = sinceStart();
  const double setupSeconds = preSetup + median(setupRounds([&] {
    fleet.reset();
    fleet = std::make_unique<FleetEngine>(fleetConfig());
    std::vector<FleetEngine::HandlePtr> warm;
    for (std::size_t k = 0; k < kWarmKeys; ++k) {
      SolveRequest req;
      req.id = nextId++;
      req.key = keyOf(k);
      req.rhsSeed = k + 1;
      warm.push_back(fleet->submit(req));
    }
    for (const auto& h : warm) {
      out.check(h->wait().status == RequestStatus::kCompleted,
                "cache-warm request not completed");
    }
  }));

  // Traced runs split the paced time into an untraced and a traced half,
  // so the tracing overhead is measured against the same fleet.
  const double pacedSeconds = (opts.trace ? 0.4 : 0.8) * opts.seconds;
  const double burstSeconds = 0.15 * opts.seconds / kPeakBursts;
  const Counters before = Counters::of(fleet->report());
  const Phase paced =
      runPhase(*fleet, zipf, rng, kPacedRate, pacedSeconds, nextId);
  const Phase pacedTraced =
      opts.trace ? runPhase(*fleet, zipf, rng, kPacedRate, pacedSeconds,
                            nextId, &spans, "paced")
                 : Phase{};
  const FleetReport pacedReport = fleet->report();
  std::size_t verified = 0;
  settle(paced, false, kPacedSamples, out, verified);
  settle(pacedTraced, false, kPacedSamples, out, verified);
  // The peak phase is several bursts, each drained before the next, so a
  // host stall in one burst does not decide the run's goodput. A burst's
  // requests are settled and released before the next, so the heap the
  // run measures is the fleet's, not the driver's record of answers.
  std::vector<double> goodput;
  double peakLate = 0.0;
  for (int i = 0; i < kPeakBursts; ++i) {
    const Phase burst =
        runPhase(*fleet, zipf, rng, kPeakRate, burstSeconds, nextId);
    double good = 0.0;
    for (const Sent& s : burst.sent) {
      good += latencyS(s) <= opts.limitMs * 1e-3 ? 1.0 : 0.0;
      peakLate = std::max(peakLate, s.submitS - s.scheduledS);
      if (opts.trace) {
        recordRequestSpans(spans, s, "peak");
      }
    }
    goodput.push_back(good / burstSeconds);
    settle(burst, true, kBurstSamples, out, verified);
  }
  const FleetReport report = fleet->report();

  // --- the fleet's ledger -------------------------------------------------
  out.check(verified >= (opts.trace ? 2 : 1) * kPacedSamples +
                           kPeakBursts * kBurstSamples,
            "too few answers verified");
  out.check(report.dropped == 0, "fleet dropped requests");
  out.check(report.doubleAnswered == 0, "fleet double-answered requests");
  out.check(report.cacheLookupInvariant &&
                report.fleet.cache.hits + report.fleet.cache.misses ==
                    report.fleet.cache.lookups,
            "cache hits + misses != lookups");
  out.check(report.submitted == report.answered, "fleet ledger unbalanced");

  if (!opts.trace) {
    std::vector<double> lat, rates;
    for (const Sent& s : paced.sent) {
      lat.push_back(latencyS(s));
      const RequestOutcome& o = s.handle->wait();
      if (o.status == RequestStatus::kCompleted && o.factorSeconds > 0.0) {
        rates.push_back(hplaiFlops(static_cast<double>(o.key.n)) /
                        (o.factorSeconds + o.solveSeconds) * 1e-9);
      }
    }
    out.add("hplai_gflops", median(rates), "GF/s");
    out.add("req_p50_ms", median(lat) * 1e3, "ms");
    out.add("goodput_rps", median(goodput), "req/s");
    out.add("setup_s", setupSeconds, "s");
    return;
  }

  // --- per-layer ledger: the traced paced half ----------------------------
  std::vector<double> queueS, factorS, solveS, irIters, late, latUntraced,
      latTraced;
  std::set<std::uint64_t> keysSeen;
  for (const Sent& s : paced.sent) {
    latUntraced.push_back(latencyS(s));
    keysSeen.insert(s.request.key.seed);
  }
  for (const Sent& s : pacedTraced.sent) {
    const RequestOutcome& o = s.handle->wait();
    latTraced.push_back(latencyS(s));
    late.push_back(s.submitS - s.scheduledS);
    keysSeen.insert(s.request.key.seed);
    if (o.status != RequestStatus::kCompleted) {
      continue;
    }
    queueS.push_back(o.queueWaitSeconds);
    solveS.push_back(o.solveSeconds);
    irIters.push_back(static_cast<double>(o.irIterations));
    if (o.factorSeconds > 0.0) {
      factorS.push_back(o.factorSeconds);
    }
  }
  // Counters cover both paced halves (the fleet reports cumulative
  // totals); ratios are unaffected.
  const Counters d = Counters::of(pacedReport).since(before);
  out.add("serve.req_p99_ms",
          windowedPct(paced, pacedSeconds, kPacedWindows, 99.0) * 1e3, "ms");
  out.add("serve.queue_ms.p50", median(queueS) * 1e3, "ms");
  out.add("serve.queue_ms.p99", pct(queueS, 99.0) * 1e3, "ms");
  out.add("serve.factor_ms.p50", median(factorS) * 1e3, "ms");
  out.add("serve.solve_ms.p50", median(solveS) * 1e3, "ms");
  out.add("serve.solve_ms.p99", pct(solveS, 99.0) * 1e3, "ms");
  out.add("serve.batch_mean", d.batches > 0 ? d.batchColumns / d.batches : 0.0,
          "count");
  out.add("serve.ir_iters_mean", mean(irIters), "count");
  out.add("serve.cache.hit_rate", d.lookups > 0 ? d.hits / d.lookups : 0.0,
          "ratio");
  out.add("serve.cache.factors", d.factors, "count");
  out.add("serve.cache.factors_per_key",
          d.factors / static_cast<double>(keysSeen.size()), "ratio");
  out.add("serve.cache.evictions", d.evictions, "count");
  out.add("serve.cache.coalesced", d.coalesced, "count");
  out.add("fleet.affinity_share",
          d.submitted > 0 ? d.affinity / d.submitted : 0.0, "ratio");
  out.add("fleet.reroutes", d.reroutes, "count");
  out.add("fleet.detours", d.detours, "count");
  out.add("fleet.quarantines", d.quarantines, "count");
  out.add("fleet.failovers", d.failovers, "count");
  out.add("fleet.hedges", d.hedges, "count");
  out.add("serve.gen_late_ms.max", pct(late, 100.0) * 1e3, "ms");
  out.add("trace.overhead_frac",
          median(latTraced) / median(latUntraced) - 1.0, "ratio");

  if (pacedReport.fleet.meanBatchSize == 0.0 && d.batches > 0) {
    out.finding("fleet-level mean_batch_size reads 0 while the shards "
                "coalesced " +
                std::to_string(d.batchColumns / d.batches) +
                " requests per solve: the fleet report never fills it");
  }
  if (d.quarantines > 0 || d.detours > 0) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "fault-free paced run: %.0f quarantines and %.0f health "
                  "detours over %.0f requests",
                  d.quarantines, d.detours, d.submitted);
    out.finding(line);
  }
  out.finding("generator lateness in the peak phase reached " +
              std::to_string(peakLate * 1e3) + " ms");
}

}  // namespace perfbench
