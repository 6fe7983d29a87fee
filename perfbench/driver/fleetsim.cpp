// fleetsim_scale: the CI co-simulation shape scaled up — a 1056-node
// dragonfly running the N=16384, B=512, 32x32 LU sweep beside a 1M-request
// synthetic serve trace with one shard crash and resurrection. Only the
// simulator modules run here (fleetsim, perfmodel pricing, netsim).
#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "fleetsim/fleet_sim.h"
#include "fleetsim/topology.h"
#include "serve/fleet/hash_ring.h"

namespace perfbench {
namespace {

using hplmxp::index_t;
namespace fs = hplmxp::fleetsim;

constexpr std::size_t kRequests = 1'000'000;
constexpr std::size_t kKeys = 64;
constexpr double kGapMs = 0.01;  // mean Poisson gap: 100k req/s offered

fs::TopologyConfig topologyConfig(const Options& opts) {
  fs::TopologyConfig t = fs::TopologyConfig::load(kTopology);
  // Which dies are slow or degraded follows the run seed.
  t.variability.seed = deriveSeed(opts.seed, 0x746f70);
  return t;
}

/// Key seeds are consecutive from here, most popular first. The keyspace
/// is fixed (it decides the ring placement); the run seed drives arrival
/// times, key draws, rhs seeds and which dies are slow.
constexpr std::uint64_t kHottestKeySeed = 0x5eed0000;

hplmxp::serve::RequestTrace makeTrace(std::uint64_t seed) {
  Rng rng(deriveSeed(seed, 0x7472));
  const Zipf zipf(kKeys, 1.1);
  const std::uint64_t keyBase = kHottestKeySeed;
  hplmxp::serve::RequestTrace trace;
  trace.name = "fleetsim_scale";
  trace.requests.reserve(kRequests);
  double atMs = 0.0;
  for (std::size_t i = 0; i < kRequests; ++i) {
    hplmxp::serve::TraceRequest r;
    atMs += rng.exponential(1.0 / kGapMs);
    r.atMs = atMs;
    r.n = 64;
    r.b = 16;
    r.seed = keyBase + zipf.draw(rng);
    r.rhsSeed = rng.next();
    trace.requests.push_back(r);
  }
  return trace;
}

fs::FleetSimConfig simConfig(const fs::TopologyConfig& topology,
                             const hplmxp::serve::RequestTrace& trace,
                             bool lu, bool serve) {
  fs::FleetSimConfig cfg;
  cfg.topology = topology;
  cfg.runLu = lu;
  cfg.lu.n = 16384;
  cfg.lu.b = 512;
  cfg.lu.pr = 32;
  cfg.lu.pc = 32;
  cfg.runServe = serve;
  if (serve) {
    cfg.serve.trace = trace;
    cfg.serve.shards = 24;
    cfg.serve.failoverLimit = 2;
    // Crash the shard that owns the most popular key, so the crash always
    // has in-flight work to fail over.
    hplmxp::serve::ProblemKey hot;
    hot.n = trace.requests.front().n;
    hot.b = trace.requests.front().b;
    hot.seed = kHottestKeySeed;
    const index_t shard =
        hplmxp::serve::HashRing(cfg.serve.shards, cfg.serve.virtualNodes)
            .route(hot, nullptr);
    cfg.serve.chaos.push_back(
        {fs::ChaosAction::Kind::kCrash, 200.0, shard, 0.0});
    cfg.serve.chaos.push_back(
        {fs::ChaosAction::Kind::kResurrect, 600.0, shard, 0.0});
  }
  return cfg;
}

struct Session {
  fs::FleetSimReport report;
  double runS = 0.0;
};

/// Builds and runs one session. Traced sessions run in slices of virtual
/// time with one span each; the event order (and trace hash) is the same.
Session runSession(const fs::FleetSimConfig& cfg, Spans* spans,
                   const char* name) {
  Session s;
  const double b0 = sinceStart();
  fs::FleetSession session(cfg);
  const double r0 = sinceStart();
  const std::uint64_t root = spans != nullptr ? spans->reserve() : 0;
  if (spans == nullptr) {
    session.sim().run();
  } else {
    double sliceEnd = 0.0;
    while (session.sim().pendingEvents() > 0) {
      sliceEnd += 0.1;
      const double t0 = Spans::nowUs();
      const std::uint64_t e0 = session.sim().executedEvents();
      session.sim().runUntil(sliceEnd);
      spans->add({"fleetsim.slice", "fleetsim", t0, Spans::nowUs(), 0, root,
                  root, 0,
                  "\"virtual_end_s\": " + std::to_string(sliceEnd) +
                      ", \"events\": " +
                      std::to_string(session.sim().executedEvents() - e0)});
    }
  }
  s.runS = sinceStart() - r0;
  if (spans != nullptr) {
    spans->add({"fleetsim.build", "fleetsim", b0 * 1e6, r0 * 1e6, 0, root,
                root, 0, ""});
    spans->add({name, "fleetsim", b0 * 1e6, sinceStart() * 1e6, root, root, 0,
                0, ""});
  }
  s.report = session.report();
  return s;
}

void checkSession(const Session& s, RunResult& out) {
  const fs::FleetSimReport& r = s.report;
  if (r.hasLu) {
    out.check(r.lu.finished &&
                  r.lu.iterations == r.lu.totalIterations,
              "simulated LU sweep did not finish");
  }
  if (r.hasServe) {
    const fs::ServeStats& c = r.serveCounters;
    const std::uint64_t accounted = c.completed + c.failed +
                                    c.rejectedQueueFull + c.rejectedDeadline +
                                    c.rejectedCircuitOpen;
    out.attempted += c.submitted;
    out.failed += c.submitted - std::min(c.submitted, accounted);
    out.check(c.submitted == kRequests && accounted == c.submitted,
              "simulated requests unaccounted for");
  }
}

}  // namespace

void runFleetsim(const Options& opts, Spans& spans, RunResult& out) {
  const double preSetup = sinceStart();
  const hplmxp::serve::RequestTrace trace = makeTrace(opts.seed);

  // Set-up: topology load and session build (the LU sweep and the 1M
  // arrivals are scheduled on construction), repeated.
  fs::TopologyConfig topology;
  const double buildRound = median(setupRounds([&] {
    topology = topologyConfig(opts);
    const fs::FleetSession session(simConfig(topology, trace, true, true));
  }));
  const double setupSeconds = preSetup + buildRound;
  const fs::FleetSimConfig both = simConfig(topology, trace, true, true);

  // Measurement: whole sessions until the time is up, at least two so the
  // trace hashes can be compared. Only the first session's report is kept,
  // so the heap does not grow with the number of sessions a run fits.
  std::optional<Session> first;
  std::vector<double> rates, eventsPerS, runS;
  const double measure0 = sinceStart();
  while (runS.size() < 2 || sinceStart() - measure0 < opts.seconds) {
    Session s = runSession(both, nullptr, "fleetsim.session");
    checkSession(s, out);
    rates.push_back(static_cast<double>(s.report.serveCounters.completed) /
                    s.runS);
    eventsPerS.push_back(static_cast<double>(s.report.events) / s.runS);
    runS.push_back(s.runS);
    if (first) {
      out.check(s.report.traceHash == first->report.traceHash &&
                    s.report.events == first->report.events,
                "two sessions with the same seed gave different traces");
    } else {
      first = std::move(s);
    }
    if (opts.trace && runS.size() >= 2) {
      break;  // the traced sessions below need the rest of the time
    }
  }
  const fs::FleetSimReport& rep = first->report;

  if (!opts.trace) {
    out.add("hplai_gflops",
            hplaiFlops(static_cast<double>(both.lu.n)) /
                rep.lu.factorSeconds * 1e-9,
            "GF/s");
    out.add("req_p50_ms", rep.total.p50Ms, "ms");
    out.add("goodput_rps", median(rates), "req/s");
    out.add("setup_s", setupSeconds, "s");
    return;
  }

  const Session traced = runSession(both, &spans, "fleetsim.session");
  checkSession(traced, out);
  out.check(traced.report.traceHash == rep.traceHash,
            "sliced (traced) session diverged from the untraced one");
  const Session luOnly =
      runSession(simConfig(topology, trace, true, false), &spans,
                 "fleetsim.lu_session");
  checkSession(luOnly, out);
  const Session serveOnly =
      runSession(simConfig(topology, trace, false, true), &spans,
                 "fleetsim.serve_session");
  checkSession(serveOnly, out);

  out.add("fleetsim.events", static_cast<double>(rep.events), "count");
  out.add("fleetsim.events_per_s", median(eventsPerS), "events/s");
  out.add("fleetsim.virtual_s", rep.virtualSeconds, "s");
  out.add("fleetsim.build_s", buildRound, "s");
  out.add("fleetsim.lu_wall_s", luOnly.runS, "s");
  out.add("fleetsim.serve_wall_s", serveOnly.runS, "s");
  out.add("fleetsim.serve.hit_rate", rep.serveCounters.hitRate(), "ratio");
  out.add("fleetsim.serve.p99_ms", rep.total.p99Ms, "ms");
  out.add("trace.overhead_frac", traced.runS / median(runS) - 1.0, "ratio");
}

}  // namespace perfbench
