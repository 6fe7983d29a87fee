#include "fleetsim/fleet_sim.h"

#include <cmath>
#include <fstream>
#include <sstream>

#include "serve/json.h"

namespace hplmxp::fleetsim {

FleetSession::FleetSession(FleetSimConfig config)
    : config_(std::move(config)), topology_(config_.topology) {
  HPLMXP_REQUIRE(config_.runLu || config_.runServe,
                 "fleet session needs at least one workload");
  if (config_.runLu) {
    lu_ = std::make_unique<LuWorkload>(config_.lu, topology_);
    sim_.addWorkload(lu_.get());
  }
  if (config_.runServe) {
    serve_ = std::make_unique<ServeWorkload>(config_.serve, topology_);
    sim_.addWorkload(serve_.get());
  }
  sim_.startWorkloads();
}

FleetSimReport FleetSession::report() const {
  FleetSimReport report;
  report.topologyName = topology_.config().name;
  report.topologyKind = toString(topology_.config().kind);
  report.nodes = topology_.nodes();
  report.events = sim_.executedEvents();
  report.traceHash = sim_.traceHash();
  report.virtualSeconds = sim_.now();
  if (lu_ != nullptr) {
    report.hasLu = true;
    report.lu = lu_->stats();
  }
  if (serve_ != nullptr) {
    report.hasServe = true;
    report.serveCounters = serve_->stats();
    report.queueWait =
        serve::LatencyPercentiles::of(report.serveCounters.queueWaitSeconds);
    report.solve =
        serve::LatencyPercentiles::of(report.serveCounters.solveSeconds);
    report.total =
        serve::LatencyPercentiles::of(report.serveCounters.totalSeconds);
  }
  return report;
}

std::string FleetSimReport::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\n";
  os << "  \"topology\": " << serve::jsonQuote(topologyName) << ",\n";
  os << "  \"kind\": " << serve::jsonQuote(topologyKind) << ",\n";
  os << "  \"nodes\": " << nodes << ",\n";
  os << "  \"events\": " << events << ",\n";
  os << "  \"trace_hash\": \"" << std::hex << traceHash << std::dec
     << "\",\n";
  os << "  \"virtual_seconds\": " << virtualSeconds;
  if (hasLu) {
    os << ",\n  \"lu\": {\n";
    os << "    \"iterations\": " << lu.iterations << ",\n";
    os << "    \"total_iterations\": " << lu.totalIterations << ",\n";
    os << "    \"finished\": " << (lu.finished ? "true" : "false") << ",\n";
    os << "    \"factor_seconds\": " << lu.factorSeconds << ",\n";
    os << "    \"comm_seconds\": " << lu.commSeconds << ",\n";
    os << "    \"comm_bound_iterations\": " << lu.commBoundIterations
       << "\n  }";
  }
  if (hasServe) {
    const ServeStats& s = serveCounters;
    os << ",\n  \"serve\": {\n";
    os << "    \"submitted\": " << s.submitted << ",\n";
    os << "    \"completed\": " << s.completed << ",\n";
    os << "    \"rejected_queue_full\": " << s.rejectedQueueFull << ",\n";
    os << "    \"rejected_deadline\": " << s.rejectedDeadline << ",\n";
    os << "    \"rejected_circuit_open\": " << s.rejectedCircuitOpen
       << ",\n";
    os << "    \"failed\": " << s.failed << ",\n";
    os << "    \"failovers\": " << s.failovers << ",\n";
    os << "    \"cache_lookups\": " << s.cache.lookups << ",\n";
    os << "    \"cache_hits\": " << s.cache.hits << ",\n";
    os << "    \"cache_misses\": " << s.cache.misses << ",\n";
    os << "    \"cache_hit_rate\": " << s.hitRate() << ",\n";
    os << "    \"factor_count\": " << s.cache.factorCount << ",\n";
    os << "    \"cache_evictions\": " << s.cache.evictions << ",\n";
    os << "    \"batches\": " << s.batches << ",\n";
    os << "    \"mean_batch_size\": " << s.meanBatchSize() << ",\n";
    os << "    \"max_batch_size\": " << s.maxBatchSize << ",\n";
    os << "    \"peak_queue_depth\": " << s.peakQueueDepth << ",\n";
    os << "    \"breaker_trips\": " << s.breakerTrips << ",\n";
    os << "    \"heartbeats\": " << s.heartbeats << ",\n";
    os << "    \"quarantines\": " << s.quarantines << ",\n";
    os << "    \"health_detours\": " << s.healthDetours << ",\n";
    os << "    \"hedges_issued\": " << s.hedgesIssued << ",\n";
    os << "    \"hedge_wins\": " << s.hedgeWins << ",\n";
    os << "    \"hedge_wasted\": " << s.hedgeWasted << ",\n";
    os << "    \"hedge_denied\": " << s.hedgeDenied << ",\n";
    os << "    \"solve_work_seconds\": " << s.solveWorkSeconds << ",\n";
    os << "    \"queue_wait_ms\": " << queueWait.toJson() << ",\n";
    os << "    \"solve_ms\": " << solve.toJson() << ",\n";
    os << "    \"total_ms\": " << total.toJson() << "\n  }";
  }
  os << "\n}\n";
  return os.str();
}

std::string ValidationResult::toJson() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\n  \"pass\": " << (pass ? "true" : "false")
     << ",\n  \"checks\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const ValidationLine& line = lines[i];
    os << "    {\"metric\": " << serve::jsonQuote(line.metric)
       << ", \"simulated\": " << line.simulated
       << ", \"measured\": " << line.measured
       << ", \"ratio\": " << line.ratio << ", \"delta\": " << line.delta
       << ", \"pass\": " << (line.pass ? "true" : "false") << "}"
       << (i + 1 < lines.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

ValidationResult validateAgainst(const FleetSimReport& report,
                                 const std::string& benchServePath,
                                 double latencyFactorTol,
                                 double hitRateTol) {
  HPLMXP_REQUIRE(report.hasServe,
                 "validation needs a serve workload in the report");
  HPLMXP_REQUIRE(latencyFactorTol >= 1.0,
                 "latency tolerance is a factor >= 1");
  HPLMXP_REQUIRE(hitRateTol >= 0.0, "negative hit-rate tolerance");
  std::ifstream in(benchServePath);
  HPLMXP_REQUIRE(in.good(),
                 ("cannot open measured report: " + benchServePath).c_str());
  std::ostringstream text;
  text << in.rdbuf();
  const serve::JsonValue doc = serve::JsonValue::parse(text.str());
  // A --shards report nests the fleet-level ServeReport under "fleet".
  const serve::JsonValue& measured =
      doc.has("total_ms") ? doc : doc.get("fleet");

  ValidationResult result;
  result.pass = true;
  const auto latencyCheck = [&](const std::string& metric, double simMs,
                                double measuredMs) {
    ValidationLine line;
    line.metric = metric;
    line.simulated = simMs;
    line.measured = measuredMs;
    line.ratio = measuredMs > 0.0 ? simMs / measuredMs
                                  : (simMs > 0.0 ? INFINITY : 1.0);
    line.pass = line.ratio <= latencyFactorTol &&
                line.ratio >= 1.0 / latencyFactorTol;
    result.pass = result.pass && line.pass;
    result.lines.push_back(line);
  };
  const serve::JsonValue& totalMs = measured.get("total_ms");
  latencyCheck("total_p50_ms", report.total.p50Ms,
               totalMs.get("p50").asNumber());
  latencyCheck("total_p99_ms", report.total.p99Ms,
               totalMs.get("p99").asNumber());

  ValidationLine hit;
  hit.metric = "cache_hit_rate";
  hit.simulated = report.serveCounters.hitRate();
  hit.measured = measured.get("cache_hit_rate").asNumber();
  hit.delta = hit.simulated - hit.measured;
  hit.ratio = hit.measured > 0.0 ? hit.simulated / hit.measured : 1.0;
  hit.pass = std::abs(hit.delta) <= hitRateTol;
  result.pass = result.pass && hit.pass;
  result.lines.push_back(hit);
  return result;
}

}  // namespace hplmxp::fleetsim
