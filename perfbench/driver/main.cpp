// hplmxp benchmark driver.
//
//   hplmxp_perfbench --workload <lu_compute|serve_zipf|fleetsim_scale>
//                    --seed <n> --seconds <s> --trace <0|1> --limit-ms <ms>
//
// Run from the repository root, it runs one workload for --seconds, checks
// its outputs, and prints one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Untraced runs report the end-to-end metrics; traced runs report the
// per-layer ledger and also write .bench_out/<workload>-<seed>.trace.json
// (Chrome trace events) and .bench_out/<workload>-<seed>.layers.json.
// Exit code: 0 when every check passed, 1 when a check failed, 2 on bad
// usage or an error that stopped the run.
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "util/logging.h"

namespace {

using perfbench::Options;
using perfbench::RunResult;

bool parseArgs(int argc, char** argv, Options& opts) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opts.workload = value;
    } else if (key == "--seed") {
      opts.seed = std::stoull(value);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (key == "--trace") {
      opts.trace = value == "1";
    } else if (key == "--limit-ms") {
      opts.limitMs = std::stod(value);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && !opts.workload.empty() && opts.seconds > 0.0 &&
         opts.limitMs > 0.0;
}

std::string metricsJson(const RunResult& r) {
  std::string s = "{";
  char buf[64];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", r.metrics[i].value);
    s += (i ? ", \"" : "\"") + r.metrics[i].name + "\": {\"value\": " + buf +
         ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  return s + "}";
}

void writeLayers(const Options& opts, const RunResult& r,
                 const std::string& path) {
  std::ofstream os(path);
  os << "{\"workload\": \"" << opts.workload << "\", \"seed\": " << opts.seed
     << ", \"metrics\": " << metricsJson(r) << ", \"findings\": [";
  for (std::size_t i = 0; i < r.findings.size(); ++i) {
    os << (i ? ", \"" : "\"") << perfbench::jsonEscape(r.findings[i])
       << "\"";
  }
  os << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  if (!parseArgs(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: hplmxp_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --limit-ms <ms>\n");
    return 2;
  }
  hplmxp::Log::setLevel(hplmxp::LogLevel::kWarn);
  perfbench::Spans spans(opts.trace);
  perfbench::HeapPeak heap;
  RunResult result;
  try {
    if (opts.workload == "lu_compute") {
      perfbench::runLu(opts, spans, result);
    } else if (opts.workload == "serve_zipf") {
      perfbench::runServe(opts, spans, result);
    } else if (opts.workload == "fleetsim_scale") {
      perfbench::runFleetsim(opts, spans, result);
    } else {
      std::fprintf(stderr, "unknown workload %s\n", opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: run stopped: %s\n", opts.workload.c_str(),
                 e.what());
    return 2;
  }

  // The resident set wanders with glibc's per-thread arena caching (the
  // same lu_compute work peaks anywhere from 120 to 180 MiB), so the
  // end-to-end figure is the live heap and the resident set is a layer.
  if (opts.trace) {
    result.add("proc.peak_rss_mb", perfbench::peakRssMib(), "MiB");
  } else {
    result.add("peak_heap_mb", heap.mib(), "MiB");
  }
  for (const perfbench::Metric& m : result.metrics) {
    result.check(std::isfinite(m.value), "metric is not finite: " + m.name);
  }
  if (opts.trace) {
    ::mkdir(perfbench::kOutDir, 0755);
    const std::string stem = std::string(perfbench::kOutDir) + "/" +
                             opts.workload + "-" + std::to_string(opts.seed);
    spans.writeChromeTrace(stem + ".trace.json");
    writeLayers(opts, result, stem + ".layers.json");
    std::fprintf(stderr, "wrote %s.trace.json (%zu spans) and %s.layers.json\n",
                 stem.c_str(), spans.size(), stem.c_str());
  }
  for (const std::string& f : result.findings) {
    std::fprintf(stderr, "finding: %s\n", f.c_str());
  }
  for (const std::string& f : result.checkFailures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metricsJson(result).c_str());
  return result.correct ? 0 : 1;
}
