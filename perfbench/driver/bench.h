// Shared pieces of the benchmark driver: command-line options, the result
// record every workload fills, seeded input generators, summary statistics,
// and the in-memory span recorder behind the traced run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// serve_zipf latency limit: a request answered later than this (from
  /// its scheduled send) does not count towards goodput. Required.
  double limitMs = 0.0;
};

// Paths relative to the repository root, which the driver runs from.
/// Where traced runs write their Chrome trace and per-layer ledger.
inline constexpr const char* kOutDir = ".bench_out";
/// The fleetsim_scale topology.
inline constexpr const char* kTopology = "perfbench/frontier_1056.conf";

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: the operation ledger, the correctness verdict,
/// the metrics, and free-text findings (recorded, never failures).
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> findings;
  std::vector<std::string> checkFailures;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Records a correctness check; a failed one makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  void finding(const std::string& what) { findings.push_back(what); }
};

// --- time -----------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

/// Seconds since process start (static initialisation), the set-up epoch.
double sinceStart();
/// The steady-clock instant `seconds` after process start.
SteadyClock::time_point startPlus(double seconds);

/// Peak resident set of this process in MiB (getrusage).
double peakRssMib();

/// Samples the live heap every 50 ms on its own thread and keeps the peak.
/// The live heap is what malloc has handed out and not taken back
/// (mallinfo2: bytes in use in every arena plus mmapped blocks); unlike the
/// resident set it does not count freed memory an arena keeps cached.
/// mallinfo2 holds each arena's lock while it walks the free lists (40 us
/// on average and up to 3 ms in these workloads on a four-core host), so it
/// samples sparingly.
class HeapPeak {
 public:
  HeapPeak();
  ~HeapPeak();
  HeapPeak(const HeapPeak&) = delete;
  HeapPeak& operator=(const HeapPeak&) = delete;

  /// The largest sample so far, in MiB.
  [[nodiscard]] double mib() const;

 private:
  void sample();

  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> peak_{0};
  std::thread thread_;
};

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values);
/// Linear-interpolated percentile, p in [0, 100]; 0 for empty input.
double pct(std::vector<double> values, double p);
double mean(const std::vector<double>& values);

/// `s` with quotes and backslashes escaped for a JSON string.
std::string jsonEscape(const std::string& s);

/// HPL-AI effective flop count of an order-n solve, (2/3)n^3 + (3/2)n^2.
double hplaiFlops(double n);

/// Runs a workload's set-up round repeatedly (at least 3 times, then until
/// the rounds took a second in total or 15 ran) and returns the round
/// times. The state the last round leaves is what the run measures.
template <typename Round>
std::vector<double> setupRounds(Round&& round) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < 3 || (total < 1.0 && times.size() < 15)) {
    const double t0 = sinceStart();
    round();
    times.push_back(sinceStart() - t0);
    total += times.back();
  }
  return times;
}

// --- seeded inputs ----------------------------------------------------------

/// SplitMix64: a tiny, fully specified generator, so the same seed gives
/// the same inputs on every toolchain.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in (0, 1).
  double uniform();
  /// Exponential inter-arrival gap of a Poisson process with `rate`.
  double exponential(double rate);

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1 (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Derives an independent stream seed from the run seed and a label.
std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t label);

// --- spans ------------------------------------------------------------------

/// One timed interval recorded by the driver around a call into a layer.
/// `group` ties together the spans of one solve or one request; `parent`
/// is the span id of the enclosing span (0 = root). A span with tid < 0 is
/// asynchronous (requests overlap in time) and is written as a
/// begin/end pair keyed by its group.
struct Span {
  std::string name;
  std::string cat;
  double startUs = 0.0;
  double endUs = 0.0;
  std::uint64_t id = 0;
  std::uint64_t group = 0;
  std::uint64_t parent = 0;
  int tid = 0;
  std::string args;  // extra JSON members, without braces
};

/// Thread-safe in-memory span store; disabled recorders drop everything,
/// so untraced runs pay one branch per call site.
class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  /// Microseconds since process start, the trace's time base.
  [[nodiscard]] static double nowUs() { return sinceStart() * 1e6; }

  /// Reserves a span id (so children can name a parent recorded later).
  std::uint64_t reserve();
  /// Records a finished span; returns its id (0 when disabled).
  std::uint64_t add(Span span);
  [[nodiscard]] std::size_t size() const;

  /// Writes Chrome trace-event JSON (opens in Perfetto / chrome://tracing).
  void writeChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t nextId_ = 1;
};

// --- workloads --------------------------------------------------------------

/// Each runs one workload for opts.seconds and fills `out`: end-to-end
/// metrics when untraced, per-layer metrics when traced.
void runLu(const Options& opts, Spans& spans, RunResult& out);
void runServe(const Options& opts, Spans& spans, RunResult& out);
void runFleetsim(const Options& opts, Spans& spans, RunResult& out);

}  // namespace perfbench
