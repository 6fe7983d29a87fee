#include "bench.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <stdexcept>

#include "core/config.h"

namespace perfbench {

void RunResult::check(bool ok, const std::string& what) {
  if (!ok) {
    correct = false;
    checkFailures.push_back(what);
  }
}

namespace {
// Initialised before main() runs: the closest in-process stamp of process
// start, which set-up time is measured from.
const SteadyClock::time_point gStart = SteadyClock::now();
}  // namespace

double sinceStart() {
  return std::chrono::duration<double>(SteadyClock::now() - gStart).count();
}

SteadyClock::time_point startPlus(double seconds) {
  return gStart + std::chrono::duration_cast<SteadyClock::duration>(
                      std::chrono::duration<double>(seconds));
}

double peakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

HeapPeak::HeapPeak() {
  sample();
  thread_ = std::thread([this] {
    while (!stop_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      sample();
    }
  });
}

HeapPeak::~HeapPeak() {
  stop_ = true;
  thread_.join();
}

void HeapPeak::sample() {
  const struct mallinfo2 info = mallinfo2();
  const std::size_t live = info.uordblks + info.hblkhd;
  std::size_t peak = peak_.load(std::memory_order_relaxed);
  while (live > peak && !peak_.compare_exchange_weak(peak, live)) {
  }
}

double HeapPeak::mib() const {
  return static_cast<double>(peak_.load()) / (1024.0 * 1024.0);
}

double pct(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return pct(std::move(values), 50.0);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return sum / static_cast<double>(values.size());
}

double hplaiFlops(double n) {
  hplmxp::HplaiResult r;
  r.n = static_cast<hplmxp::index_t>(n);
  return r.effectiveFlops();
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::uniform() {
  // 53 random mantissa bits, shifted off zero so log() stays finite.
  return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
}

double Rng::exponential(double rate) { return -std::log(uniform()) / rate; }

Zipf::Zipf(std::size_t n, double s) : cdf_(n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = sum;
  }
  for (double& c : cdf_) {
    c /= sum;
  }
}

std::size_t Zipf::draw(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                  cdf_.size() - 1);
}

std::uint64_t deriveSeed(std::uint64_t seed, std::uint64_t label) {
  Rng rng(seed * 0x100000001b3ULL ^ label);
  return rng.next();
}

std::uint64_t Spans::reserve() {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return nextId_++;
}

std::uint64_t Spans::add(Span span) {
  if (!enabled_) {
    return 0;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (span.id == 0) {
    span.id = nextId_++;
  }
  const std::uint64_t id = span.id;
  spans_.push_back(std::move(span));
  return id;
}

std::size_t Spans::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

void Spans::writeChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream os(path);
  if (!os) {
    throw std::runtime_error("cannot write " + path);
  }
  os.precision(15);
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool first = true;
  auto emit = [&](const Span& s, const char* ph, double ts, bool withDur) {
    os << (first ? "" : ",\n") << "{\"name\": \"" << jsonEscape(s.name)
       << "\", \"cat\": \"" << jsonEscape(s.cat) << "\", \"ph\": \"" << ph
       << "\", \"ts\": " << ts << ", \"pid\": 1, \"tid\": "
       << (s.tid < 0 ? 0 : s.tid);
    if (withDur) {
      os << ", \"dur\": " << (s.endUs - s.startUs);
    }
    if (s.tid < 0) {
      os << ", \"id\": \"0x" << std::hex << s.group << std::dec << "\"";
    }
    os << ", \"args\": {\"span\": " << s.id << ", \"parent\": " << s.parent
       << ", \"group\": " << s.group;
    if (!s.args.empty()) {
      os << ", " << s.args;
    }
    os << "}}";
    first = false;
  };
  for (const Span& s : spans_) {
    if (s.tid >= 0) {
      emit(s, "X", s.startUs, true);
    } else {
      emit(s, "b", s.startUs, false);
      emit(s, "e", s.endUs, false);
    }
  }
  os << "\n]}\n";
}

}  // namespace perfbench
