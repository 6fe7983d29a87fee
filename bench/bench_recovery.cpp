// Recovery-cost benchmark: what incremental delta checkpoints cost — and
// save — against the full-copy-every-time baseline PR-5 shipped.
//
// One clean run with recovery off sets the wall-clock baseline, then an
// every-k sweep with recovery on measures, per cadence:
//   - checkpoint bytes raw (the dirty-tile XOR deltas before encoding),
//   - checkpoint bytes stored (after varint/RLE compression + CRC framing),
//   - the full-copy bytes the old scheme would have written for the same
//     number of checkpoints, and the resulting reduction factor,
//   - wall-clock overhead vs. the recovery-off baseline.
// A final run at the default cadence with recovery.compress off isolates
// the codec's contribution from the dirty-tracking's.
//
// Writes BENCH_recovery.json with the sweep and the headline
// reduction_vs_full_copy at the default cadence (the >= 4x target CI
// tracks).
//
// Usage: bench_recovery [n] [out.json]
//   n    problem size, multiple of 32 (default 512; smoke runs use 256)
//   out  JSON results path (default BENCH_recovery.json)
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/hplai.h"
#include "simmpi/recovery.h"
#include "util/table.h"
#include "util/timer.h"

namespace hplmxp {
namespace {

constexpr index_t kBlock = 16;
constexpr index_t kDefaultEveryK = 8;

struct SweepPoint {
  index_t everyK = 0;
  simmpi::RecoveryReport report;
  double seconds = 0.0;
  std::uint64_t fullCopyBytes = 0;  // checkpoints x per-rank local matrix
  double compressionRatio = 0.0;    // raw delta / stored
  double reductionVsFullCopy = 0.0; // full copy / stored, whole run
  // The acceptance metric: same ratio over steady-state checkpoints only
  // (second half of the factorization, past the warm-up generations whose
  // dirty region still spans most of the matrix).
  double steadyReduction = 0.0;
  double overheadPct = 0.0;
};

HplaiConfig baseConfig(index_t n) {
  HplaiConfig cfg;
  cfg.n = n;
  cfg.b = kBlock;
  cfg.pr = 2;
  cfg.pc = 2;
  cfg.seed = 20220521;  // the paper's SC'22 vintage
  cfg.lookahead = false;  // recovery requires deterministic step replay
  return cfg;
}

/// One recovery-on run (no faults): stats + wall seconds.
SweepPoint measure(index_t n, index_t everyK, bool compress,
                   double baselineSeconds) {
  HplaiConfig cfg = baseConfig(n);
  cfg.recovery.enabled = true;
  cfg.recovery.checkpointEveryK = everyK;
  cfg.recovery.compressCheckpoints = compress;
  cfg.recoveryStats = std::make_shared<simmpi::RecoveryStats>();
  Timer clock;
  const HplaiResult r = runHplai(cfg);
  SweepPoint p;
  p.everyK = everyK;
  p.seconds = clock.seconds();
  if (!r.converged) {
    std::fprintf(stderr, "bench_recovery: every-k %lld run did not converge\n",
                 static_cast<long long>(everyK));
    std::exit(1);
  }
  p.report = simmpi::snapshotRecovery(*cfg.recoveryStats);
  const std::uint64_t localBytes =
      static_cast<std::uint64_t>(n / cfg.pr) *
      static_cast<std::uint64_t>(n / cfg.pc) * sizeof(float);
  p.fullCopyBytes = p.report.checkpoints * localBytes;
  p.compressionRatio =
      p.report.checkpointBytesStored > 0
          ? static_cast<double>(p.report.checkpointBytesCopied) /
                static_cast<double>(p.report.checkpointBytesStored)
          : 0.0;
  p.reductionVsFullCopy =
      p.report.checkpointBytesStored > 0
          ? static_cast<double>(p.fullCopyBytes) /
                static_cast<double>(p.report.checkpointBytesStored)
          : 0.0;
  p.steadyReduction =
      p.report.steadyBytesStored > 0
          ? static_cast<double>(p.report.steadyCheckpoints * localBytes) /
                static_cast<double>(p.report.steadyBytesStored)
          : 0.0;
  p.overheadPct = baselineSeconds > 0.0
                      ? 100.0 * (p.seconds - baselineSeconds) / baselineSeconds
                      : 0.0;
  return p;
}

void writeJson(const std::string& path, index_t n, double baselineSeconds,
               const std::vector<SweepPoint>& sweep,
               const SweepPoint& compressOff) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_recovery: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  double defaultReduction = 0.0;
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"recovery\",\n");
  std::fprintf(f, "  \"n\": %lld,\n", static_cast<long long>(n));
  std::fprintf(f, "  \"b\": %lld,\n", static_cast<long long>(kBlock));
  std::fprintf(f, "  \"grid\": \"2x2\",\n");
  std::fprintf(f, "  \"default_every_k\": %lld,\n",
               static_cast<long long>(kDefaultEveryK));
  std::fprintf(f, "  \"baseline_seconds\": %.6f,\n", baselineSeconds);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    if (p.everyK == kDefaultEveryK) {
      defaultReduction = p.steadyReduction;
    }
    std::fprintf(f,
                 "    {\"every_k\": %lld, \"checkpoints\": %llu, "
                 "\"raw_delta_bytes\": %llu, \"stored_bytes\": %llu, "
                 "\"full_copy_bytes\": %llu, \"compression_ratio\": %.3f, "
                 "\"reduction_vs_full_copy\": %.3f, "
                 "\"steady_state_checkpoints\": %llu, "
                 "\"steady_state_stored_bytes\": %llu, "
                 "\"steady_state_reduction\": %.3f, \"seconds\": %.6f, "
                 "\"overhead_pct\": %.2f}%s\n",
                 static_cast<long long>(p.everyK),
                 static_cast<unsigned long long>(p.report.checkpoints),
                 static_cast<unsigned long long>(p.report.checkpointBytesCopied),
                 static_cast<unsigned long long>(p.report.checkpointBytesStored),
                 static_cast<unsigned long long>(p.fullCopyBytes),
                 p.compressionRatio, p.reductionVsFullCopy,
                 static_cast<unsigned long long>(p.report.steadyCheckpoints),
                 static_cast<unsigned long long>(p.report.steadyBytesStored),
                 p.steadyReduction, p.seconds,
                 p.overheadPct, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"compress_off_stored_bytes\": %llu,\n",
               static_cast<unsigned long long>(
                   compressOff.report.checkpointBytesStored));
  std::fprintf(f, "  \"steady_state_definition\": "
               "\"checkpoints in the second half of the factorization\",\n");
  std::fprintf(f, "  \"default_steady_state_reduction\": %.3f,\n",
               defaultReduction);
  std::fprintf(f, "  \"meets_4x_target\": %s\n",
               defaultReduction >= 4.0 ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int run(index_t n, const std::string& outPath) {
  bench::banner("BENCH recovery",
                "incremental checkpoint bytes and overhead vs. cadence");
  std::printf("N=%lld B=%lld grid=2x2 (default every-k %lld)\n\n",
              static_cast<long long>(n), static_cast<long long>(kBlock),
              static_cast<long long>(kDefaultEveryK));

  Timer clock;
  const HplaiResult base = runHplai(baseConfig(n));
  const double baselineSeconds = clock.seconds();
  if (!base.converged) {
    std::fprintf(stderr, "bench_recovery: baseline did not converge\n");
    return 1;
  }
  std::printf("baseline (recovery off): %.3f s\n\n", baselineSeconds);

  std::vector<SweepPoint> sweep;
  for (index_t everyK : {1, 2, 4, 8}) {
    sweep.push_back(measure(n, everyK, /*compress=*/true, baselineSeconds));
  }
  const SweepPoint compressOff =
      measure(n, kDefaultEveryK, /*compress=*/false, baselineSeconds);

  Table table({"every-k", "ckpts", "raw delta MB", "stored MB",
               "full-copy MB", "codec x", "vs full-copy x", "steady x",
               "overhead %"});
  for (const SweepPoint& p : sweep) {
    table.addRow({Table::num(static_cast<long long>(p.everyK)),
                  Table::num(static_cast<long long>(p.report.checkpoints)),
                  Table::num(p.report.checkpointBytesCopied / 1048576.0, 3),
                  Table::num(p.report.checkpointBytesStored / 1048576.0, 3),
                  Table::num(p.fullCopyBytes / 1048576.0, 3),
                  Table::num(p.compressionRatio, 2),
                  Table::num(p.reductionVsFullCopy, 2),
                  Table::num(p.steadyReduction, 2),
                  Table::num(p.overheadPct, 1)});
  }
  table.print();
  std::printf("\ncompress off at every-k %lld: stored %.3f MB (vs %.3f MB "
              "compressed)\n",
              static_cast<long long>(kDefaultEveryK),
              compressOff.report.checkpointBytesStored / 1048576.0,
              sweep.back().report.checkpointBytesStored / 1048576.0);

  const double headline = sweep.back().steadyReduction;
  std::printf("headline: %.2fx fewer steady-state checkpoint bytes than "
              "full-copy at default cadence (target >= 4x): %s\n",
              headline, headline >= 4.0 ? "PASS" : "MISS");
  writeJson(outPath, n, baselineSeconds, sweep, compressOff);
  std::printf("wrote %s\n", outPath.c_str());
  return 0;
}

}  // namespace
}  // namespace hplmxp

int main(int argc, char** argv) {
  const long long n = argc > 1 ? std::atoll(argv[1]) : 512;
  const std::string out = argc > 2 ? argv[2] : "BENCH_recovery.json";
  if (n < 64 || n % 32 != 0) {
    std::fprintf(stderr, "bench_recovery: n must be a multiple of 32, >= 64\n");
    return 1;
  }
  return hplmxp::run(static_cast<hplmxp::index_t>(n), out);
}
