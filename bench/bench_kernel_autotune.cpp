// Kernel autotune bench: before/after comparison of the rewritten GEMM
// against the retained pre-rewrite kernel, plus the blocking sweep and the
// measured flop-rate ladders that calibrate the performance model.
//
// Usage: bench_kernel_autotune [N] [out.json] [sweepN]
//   N      problem size for the before/after measurement (default 256)
//   out    JSON results path (default BENCH_kernels.json); the tune table
//          is persisted next to it as <out minus .json>.tune.txt
//   sweepN blocking-sweep problem size (default min(N, 384) to keep the
//          27-candidate sweep affordable at large N)
//
// The CI kernel-bench job runs this at a small N and uploads the JSON so
// every change carries a measured GF/s record.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "blas/abft.h"
#include "blas/blas.h"
#include "blas/gemm_baseline.h"
#include "device/shim.h"
#include "fp16/half.h"
#include "perfmodel/autotune.h"
#include "perfmodel/kernel_model.h"
#include "util/thread_pool.h"
#include "util/timer.h"

using namespace hplmxp;

namespace {

void fill(half16* p, std::size_t count, std::uint32_t seed) {
  std::uint32_t s = seed;
  for (std::size_t i = 0; i < count; ++i) {
    s = s * 1664525u + 1013904223u;
    p[i] = half16(static_cast<float>(static_cast<std::int32_t>(s)) *
                  0x1p-31f);
  }
}

template <typename Fn>
double bestGflops(double flops, int reps, Fn&& fn) {
  fn();  // warmup
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return flops / best / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atol(argv[1]) : 256;
  const std::string outPath = argc > 2 ? argv[2] : "BENCH_kernels.json";
  const index_t sweepN =
      argc > 3 ? std::atol(argv[3]) : std::min<index_t>(n, 384);
  HPLMXP_REQUIRE(n > 0 && sweepN > 0, "sizes must be > 0");

  ThreadPool& pool = ThreadPool::global();
  bench::banner("Kernel autotune",
                "native GEMM before/after + blocking sweep + rate curves");
  std::printf("isa=%s  lanes=%lld  N=%lld  sweepN=%lld\n",
              blas::activeGemmKernel().name,
              static_cast<long long>(pool.laneCount()),
              static_cast<long long>(n), static_cast<long long>(sweepN));

  // --- Before/after: retained pre-rewrite kernel vs the BLIS-style one.
  const auto count = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  std::vector<half16> a(count);
  std::vector<half16> b(count);
  std::vector<float> c(count, 0.0f);
  fill(a.data(), count, 17);
  fill(b.data(), count, 29);
  const double flops = blas::gemmFlops(n, n, n);
  const int reps = n >= 1024 ? 2 : 3;

  const double beforeGf = bestGflops(flops, reps, [&] {
    blas::baseline::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kTrans, n,
                              n, n, -1.0f, a.data(), n, b.data(), n, 1.0f,
                              c.data(), n, &pool);
  });
  const double afterGf = bestGflops(flops, reps, [&] {
    blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kTrans, n, n, n,
                    -1.0f, a.data(), n, b.data(), n, 1.0f, c.data(), n,
                    &pool);
  });

  Table t({"kernel", "GF/s", "speedup"});
  t.addRow({"baseline (pre-rewrite)", Table::num(beforeGf, 2), "1.00x"});
  t.addRow({"blis-style rewrite", Table::num(afterGf, 2),
            Table::num(afterGf / beforeGf, 2) + "x"});
  t.print();

  // --- Blocking sweep (installs the winner process-wide).
  const GemmTuneResult tune = autotuneGemmBlocking(sweepN, &pool, 2);
  std::printf("\nsweep @ N=%lld: best mc=%lld nc=%lld kc=%lld  %.2f GF/s "
              "(default blocking: %.2f GF/s, %d candidates)\n",
              static_cast<long long>(sweepN),
              static_cast<long long>(tune.blocking.mc),
              static_cast<long long>(tune.blocking.nc),
              static_cast<long long>(tune.blocking.kc), tune.gflops,
              tune.baseline, tune.candidatesTried);

  // Re-measure the big problem under the tuned blocking.
  const double tunedGf = bestGflops(flops, reps, [&] {
    blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kTrans, n, n, n,
                    -1.0f, a.data(), n, b.data(), n, 1.0f, c.data(), n,
                    &pool);
  });
  std::printf("tuned blocking @ N=%lld: %.2f GF/s\n",
              static_cast<long long>(n), tunedGf);

  BlasShim shim(Vendor::kAmd, &pool);
  std::printf("active kernel config: %s\n", shim.kernelConfig().c_str());

  // --- ABFT overhead: the same tuned GEMM wrapped in the trailing-update
  // protection the factorization runs under abft.gemm (doc/ROBUSTNESS.md):
  // FP64 row sums of C before, carry-invariant check after. O(n^2) next to
  // the GEMM's O(n^3); the reliability story only holds if this stays
  // cheap at scale.
  std::vector<double> rowSums64(static_cast<std::size_t>(n));
  const double protectedGf = bestGflops(flops, reps, [&] {
    blas::abftRowSums64(n, n, c.data(), n, rowSums64.data());
    blas::gemmMixed(blas::Trans::kNoTrans, blas::Trans::kTrans, n, n, n,
                    -1.0f, a.data(), n, b.data(), n, 1.0f, c.data(), n,
                    &pool);
    const blas::AbftGemmCheck chk = blas::abftGemmCarryCheck(
        n, n, n, rowSums64.data(), a.data(), n, b.data(), n, c.data(), n);
    HPLMXP_REQUIRE(chk.ok, "clean GEMM must pass the ABFT carry check");
  });
  const double abftOverheadPct = (tunedGf / protectedGf - 1.0) * 100.0;

  // Panel checksum round-trip at the same N: checksum an N x 64 panel,
  // flip one bit, and require detect-and-correct to restore it exactly —
  // the measured record behind the "flip corrected under <10% overhead"
  // acceptance line.
  const index_t pb = std::min<index_t>(n, 64);
  std::vector<half16> panel(a.begin(),
                            a.begin() + static_cast<std::size_t>(n) * pb);
  std::vector<float> rowSums(static_cast<std::size_t>(n));
  std::vector<float> colSums(static_cast<std::size_t>(pb));
  const double checksumSeconds = [&] {
    Timer tm;
    blas::abftChecksum(n, pb, panel.data(), n, rowSums.data(),
                       colSums.data());
    return tm.seconds();
  }();
  const std::size_t victim = static_cast<std::size_t>(n) * (pb / 2) + n / 3;
  const std::uint16_t sentBits = panel[victim].bits();
  panel[victim] = half16::fromBits(sentBits ^ (1u << 9));
  const blas::AbftOutcome fix = blas::abftVerifyCorrect(
      n, pb, panel.data(), n, rowSums.data(), colSums.data());
  const bool flipCorrected =
      fix.status == blas::AbftOutcome::Status::kCorrected &&
      panel[victim].bits() == sentBits;
  HPLMXP_REQUIRE(flipCorrected, "single panel bit flip must be corrected");

  Table abft({"GEMM @ N", "plain GF/s", "ABFT-protected GF/s", "overhead",
              "panel flip"});
  abft.addRow({Table::num(static_cast<long long>(n)), Table::num(tunedGf, 2),
               Table::num(protectedGf, 2),
               Table::num(abftOverheadPct, 2) + "%",
               flipCorrected ? "corrected" : "NOT corrected"});
  std::printf("\n");
  abft.print();
  std::printf("panel checksum (%lldx%lld): %.3f ms\n",
              static_cast<long long>(n), static_cast<long long>(pb),
              checksumSeconds * 1e3);

  // --- Measured rate ladders feeding the performance model.
  std::vector<index_t> sizes{96, 192};
  if (sweepN > 192) {
    sizes.push_back(sweepN);
  }
  const MeasuredKernelCurves curves = measureKernelCurves(sizes, &pool, 2);
  Table ct({"size", "GEMM GF/s", "GETRF GF/s", "TRSM GF/s"});
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ct.addRow({Table::num(static_cast<long long>(sizes[i])),
               Table::num(curves.gemm[i].rate / 1e9, 2),
               Table::num(curves.getrf[i].rate / 1e9, 2),
               Table::num(curves.trsm[i].rate / 1e9, 2)});
  }
  std::printf("\n");
  ct.print();

  KernelModel model(MachineKind::kFrontier);
  model.calibrate(curves);
  const double modelGf =
      model.gemmRate(static_cast<double>(n), static_cast<double>(n),
                     static_cast<double>(n)) /
      1e9;
  std::printf("\ncalibrated model GEMM rate @ N=%lld: %.2f GF/s "
              "(measured: %.2f)\n",
              static_cast<long long>(n), modelGf, tunedGf);

  // --- Persist: JSON record + plain-text tune table.
  std::string tunePath = outPath;
  const std::size_t dot = tunePath.rfind(".json");
  if (dot != std::string::npos) {
    tunePath.resize(dot);
  }
  tunePath += ".tune.txt";
  if (!saveTuneTable(tunePath, tune, curves)) {
    std::fprintf(stderr, "failed to write %s\n", tunePath.c_str());
    return 1;
  }

  std::FILE* f = std::fopen(outPath.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to write %s\n", outPath.c_str());
    return 1;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"n\": %lld,\n", static_cast<long long>(n));
  std::fprintf(f, "  \"isa\": \"%s\",\n", blas::activeGemmKernel().name);
  std::fprintf(f, "  \"threads\": %lld,\n",
               static_cast<long long>(pool.laneCount()));
  std::fprintf(f, "  \"baseline_gflops\": %.3f,\n", beforeGf);
  std::fprintf(f, "  \"new_gflops\": %.3f,\n", afterGf);
  std::fprintf(f, "  \"tuned_gflops\": %.3f,\n", tunedGf);
  std::fprintf(f, "  \"speedup\": %.3f,\n", tunedGf / beforeGf);
  std::fprintf(f,
               "  \"tuned_blocking\": {\"mc\": %lld, \"nc\": %lld, "
               "\"kc\": %lld, \"sweep_n\": %lld, \"sweep_gflops\": %.3f},\n",
               static_cast<long long>(tune.blocking.mc),
               static_cast<long long>(tune.blocking.nc),
               static_cast<long long>(tune.blocking.kc),
               static_cast<long long>(sweepN), tune.gflops);
  std::fprintf(f, "  \"calibrated_model_gflops_at_n\": %.3f,\n", modelGf);
  std::fprintf(f,
               "  \"abft\": {\"gemm_gflops\": %.3f, "
               "\"protected_gflops\": %.3f, \"overhead_percent\": %.3f, "
               "\"panel_flip_corrected\": %s, "
               "\"panel_checksum_ms\": %.3f},\n",
               tunedGf, protectedGf, abftOverheadPct,
               flipCorrected ? "true" : "false", checksumSeconds * 1e3);
  auto curve = [&](const char* name, const std::vector<RateSample>& samples,
                   bool last) {
    std::fprintf(f, "  \"%s\": [", name);
    for (std::size_t i = 0; i < samples.size(); ++i) {
      std::fprintf(f, "%s{\"size\": %.0f, \"gflops\": %.3f}",
                   i == 0 ? "" : ", ", samples[i].size,
                   samples[i].rate / 1e9);
    }
    std::fprintf(f, "]%s\n", last ? "" : ",");
  };
  curve("gemm_curve", curves.gemm, false);
  curve("getrf_curve", curves.getrf, false);
  curve("trsm_curve", curves.trsm, true);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s and %s\n", outPath.c_str(), tunePath.c_str());
  return 0;
}
