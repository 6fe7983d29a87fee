#include "cli/commands.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include <fstream>
#include <iostream>

#include "blas/scan.h"
#include "core/hpl_dist.h"
#include "fleetsim/debug_cli.h"
#include "fleetsim/fleet_sim.h"
#include "core/hplai.h"
#include "core/precision_ladder.h"
#include "core/single_solver.h"
#include "core/verify.h"
#include "serve/engine.h"
#include "serve/fleet/fleet.h"
#include "serve/trace_io.h"
#include "device/shim.h"
#include "machine/variability.h"
#include "perfmodel/param_search.h"
#include "scalesim/scale_sim.h"
#include "simmpi/faults.h"
#include "simmpi/runtime.h"
#include "trace/progress.h"
#include "trace/reference.h"
#include "trace/slow_node.h"
#include "util/logging.h"
#include "util/table.h"
#include "util/timer.h"

namespace hplmxp::cli {

namespace {

/// Layers config file (--config) under the command-line options and
/// applies the global --verbose / --quiet switches.
Options layered(const Options& cmdline) {
  Options merged = cmdline;
  if (cmdline.has("config")) {
    merged = Options::parseFile(cmdline.getString("config", ""));
    merged.merge(cmdline);
  }
  if (merged.getBool("verbose", false)) {
    Log::setLevel(LogLevel::kInfo);
  } else if (merged.getBool("quiet", false)) {
    Log::setLevel(LogLevel::kError);
  }
  return merged;
}

void warnUnused(const Options& opts) {
  for (const std::string& key : opts.unusedKeys()) {
    std::fprintf(stderr, "warning: unused option --%s\n", key.c_str());
  }
}

MachineKind machineFrom(const Options& opts) {
  const std::string name = opts.getString("machine", "frontier");
  if (name == "summit") {
    return MachineKind::kSummit;
  }
  HPLMXP_REQUIRE(name == "frontier", "machine must be summit or frontier");
  return MachineKind::kFrontier;
}

}  // namespace

int cmdRun(const Options& raw) {
  const Options opts = layered(raw);
  HplaiConfig cfg;
  cfg.n = opts.getInt("n", 512);
  cfg.b = opts.getInt("b", 64);
  cfg.pr = opts.getInt("pr", 2);
  cfg.pc = opts.getInt("pc", 2);
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));
  cfg.panelBcast =
      simmpi::bcastStrategyFromString(opts.getString("bcast", "ring2m"));
  cfg.lookahead = opts.getBool("lookahead", true);
  cfg.collectTrace = opts.getBool("trace", false);
  cfg.refiner = opts.getString("refiner", "ir") == "gmres"
                    ? HplaiConfig::Refiner::kGmres
                    : HplaiConfig::Refiner::kClassicIr;
  cfg.vendor =
      opts.getString("vendor", "amd") == "nvidia" ? Vendor::kNvidia
                                                  : Vendor::kAmd;
  const bool warmup = opts.getBool("warmup", false);
  const std::string saveReference = opts.getString("save-reference", "");
  const std::string reference = opts.getString("reference", "");
  if (!saveReference.empty()) {
    cfg.collectTrace = true;  // the reference IS the recorded trace
  }
  if (!reference.empty()) {
    // Monitor this run against the recorded healthy run and terminate it
    // early if it falls behind (Sec. VI-B).
    auto monitor = std::make_shared<ProgressMonitor>(
        ProgressPolicy{.slowdownFactor = opts.getDouble("slowdown", 3.0),
                       .strikes = opts.getInt("strikes", 3)},
        referenceFromTrace(loadReferenceTrace(reference)));
    cfg.progressCallback = [monitor](index_t k, double seconds) {
      return monitor->observe(k, seconds) == ProgressVerdict::kTerminate;
    };
  }
  warnUnused(opts);

  // Sec. III-C: adjust N to a multiple of Pr, Pc and B.
  const index_t adjusted = adjustProblemSize(cfg.n, cfg.b, cfg.pr, cfg.pc);
  if (adjusted != cfg.n) {
    std::printf("adjusting N: %lld -> %lld (multiple of B*lcm(Pr,Pc))\n",
                (long long)cfg.n, (long long)adjusted);
    cfg.n = adjusted;
  }

  if (warmup) {
    // Finding 10: run the mini-benchmark first to warm caches/clocks.
    const double rate = runMiniBenchmark(std::min<index_t>(cfg.n, 256),
                                         std::min<index_t>(cfg.b, 64),
                                         cfg.vendor, cfg.seed);
    std::printf("warm-up mini-benchmark: %.2f GFLOP/s\n", rate / 1e9);
  }

  std::printf("hplmxp run: N=%lld B=%lld grid=%lldx%lld bcast=%s "
              "refiner=%s\n",
              (long long)cfg.n, (long long)cfg.b, (long long)cfg.pr,
              (long long)cfg.pc, simmpi::toString(cfg.panelBcast).c_str(),
              cfg.refiner == HplaiConfig::Refiner::kGmres ? "gmres" : "ir");

  std::vector<double> x;
  const HplaiResult r = runHplai(cfg, &x);
  if (r.aborted) {
    std::printf("RUN ABORTED by the progress monitor after %.3f s — the "
                "run fell behind the recorded reference.\n",
                r.factorSeconds);
    return 3;
  }
  const ProblemGenerator gen(cfg.seed, cfg.n);
  const bool valid = hplaiValid(gen, x);
  if (!saveReference.empty()) {
    saveReferenceTrace(saveReference, r.trace);
    std::printf("saved per-iteration reference trace to %s (%zu steps)\n",
                saveReference.c_str(), r.trace.size());
  }

  Table t({"metric", "value"});
  t.addRow({"factor seconds", Table::num(r.factorSeconds, 4)});
  t.addRow({"refine seconds", Table::num(r.irSeconds, 4)});
  t.addRow({"GFLOP/s (HPL-AI convention)", Table::num(r.gflopsTotal(), 2)});
  t.addRow({"refinement iterations", Table::num((long long)r.irIterations)});
  t.addRow({"residual", Table::sci(r.residualInf)});
  t.addRow({"threshold", Table::sci(r.threshold)});
  t.addRow({"converged", r.converged ? "yes" : "NO"});
  t.addRow({"verified (dense FP64)", valid ? "yes" : "NO"});
  t.print();

  if (!r.trace.empty()) {
    // Fig. 10-style progress report from the recorded per-iteration data.
    std::printf("\nper-iteration breakdown (rank 0):\n");
    const ProgressMonitor reporter(ProgressPolicy{}, nullptr);
    const std::size_t step = std::max<std::size_t>(1, r.trace.size() / 12);
    for (std::size_t k = 0; k < r.trace.size(); k += step) {
      std::printf("%s\n", reporter.reportLine(r.trace[k]).c_str());
    }
  }
  return r.converged && valid ? 0 : 1;
}

int cmdHpl(const Options& raw) {
  const Options opts = layered(raw);
  HplDistConfig cfg;
  cfg.n = opts.getInt("n", 384);
  cfg.b = opts.getInt("b", 32);
  cfg.pr = opts.getInt("pr", 2);
  cfg.pc = opts.getInt("pc", 2);
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));
  cfg.diagShift = opts.getDouble("diag-shift", -1.0);
  cfg.panelBcast =
      simmpi::bcastStrategyFromString(opts.getString("bcast", "bcast"));
  warnUnused(opts);

  std::printf("hplmxp hpl (FP64, pivoted): N=%lld B=%lld grid=%lldx%lld\n",
              (long long)cfg.n, (long long)cfg.b, (long long)cfg.pr,
              (long long)cfg.pc);
  const HplDistResult r = runHplDist(cfg);
  Table t({"metric", "value"});
  t.addRow({"factor seconds", Table::num(r.factorSeconds, 4)});
  t.addRow({"solve seconds", Table::num(r.solveSeconds, 4)});
  t.addRow({"GFLOP/s (HPL convention)", Table::num(r.gflops(), 2)});
  t.addRow({"row interchanges", Table::num((long long)r.rowSwaps)});
  t.addRow({"scaled residual", Table::num(r.scaledResidual, 4)});
  t.addRow({"passes (< 16)", r.passed() ? "yes" : "NO"});
  t.print();
  return r.passed() ? 0 : 1;
}

int cmdProject(const Options& raw) {
  const Options opts = layered(raw);
  ScaleSimConfig cfg;
  cfg.machine = machineFrom(opts);
  const bool summit = cfg.machine == MachineKind::kSummit;
  cfg.nl = opts.getInt("nl", summit ? 61440 : 119808);
  cfg.b = opts.getInt("b", summit ? 768 : 3072);
  cfg.pr = opts.getInt("pr", summit ? 162 : 172);
  cfg.pc = opts.getInt("pc", cfg.pr);
  cfg.qr = opts.getInt("qr", summit ? 3 : 4);
  cfg.qc = opts.getInt("qc", 2);
  cfg.gridOrder = opts.getBool("col-major", false)
                      ? GridOrder::kColumnMajor
                      : GridOrder::kNodeLocal;
  cfg.strategy = simmpi::bcastStrategyFromString(
      opts.getString("bcast", summit ? "bcast" : "ring2m"));
  cfg.lookahead = opts.getBool("lookahead", true);
  cfg.portBinding = opts.getBool("port-binding", true);
  cfg.gpuAwareMpi = opts.getBool("gpu-aware", true);
  cfg.slowestGcdMultiplier = opts.getDouble("slowest-gcd", 0.97);
  warnUnused(opts);

  const ScaleSimResult r = simulateRun(cfg);
  Table t({"metric", "value"});
  t.addRow({"machine", toString(cfg.machine)});
  t.addRow({"N", Table::num((long long)r.n)});
  t.addRow({"GCDs", Table::num((long long)r.ranks)});
  t.addRow({"factor seconds", Table::num(r.factorSeconds, 1)});
  t.addRow({"refine seconds", Table::num(r.irSeconds, 1)});
  t.addRow({"EFLOPS", Table::num(r.exaflops, 3)});
  t.addRow({"TF per GCD", Table::num(r.ratePerGcd / 1e12, 2)});
  t.addRow({"comm-bound iterations",
            Table::num(r.commBoundFraction * 100.0, 1) + "%"});
  t.print();
  return 0;
}

int cmdTune(const Options& raw) {
  const Options opts = layered(raw);
  const MachineKind kind = machineFrom(opts);
  const bool summit = kind == MachineKind::kSummit;
  const index_t pr = opts.getInt("pr", summit ? 54 : 32);
  const index_t nl = opts.getInt("nl", summit ? 61440 : 119808);
  const double nbb = opts.getDouble("nbb", summit ? 4e9 : 8e9);
  warnUnused(opts);

  const KernelModel kernels(kind);
  ModelInput in{.n = nl * pr, .b = 0, .pr = pr, .pc = pr, .nbb = nbb};
  const BSearchResult r = searchBlockSize(kernels, in);
  Table t({"B", "Eq.3 GF/GCD", "GETRF/GEMM", "admissible"});
  for (const BSearchEntry& e : r.entries) {
    t.addRow({Table::num((long long)e.b), Table::num(e.ratePerGcd / 1e9, 0),
              Table::num(e.getrfOverGemm * 100.0, 1) + "%",
              e.admissible ? "yes" : "no"});
  }
  t.print();
  std::printf("selected B (paper heuristic): %lld\n", (long long)r.bestB);

  if (!summit) {
    const auto nls =
        searchLocalSize(kernels, r.bestB, pr, pr, nbb,
                        {116736, 119808, 122880});
    Table nt({"N_L", "GEMM rate (TF)", "projected GF/GCD", "LDA pathology"});
    for (const auto& e : nls) {
      nt.addRow({Table::num((long long)e.nl),
                 Table::num(e.gemmRateAtScale / 1e12, 1),
                 Table::num(e.ratePerGcd / 1e9, 0),
                 isPathologicalLda(e.nl) ? "yes" : "no"});
    }
    nt.print();
  }
  return 0;
}

int cmdScan(const Options& raw) {
  const Options opts = layered(raw);
  const index_t fleet = opts.getInt("fleet", 512);
  const double degraded = opts.getDouble("degraded", 0.01);
  const index_t n = opts.getInt("n", 256);
  const index_t b = opts.getInt("b", 64);
  warnUnused(opts);

  const double nominal = runMiniBenchmark(n, b, Vendor::kAmd);
  const GcdVariability model(VariabilityConfig{.seed = 0xF1EE7,
                                               .spread = 0.05,
                                               .slowFraction = degraded,
                                               .slowPenalty = 0.25});
  std::vector<double> rates;
  for (index_t i = 0; i < fleet; ++i) {
    rates.push_back(nominal * model.multiplier(i));
  }
  const ScanReport report = SlowNodeScanner().scan(rates);
  report.toTable().print();
  std::printf("pipeline pace gain after exclusion: %.1f%%\n",
              (report.keptMinRate / report.min - 1.0) * 100.0);
  return 0;
}

/// `hplmxp chaos --scenario ladder`: adversarial *conditioning* instead of
/// adversarial communication. Sweeps a matrix of conditioning regimes —
/// from the benchmark default down to barely-factorable — through the
/// adaptive precision controller and reports, per regime, the probe, the
/// rung trajectory, and the refinement outcome. A regime is contained
/// when the ladder delivers a converged HPL-AI-valid residual, whatever
/// rung or refiner it had to fall up to.
int runLadderChaos(const Options& opts) {
  const index_t n = opts.getInt("n", 256);
  const index_t b = opts.getInt("b", 32);
  const std::uint64_t seed =
      static_cast<std::uint64_t>(opts.getInt("seed", 42));
  const Vendor vendor = opts.getString("vendor", "amd") == "nvidia"
                            ? Vendor::kNvidia
                            : Vendor::kAmd;
  LadderPolicy policy;
  policy.maxIrIterationsPerRung = opts.getInt("max-ir", 25);
  policy.allowGmres = opts.getBool("gmres", true);
  policy.gmresRestart = opts.getInt("gmres-restart", 30);
  policy.gmresMaxOuter = opts.getInt("gmres-outer", 8);
  const std::string precision = opts.getString("precision", "auto");
  if (precision != "auto") {
    policy.forcedStart = lowp::precisionFromString(precision);
  }
  warnUnused(opts);
  HPLMXP_REQUIRE(n > 0 && b > 0 && n % b == 0,
                 "ladder scenario needs N a positive multiple of B");

  // The conditioning matrix: named regimes spanning the measured rung
  // cliffs (diagShift < 0 is the benchmark's +N dominant default).
  struct Regime {
    const char* name;
    double diagShift;
  };
  const Regime regimes[] = {
      {"dominant", -1.0},          // benchmark default: FP8 territory
      {"weak", 8.0},               // all rungs converge, slowly
      {"cliff", 4.0},              // FP8 diverges, bf16 slow, fp16 fine
      {"hostile", 3.0},            // fp16 IR diverges, GMRES-IR rescues
      {"extreme", 2.0},            // straight to the GMRES-IR path
  };

  std::printf("hplmxp chaos: scenario=ladder N=%lld B=%lld seed=%llu "
              "precision=%s\n",
              (long long)n, (long long)b, (unsigned long long)seed,
              precision.c_str());

  Table t({"regime", "dominance", "start", "final", "esc", "refiner",
           "iters", "converged", "residual/threshold"});
  bool allContained = true;
  for (const Regime& regime : regimes) {
    const ProblemGenerator gen(seed, n, regime.diagShift);
    const LadderResult r = solveLadderSingle(gen, b, vendor, policy);
    const RungAttempt* last =
        r.attempts.empty() ? nullptr : &r.attempts.back();
    index_t iters = 0;
    for (const RungAttempt& a : r.attempts) {
      iters += a.irIterations;
    }
    const double scaled =
        r.threshold > 0.0 ? r.residualInf / r.threshold : 0.0;
    t.addRow({regime.name, Table::num(r.probe.minDominance, 4),
              lowp::toString(r.startRung), lowp::toString(r.finalRung),
              Table::num((long long)r.escalations),
              last ? toString(last->refiner) : "-",
              Table::num((long long)iters), r.converged ? "yes" : "NO",
              Table::num(scaled, 3)});
    allContained = allContained && r.converged;
  }
  t.print();
  std::printf("ladder containment: %s\n",
              allContained ? "all regimes converged"
                           : "UNCONTAINED regime (no rung converged)");
  return allContained ? 0 : 1;
}

int cmdChaos(const Options& raw) {
  const Options opts = layered(raw);
  if (opts.getString("scenario", "transient") == "ladder") {
    return runLadderChaos(opts);
  }
  HplaiConfig cfg;
  cfg.n = opts.getInt("n", 256);
  cfg.b = opts.getInt("b", 32);
  cfg.pr = opts.getInt("pr", 2);
  cfg.pc = opts.getInt("pc", 2);
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 42));
  cfg.panelBcast =
      simmpi::bcastStrategyFromString(opts.getString("bcast", "bcast"));
  cfg.lookahead = opts.getBool("lookahead", false);
  cfg.refiner = opts.getString("refiner", "ir") == "gmres"
                    ? HplaiConfig::Refiner::kGmres
                    : HplaiConfig::Refiner::kClassicIr;
  cfg.guardPanels = opts.getBool("guard", true);
  cfg.irDivergenceStrikes = opts.getInt("ir-strikes", 4);
  // Recovery/ABFT knobs (the recovery.* / abft.* conf keys). Off by
  // default: chaos is the observe-the-failure command; `hplmxp recover`
  // turns them all on.
  cfg.recovery.enabled = opts.getBool("recovery.enabled", false);
  cfg.recovery.checkpointEveryK = opts.getInt("recovery.every-k", 8);
  cfg.recovery.maxResurrections =
      opts.getInt("recovery.max-resurrections", 8);
  cfg.recovery.compressCheckpoints = opts.getBool("recovery.compress", true);
  cfg.recovery.verifyCheckpoints = opts.getBool("recovery.verify", true);
  cfg.abftPanels = opts.getBool("abft.panels", false);
  cfg.abftGemm = opts.getBool("abft.gemm", false);
  if (cfg.recovery.enabled || cfg.abftPanels || cfg.abftGemm) {
    cfg.recoveryStats = std::make_shared<simmpi::RecoveryStats>();
  }
  cfg.n = adjustProblemSize(cfg.n, cfg.b, cfg.pr, cfg.pc);

  const std::string scenario = opts.getString("scenario", "transient");
  const std::uint64_t faultSeed =
      static_cast<std::uint64_t>(opts.getInt("fault-seed", 0xC4A05));
  simmpi::RunOptions runOpts;
  runOpts.timeout =
      std::chrono::milliseconds(opts.getInt("timeout-ms", 2000));
  runOpts.sendMaxRetries = static_cast<int>(opts.getInt("retries", 5));
  runOpts.sendBackoff =
      std::chrono::microseconds(opts.getInt("backoff-us", 50));
  runOpts.replayLog = cfg.recovery.enabled;
  const bool detectSlow =
      opts.getBool("detect-slow", cfg.worldSize() > 1);
  warnUnused(opts);

  const simmpi::FaultConfig fault =
      simmpi::faultScenario(scenario, faultSeed, cfg.worldSize());
  if (fault.anyEnabled()) {
    runOpts.faults =
        std::make_shared<simmpi::FaultInjector>(fault, cfg.worldSize());
  }

  // Mid-run slow-rank detection: evaluated on rank 0 against the per-rank
  // barrier waits DistLU gathers each step.
  auto slowMonitor = std::make_shared<SlowRankMonitor>(
      cfg.worldSize(),
      SlowRankPolicy{.minLagSeconds = opts.getDouble("min-lag", 0.002),
                     .medianFactor = 4.0,
                     .strikes = opts.getInt("slow-strikes", 3)});
  if (detectSlow) {
    cfg.rankProgressCallback = [slowMonitor](
                                   index_t k,
                                   const std::vector<double>& waits) {
      return slowMonitor->observe(k, waits);
    };
  }

  std::printf("hplmxp chaos: scenario=%s N=%lld B=%lld grid=%lldx%lld "
              "guard=%s timeout=%lldms\n",
              scenario.c_str(), (long long)cfg.n, (long long)cfg.b,
              (long long)cfg.pr, (long long)cfg.pc,
              cfg.guardPanels ? "on" : "off",
              (long long)runOpts.timeout.count());

  // Run the distributed solve under the fault plan, catching the whole
  // failure picture: a contained fault (detected, self-healed, or cleanly
  // aggregated) is a chaos-harness success.
  HplaiResult result;
  std::vector<double> x;
  bool completed = false;
  std::string outcome = "completed";
  std::vector<std::string> failureLines;
  Timer wall;
  try {
    simmpi::run(
        cfg.worldSize(),
        [&](simmpi::Comm& world) {
          std::vector<double> local;
          HplaiResult r = runHplaiOnComm(world, cfg, &local);
          if (world.rank() == 0) {
            result = std::move(r);
            x = std::move(local);
          }
        },
        runOpts);
    completed = true;
  } catch (const simmpi::MultiRankError& e) {
    outcome = e.partitioned() ? "network partition (aggregated timeouts)"
                              : "multi-rank failure (aggregated)";
    if (e.partitioned()) {
      failureLines.push_back(
          "partition at rank boundary " +
          std::to_string(e.partitionBoundary()) + " dropped " +
          std::to_string(e.partitionDrops()) + " sends");
    }
    for (const simmpi::RankFailure& f : e.failures()) {
      failureLines.push_back("rank " + std::to_string(f.rank) + ": " +
                             f.message);
    }
  } catch (const blas::AbnormalValueError& e) {
    outcome = "corruption detected (fail-fast guard)";
    failureLines.push_back(e.what());
  } catch (const simmpi::CommError& e) {
    outcome = "communication failure (structured)";
    failureLines.push_back(e.what());
  } catch (const CheckError& e) {
    outcome = "rank failure (structured)";
    failureLines.push_back(e.what());
  }
  const double elapsed = wall.seconds();

  bool verified = false;
  if (completed && !result.aborted && result.converged) {
    const ProblemGenerator gen(cfg.seed, cfg.n);
    verified = hplaiValid(gen, x);
  }
  if (completed && result.aborted) {
    outcome = "terminated early (slow-rank monitor)";
  } else if (completed && result.fellBackToGmres) {
    outcome = "self-healed (IR diverged, fell back to GMRES)";
  } else if (completed && !result.converged) {
    outcome = "completed WITHOUT convergence";
  }

  const simmpi::FaultStats stats =
      runOpts.faults ? runOpts.faults->stats() : simmpi::FaultStats{};
  Table t({"metric", "value"});
  t.addRow({"scenario", scenario});
  t.addRow({"outcome", outcome});
  t.addRow({"wall seconds", Table::num(elapsed, 3)});
  t.addRow({"injected delays", Table::num((long long)stats.delays)});
  t.addRow({"injected stalls", Table::num((long long)stats.stalls)});
  t.addRow({"transient send failures",
            Table::num((long long)stats.transientFailures)});
  t.addRow({"send retries", Table::num((long long)stats.retries)});
  t.addRow({"payload bit flips", Table::num((long long)stats.bitflips)});
  t.addRow({"rank crashes", Table::num((long long)stats.crashes)});
  t.addRow({"partition-dropped sends",
            Table::num((long long)stats.partitionDrops)});
  t.addRow({"checkpoint corruptions",
            Table::num((long long)stats.checkpointCorruptions)});
  if (completed) {
    t.addRow({"converged", result.converged ? "yes" : "NO"});
    t.addRow({"verified (dense FP64)", verified ? "yes" : "NO"});
    t.addRow({"refinement iterations",
              Table::num((long long)result.irIterations)});
    t.addRow({"fell back to GMRES",
              result.fellBackToGmres ? "yes" : "no"});
  }
  if (detectSlow) {
    const std::vector<index_t> slow = slowMonitor->slowRanks();
    std::string who;
    for (index_t r : slow) {
      who += (who.empty() ? "" : " ") + std::to_string(r);
    }
    t.addRow({"slow ranks flagged", slow.empty() ? "none" : who});
  }
  if (cfg.recoveryStats) {
    const simmpi::RecoveryReport rec =
        simmpi::snapshotRecovery(*cfg.recoveryStats);
    t.addRow({"ranks resurrected", Table::num((long long)rec.resurrections)});
    t.addRow({"nested resurrections",
              Table::num((long long)rec.nestedResurrections)});
    t.addRow({"checkpoints taken", Table::num((long long)rec.checkpoints)});
    t.addRow({"checkpoint bytes raw / stored",
              Table::num((long long)rec.checkpointBytesCopied) + " / " +
                  Table::num((long long)rec.checkpointBytesStored)});
    t.addRow({"ckpt generations discarded",
              Table::num((long long)rec.generationsDiscarded)});
    t.addRow({"steps replayed", Table::num((long long)rec.stepsReplayed)});
    t.addRow({"ABFT flips corrected",
              Table::num((long long)rec.flipsCorrected) + " of " +
                  Table::num((long long)rec.flipsDetected) + " detected"});
  }
  t.print();
  if (!failureLines.empty()) {
    std::printf("\nfailure report:\n");
    for (const std::string& line : failureLines) {
      std::printf("  %s\n", line.c_str());
    }
  }

  // A chaos run succeeds when the fault was absorbed (converged + verified)
  // or contained: detected by a guard, self-healed, terminated early, or
  // surfaced as a structured aggregate instead of a hang.
  const bool contained =
      !completed || result.aborted || (result.converged && verified);
  return contained ? 0 : 1;
}

int cmdRecover(const Options& raw) {
  const Options opts = layered(raw);
  HplaiConfig cfg;
  cfg.n = opts.getInt("n", 192);
  cfg.b = opts.getInt("b", 16);
  cfg.pr = opts.getInt("pr", 2);
  cfg.pc = opts.getInt("pc", 2);
  cfg.seed = static_cast<std::uint64_t>(opts.getInt("seed", 7321));
  cfg.panelBcast =
      simmpi::bcastStrategyFromString(opts.getString("bcast", "bcast"));
  // Recovery requires deterministic step replay: no look-ahead.
  cfg.lookahead = false;
  cfg.n = adjustProblemSize(cfg.n, cfg.b, cfg.pr, cfg.pc);
  cfg.recovery.enabled = opts.getBool("recovery.enabled", true);
  cfg.recovery.checkpointEveryK = opts.getInt("recovery.every-k", 4);
  cfg.recovery.maxResurrections =
      opts.getInt("recovery.max-resurrections", 8);
  cfg.recovery.compressCheckpoints = opts.getBool("recovery.compress", true);
  cfg.recovery.verifyCheckpoints = opts.getBool("recovery.verify", true);
  cfg.abftPanels = opts.getBool("abft.panels", true);
  cfg.abftGemm = opts.getBool("abft.gemm", true);

  const index_t crashRank = opts.getInt("crash-rank", 1);
  const auto crashAtOp =
      static_cast<std::uint64_t>(opts.getInt("crash-at-op", 30));
  // Multi-fault knobs: a second concurrent crash on a distinct rank, a
  // crash arriving during replay, and an injected checkpoint corruption.
  const index_t crashRank2 = opts.getInt("crash-rank2", -1);
  const auto crashAtOp2 =
      static_cast<std::uint64_t>(opts.getInt("crash-at-op2", 0));
  const index_t replayCrashRank = opts.getInt("replay-crash-rank", -1);
  const auto replayCrashAtOp =
      static_cast<std::uint64_t>(opts.getInt("replay-crash-at-op", 0));
  const index_t corruptCkptRank = opts.getInt("corrupt-ckpt-rank", -1);
  const auto corruptCkptGen =
      static_cast<std::uint64_t>(opts.getInt("corrupt-ckpt-gen", 0));
  const double flipProbability = opts.getDouble("flip-probability", 0.0);
  const std::uint64_t faultSeed =
      static_cast<std::uint64_t>(opts.getInt("fault-seed", 0xC4A05));
  const std::string jsonPath = opts.getString("json", "");
  warnUnused(opts);

  std::string extras;
  if (crashRank2 >= 0) {
    extras += " + crash rank " + std::to_string((long long)crashRank2) +
              " at op " + std::to_string((unsigned long long)crashAtOp2);
  }
  if (replayCrashRank >= 0) {
    extras += " + replay-time crash on rank " +
              std::to_string((long long)replayCrashRank);
  }
  if (corruptCkptRank >= 0) {
    extras += " + checkpoint corruption on rank " +
              std::to_string((long long)corruptCkptRank);
  }
  if (flipProbability > 0.0) {
    extras += " + panel bit flips";
  }
  std::printf("hplmxp recover: N=%lld B=%lld grid=%lldx%lld every-k=%lld "
              "crash rank %lld at op %llu%s\n",
              (long long)cfg.n, (long long)cfg.b, (long long)cfg.pr,
              (long long)cfg.pc, (long long)cfg.recovery.checkpointEveryK,
              (long long)crashRank, (unsigned long long)crashAtOp,
              extras.c_str());

  // One run = one closure over runHplaiOnComm; rank 0's solution is the
  // artifact the bitwise comparison is about.
  struct RunOutput {
    HplaiResult result;
    std::vector<double> solution;
  };
  const auto runOnce = [](const HplaiConfig& config,
                          std::shared_ptr<simmpi::FaultInjector> faults) {
    RunOutput out;
    simmpi::RunOptions ropts;
    ropts.faults = std::move(faults);
    ropts.replayLog = config.recovery.enabled;
    simmpi::run(
        config.worldSize(),
        [&](simmpi::Comm& world) {
          std::vector<double> local;
          HplaiResult r = runHplaiOnComm(world, config, &local);
          if (world.rank() == 0) {
            out.result = std::move(r);
            out.solution = std::move(local);
          }
        },
        ropts);
    return out;
  };

  // Fault-free baseline: same problem, no injector, no recovery machinery
  // (the contract is that recovery reproduces THIS run bit for bit).
  HplaiConfig baseCfg = cfg;
  baseCfg.recovery.enabled = false;
  baseCfg.abftPanels = false;
  baseCfg.abftGemm = false;
  Timer baseTimer;
  const RunOutput baseline = runOnce(baseCfg, nullptr);
  const double baseSeconds = baseTimer.seconds();

  // Faulted run: scheduled crash (and optional in-flight panel flips)
  // under the full recovery stack.
  simmpi::FaultConfig fault;
  fault.seed = faultSeed;
  fault.crashRank = crashRank;
  fault.crashAtOp = crashAtOp;
  fault.crashRank2 = crashRank2;
  fault.crashAtOp2 = crashAtOp2;
  fault.replayCrashRank = replayCrashRank;
  fault.replayCrashAtOp = replayCrashAtOp;
  fault.ckptCorruptRank = corruptCkptRank;
  fault.ckptCorruptOrdinal = corruptCkptGen;
  if (flipProbability > 0.0) {
    fault.bitflipProbability = flipProbability;
    fault.bitflipMinBytes = 2048;  // target bulk panel traffic
  }
  auto injector = std::make_shared<simmpi::FaultInjector>(
      fault, cfg.worldSize());
  cfg.recoveryStats = std::make_shared<simmpi::RecoveryStats>();
  Timer recTimer;
  const RunOutput recovered = runOnce(cfg, injector);
  const double recSeconds = recTimer.seconds();

  bool bitwise = baseline.solution.size() == recovered.solution.size();
  std::size_t firstDiff = 0;
  if (bitwise && !baseline.solution.empty()) {
    const int diff = std::memcmp(
        baseline.solution.data(), recovered.solution.data(),
        sizeof(double) * baseline.solution.size());
    bitwise = diff == 0;
    if (!bitwise) {
      while (firstDiff < baseline.solution.size() &&
             std::memcmp(&baseline.solution[firstDiff],
                         &recovered.solution[firstDiff],
                         sizeof(double)) == 0) {
        ++firstDiff;
      }
    }
  }
  bitwise = bitwise &&
            baseline.result.residualInf == recovered.result.residualInf &&
            baseline.result.irIterations == recovered.result.irIterations;

  const simmpi::RecoveryReport rec =
      simmpi::snapshotRecovery(*cfg.recoveryStats);
  const simmpi::FaultStats stats = injector->stats();
  Table t({"metric", "value"});
  t.addRow({"baseline seconds", Table::num(baseSeconds, 3)});
  t.addRow({"recovered-run seconds", Table::num(recSeconds, 3)});
  t.addRow({"rank crashes injected", Table::num((long long)stats.crashes)});
  t.addRow({"payload bit flips injected",
            Table::num((long long)stats.bitflips)});
  t.addRow({"checkpoint corruptions injected",
            Table::num((long long)stats.checkpointCorruptions)});
  t.addRow({"ranks resurrected", Table::num((long long)rec.resurrections)});
  t.addRow({"nested resurrections",
            Table::num((long long)rec.nestedResurrections)});
  t.addRow({"checkpoints taken", Table::num((long long)rec.checkpoints)});
  t.addRow({"checkpoint bytes raw (delta)",
            Table::num((long long)rec.checkpointBytesCopied)});
  t.addRow({"checkpoint bytes stored",
            Table::num((long long)rec.checkpointBytesStored)});
  t.addRow({"delta compression ratio",
            rec.checkpointBytesStored > 0
                ? Table::num(static_cast<double>(rec.checkpointBytesCopied) /
                                 static_cast<double>(rec.checkpointBytesStored),
                             2) + "x"
                : "n/a"});
  t.addRow({"ckpt corruptions detected",
            Table::num((long long)rec.checkpointCorruptionsDetected)});
  t.addRow({"ckpt generations discarded",
            Table::num((long long)rec.generationsDiscarded)});
  t.addRow({"steps replayed", Table::num((long long)rec.stepsReplayed)});
  t.addRow({"recvs replayed from log",
            Table::num((long long)rec.recvsReplayed)});
  t.addRow({"sends suppressed", Table::num((long long)rec.sendsSuppressed)});
  t.addRow({"barriers skipped", Table::num((long long)rec.barriersSkipped)});
  t.addRow({"replay-log peak bytes",
            Table::num((long long)rec.replayLogPeakBytes)});
  t.addRow({"ABFT panel checks", Table::num((long long)rec.abftPanelChecks)});
  t.addRow({"ABFT GEMM carry checks",
            Table::num((long long)rec.abftGemmChecks)});
  t.addRow({"flips detected / corrected",
            Table::num((long long)rec.flipsDetected) + " / " +
                Table::num((long long)rec.flipsCorrected)});
  t.addRow({"converged", recovered.result.converged ? "yes" : "NO"});
  t.addRow({"bitwise identical to baseline", bitwise ? "YES" : "NO"});
  t.print();
  if (!bitwise && !baseline.solution.empty() &&
      baseline.solution.size() == recovered.solution.size() &&
      firstDiff < baseline.solution.size()) {
    std::printf("first divergence at x[%zu]: %.17g vs %.17g\n", firstDiff,
                baseline.solution[firstDiff],
                recovered.solution[firstDiff]);
  }

  if (!jsonPath.empty()) {
    std::ostringstream os;
    os.precision(17);
    os << "{\n";
    os << "  \"n\": " << cfg.n << ",\n";
    os << "  \"b\": " << cfg.b << ",\n";
    os << "  \"checkpoint_every_k\": " << cfg.recovery.checkpointEveryK
       << ",\n";
    os << "  \"crash_rank\": " << crashRank << ",\n";
    os << "  \"crash_at_op\": " << crashAtOp << ",\n";
    os << "  \"crash_rank2\": " << crashRank2 << ",\n";
    os << "  \"crash_at_op2\": " << crashAtOp2 << ",\n";
    os << "  \"crashes_injected\": " << stats.crashes << ",\n";
    os << "  \"bitflips_injected\": " << stats.bitflips << ",\n";
    os << "  \"checkpoint_corruptions_injected\": "
       << stats.checkpointCorruptions << ",\n";
    os << "  \"resurrections\": " << rec.resurrections << ",\n";
    os << "  \"nested_resurrections\": " << rec.nestedResurrections << ",\n";
    os << "  \"checkpoints\": " << rec.checkpoints << ",\n";
    os << "  \"checkpoint_bytes_raw\": " << rec.checkpointBytesCopied
       << ",\n";
    os << "  \"checkpoint_bytes_stored\": " << rec.checkpointBytesStored
       << ",\n";
    os << "  \"compression_ratio\": "
       << (rec.checkpointBytesStored > 0
               ? static_cast<double>(rec.checkpointBytesCopied) /
                     static_cast<double>(rec.checkpointBytesStored)
               : 0.0)
       << ",\n";
    os << "  \"checkpoint_corruptions_detected\": "
       << rec.checkpointCorruptionsDetected << ",\n";
    os << "  \"generations_discarded\": " << rec.generationsDiscarded
       << ",\n";
    os << "  \"steps_replayed\": " << rec.stepsReplayed << ",\n";
    os << "  \"recvs_replayed\": " << rec.recvsReplayed << ",\n";
    os << "  \"replay_log_peak_bytes\": " << rec.replayLogPeakBytes << ",\n";
    os << "  \"abft_panel_checks\": " << rec.abftPanelChecks << ",\n";
    os << "  \"abft_gemm_checks\": " << rec.abftGemmChecks << ",\n";
    os << "  \"flips_detected\": " << rec.flipsDetected << ",\n";
    os << "  \"flips_corrected\": " << rec.flipsCorrected << ",\n";
    os << "  \"baseline_seconds\": " << baseSeconds << ",\n";
    os << "  \"recovered_seconds\": " << recSeconds << ",\n";
    os << "  \"converged\": "
       << (recovered.result.converged ? "true" : "false") << ",\n";
    os << "  \"bitwise_identical\": " << (bitwise ? "true" : "false")
       << "\n";
    os << "}\n";
    serve::writeReportFile(jsonPath, os.str());
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  return bitwise && recovered.result.converged ? 0 : 1;
}

int cmdServe(const Options& raw) {
  const Options opts = layered(raw);

  serve::ServeConfig scfg;
  scfg.cacheBytes =
      static_cast<std::size_t>(opts.getInt("serve.cache-mb", 64)) << 20;
  scfg.queueDepth = opts.getInt("serve.queue-depth", 64);
  scfg.maxBatch = opts.getInt("serve.batch", 8);
  scfg.maxBatchDelaySeconds =
      opts.getDouble("serve.batch-delay-us", 1000.0) * 1e-6;
  scfg.defaultDeadlineSeconds =
      opts.getDouble("serve.deadline-ms", 0.0) * 1e-3;
  scfg.workers = opts.getInt("serve.workers", 1);
  scfg.maxRetries = opts.getInt("serve.retries", 2);
  scfg.maxIrIterations = opts.getInt("max-ir", 50);
  scfg.vendor = opts.getString("vendor", "amd") == "nvidia" ? Vendor::kNvidia
                                                            : Vendor::kAmd;
  const std::string chaosName = opts.getString("serve.chaos", "none");
  if (chaosName != "none") {
    const auto chaosSeed =
        static_cast<std::uint64_t>(opts.getInt("serve.chaos-seed", 7));
    scfg.chaos = std::make_shared<simmpi::FaultInjector>(
        simmpi::faultScenario(chaosName, chaosSeed, scfg.workers),
        scfg.workers);
  }

  const std::string tracePath = opts.getString("trace", "");
  const serve::RequestTrace trace =
      tracePath.empty()
          ? serve::makeSyntheticTrace(
                opts.getInt("requests", 64), opts.getInt("keys", 4),
                opts.getDouble("gap-ms", 1.0), opts.getInt("n", 64),
                opts.getInt("b", 16),
                static_cast<std::uint64_t>(opts.getInt("seed", 42)))
          : serve::loadRequestTrace(tracePath);
  const double speedup = opts.getDouble("speedup", 1.0);
  HPLMXP_REQUIRE(speedup > 0.0, "--speedup must be positive");
  const std::string jsonPath = opts.getString("json", "BENCH_serve.json");
  const index_t verifyCount = opts.getInt("verify", 0);

  // Sharded fleet (--shards > 1): the same trace fans out over N
  // ServeEngines behind the consistent-hash router, each on its own
  // simmpi rank grid. The chaos schedule breaks/crashes/resurrects
  // shards at request indices so CI can replay through degradation.
  const index_t shards = opts.getInt("shards", 1);
  serve::FleetConfig fcfg;
  index_t breakAt = -1;
  index_t breakWho = 0;
  index_t crashAt = -1;
  index_t crashWho = 0;
  index_t resurrectAt = -1;
  index_t slowAt = -1;
  index_t slowWho = 0;
  double slowStretch = 5.0;
  if (shards > 1) {
    fcfg.shards = shards;
    fcfg.virtualNodes = opts.getInt("serve.shards.virtual-nodes", 64);
    fcfg.groupSize = opts.getInt("serve.shards.group-size", 2);
    fcfg.fleetCacheBytes = scfg.cacheBytes;  // fleet-wide, split per shard
    fcfg.hotKeyRequests = opts.getInt("serve.shards.hot-requests", 0);
    fcfg.hotReplicas = opts.getInt("serve.shards.hot-replicas", 2);
    fcfg.failoverLimit = opts.getInt("serve.shards.failover-limit", 2);
    fcfg.health.openSeconds =
        opts.getDouble("serve.shards.open-ms", 50.0) * 1e-3;
    fcfg.groupOptions.timeout = std::chrono::milliseconds(
        opts.getInt("serve.shards.timeout-ms", 5000));
    // Gray-failure defense: phi-accrual health monitor + hedged requests.
    fcfg.healthMonitor.enabled = opts.getBool("serve.shards.health", true);
    fcfg.healthMonitor.suspectPhi =
        opts.getDouble("serve.shards.suspect-phi", 1.0);
    fcfg.healthMonitor.quarantinePhi =
        opts.getDouble("serve.shards.quarantine-phi", 3.0);
    fcfg.healthMonitor.quarantineDwellSeconds =
        opts.getDouble("serve.shards.dwell-ms", 100.0) * 1e-3;
    fcfg.hedge.enabled = opts.getBool("hedge", false);
    fcfg.hedge.delayFactor = opts.getDouble("hedge-delay-factor", 1.5);
    fcfg.hedge.minDelaySeconds =
        opts.getDouble("hedge-delay-ms", 2.0) * 1e-3;
    fcfg.hedge.budgetPerSecond = opts.getDouble("hedge-budget", 20.0);
    fcfg.hedge.budgetBurst = opts.getDouble("hedge-burst", 8.0);
    breakAt = opts.getInt("break-at", -1);
    breakWho = opts.getInt("break-shard", 0);
    crashAt = opts.getInt("crash-at", -1);
    crashWho = opts.getInt("crash-shard", shards - 1);
    resurrectAt = opts.getInt("resurrect-at", -1);
    slowAt = opts.getInt("slow-at", -1);
    slowWho = opts.getInt("slow-shard", 0);
    slowStretch = opts.getDouble("slow-stretch", 5.0);
    HPLMXP_REQUIRE(breakWho >= 0 && breakWho < shards &&
                       crashWho >= 0 && crashWho < shards &&
                       slowWho >= 0 && slowWho < shards,
                   "--break-shard/--crash-shard/--slow-shard out of range");
  }
  warnUnused(opts);

  std::printf("hplmxp serve: trace=%s requests=%zu shards=%lld "
              "workers=%lld batch=%lld queue=%lld chaos=%s\n",
              trace.name.c_str(), trace.requests.size(),
              (long long)(shards > 1 ? shards : 1),
              (long long)scfg.workers, (long long)scfg.maxBatch,
              (long long)scfg.queueDepth, chaosName.c_str());

  const Vendor vendor = scfg.vendor;
  const index_t maxIr = scfg.maxIrIterations;

  // Bitwise spot-check: completed requests must match an independent
  // factor + single-RHS refinement of the same (key, rhs seed). Works on
  // both handle flavors (engine and fleet expose wait()/solution()).
  const auto verifyServed = [&](const auto& handles) -> int {
    if (verifyCount <= 0) {
      return 0;
    }
    index_t checked = 0;
    index_t mismatched = 0;
    for (const auto& [req, handle] : handles) {
      if (checked >= verifyCount) {
        break;
      }
      const serve::RequestOutcome& o = handle->wait();
      if (o.status != serve::RequestStatus::kCompleted) {
        continue;
      }
      const ProblemGenerator gen(req.key.seed, req.key.n);
      const Factorization f =
          factorStorageSingle(gen, req.key.b, vendor, req.key.precision);
      std::vector<std::vector<double>> xs;
      solveManyMixedSingle(f, gen, {req.rhsSeed}, xs, maxIr);
      if (xs[0] != handle->solution()) {
        ++mismatched;
      }
      ++checked;
    }
    std::printf("verify: %lld served solutions re-checked bitwise, "
                "%lld mismatched\n",
                (long long)checked, (long long)mismatched);
    return mismatched > 0 ? 1 : 0;
  };

  const auto toRequest = [](const serve::TraceRequest& tr) {
    serve::SolveRequest req;
    req.key = tr.key();
    req.rhsSeed = tr.rhsSeed;
    req.deadlineSeconds = tr.deadlineMs * 1e-3;
    return req;
  };

  if (shards > 1) {
    fcfg.shard = std::move(scfg);
    serve::FleetEngine fleet(std::move(fcfg));
    std::vector<std::pair<serve::SolveRequest,
                          serve::FleetEngine::HandlePtr>> handles;
    handles.reserve(trace.requests.size());
    Timer replay;
    index_t i = 0;
    for (const serve::TraceRequest& tr : trace.requests) {
      if (i == breakAt) {
        fleet.breakShard(breakWho);
      }
      if (i == crashAt) {
        fleet.crashShard(crashWho);
      }
      if (i == slowAt) {
        fleet.slowShard(slowWho, slowStretch);
      }
      if (i == resurrectAt) {
        if (crashAt >= 0) {
          fleet.resurrectShard(crashWho);
        }
        if (breakAt >= 0) {
          fleet.unbreakShard(breakWho);
        }
      }
      const double at = tr.atMs * 1e-3 / speedup;
      const double nowS = replay.seconds();
      if (at > nowS) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(at - nowS));
      }
      const serve::SolveRequest req = toRequest(tr);
      handles.emplace_back(req, fleet.submit(req));
      ++i;
    }
    fleet.drain();

    serve::FleetReport report = fleet.report();
    report.trace = trace.name;
    report.toTable().print();
    serve::writeReportFile(jsonPath, report.toJson());
    std::printf("wrote %s\n", jsonPath.c_str());
    const int bad = verifyServed(handles);
    return bad != 0 || report.dropped != 0 || report.doubleAnswered != 0 ||
                   !report.cacheLookupInvariant
               ? 1
               : 0;
  }

  serve::ServeEngine engine(std::move(scfg));

  // Open-loop replay: arrivals follow the trace clock (divided by
  // --speedup), regardless of how far the engine has gotten.
  std::vector<std::pair<serve::SolveRequest, serve::ServeEngine::HandlePtr>>
      handles;
  handles.reserve(trace.requests.size());
  Timer replay;
  for (const serve::TraceRequest& tr : trace.requests) {
    const double at = tr.atMs * 1e-3 / speedup;
    const double nowS = replay.seconds();
    if (at > nowS) {
      std::this_thread::sleep_for(std::chrono::duration<double>(at - nowS));
    }
    const serve::SolveRequest req = toRequest(tr);
    handles.emplace_back(req, engine.submit(req));
  }
  engine.drain();

  serve::ServeReport report = engine.report();
  report.trace = trace.name;
  report.toTable().print();
  serve::writeReportFile(jsonPath, report.toJson());
  std::printf("wrote %s\n", jsonPath.c_str());
  return verifyServed(handles);
}

int cmdFleetsim(const Options& raw) {
  const Options opts = layered(raw);

  fleetsim::FleetSimConfig cfg;
  const std::string topologyPath = opts.getString("topology", "");
  if (!topologyPath.empty()) {
    cfg.topology = fleetsim::TopologyConfig::load(topologyPath);
  } else {
    cfg.topology.kind = fleetsim::topologyKindFromString(
        opts.getString("kind", "fat-tree"));
    cfg.topology.nodes = opts.getInt("nodes", 16);
    cfg.topology.machine = machineFrom(opts);
    if (cfg.topology.kind == fleetsim::TopologyKind::kTorus) {
      cfg.topology.torusX = opts.getInt("torus-x", cfg.topology.nodes);
      cfg.topology.torusY = opts.getInt("torus-y", 1);
      cfg.topology.torusZ = opts.getInt("torus-z", 1);
    }
    cfg.topology.validate();
  }

  cfg.runLu = opts.getBool("lu", false);
  if (cfg.runLu) {
    cfg.lu.n = opts.getInt("lu.n", 4096);
    cfg.lu.b = opts.getInt("lu.b", 256);
    cfg.lu.pr = opts.getInt("lu.pr", 4);
    cfg.lu.pc = opts.getInt("lu.pc", 4);
  }

  cfg.runServe = opts.getBool("serve", true);
  if (cfg.runServe) {
    const std::string tracePath = opts.getString("trace", "");
    cfg.serve.trace =
        tracePath.empty()
            ? serve::makeSyntheticTrace(
                  opts.getInt("requests", 64), opts.getInt("keys", 4),
                  opts.getDouble("gap-ms", 1.0), opts.getInt("n", 64),
                  opts.getInt("b", 16),
                  static_cast<std::uint64_t>(opts.getInt("seed", 42)))
            : serve::loadRequestTrace(tracePath);
    cfg.serve.shards = opts.getInt("shards", 1);
    cfg.serve.virtualNodes = opts.getInt("serve.shards.virtual-nodes", 64);
    cfg.serve.queueDepth = opts.getInt("serve.queue-depth", 64);
    cfg.serve.maxBatch = opts.getInt("serve.batch", 8);
    cfg.serve.batchDelayUs = opts.getDouble("serve.batch-delay-us", 1000.0);
    cfg.serve.cacheMb =
        static_cast<double>(opts.getInt("serve.cache-mb", 64));
    cfg.serve.defaultDeadlineMs = opts.getDouble("serve.deadline-ms", 0.0);
    cfg.serve.failoverLimit = opts.getInt("serve.shards.failover-limit", 2);
    cfg.serve.hostGflops = opts.getDouble("host-gflops", 2.0);
    cfg.serve.irIterations = opts.getInt("ir-iters", 3);

    // Gray-failure defense (off by default: golden traces stay stable).
    cfg.serve.health.enabled = opts.getBool("health", false);
    cfg.serve.health.heartbeatIntervalSeconds =
        opts.getDouble("heartbeat-ms", 10.0) * 1e-3;
    cfg.serve.health.suspectPhi = opts.getDouble("suspect-phi", 1.0);
    cfg.serve.health.quarantinePhi = opts.getDouble("quarantine-phi", 3.0);
    cfg.serve.health.quarantineDwellSeconds =
        opts.getDouble("dwell-ms", 100.0) * 1e-3;
    cfg.serve.hedgeEnabled = opts.getBool("hedge", false);
    cfg.serve.hedgeDelayFactor = opts.getDouble("hedge-delay-factor", 1.5);
    cfg.serve.hedgeMinDelayMs = opts.getDouble("hedge-min-delay-ms", 2.0);
    cfg.serve.hedgeBudgetPerSecond = opts.getDouble("hedge-budget", 20.0);
    cfg.serve.hedgeBudgetBurst = opts.getDouble("hedge-burst", 8.0);

    // Chaos schedule on the virtual clock (ms).
    const double crashAtMs = opts.getDouble("crash-at-ms", -1.0);
    if (crashAtMs >= 0.0) {
      cfg.serve.chaos.push_back({fleetsim::ChaosAction::Kind::kCrash,
                                 crashAtMs,
                                 opts.getInt("crash-shard",
                                             cfg.serve.shards - 1),
                                 0.0});
    }
    const double resurrectAtMs = opts.getDouble("resurrect-at-ms", -1.0);
    if (resurrectAtMs >= 0.0) {
      cfg.serve.chaos.push_back({fleetsim::ChaosAction::Kind::kResurrect,
                                 resurrectAtMs,
                                 opts.getInt("crash-shard",
                                             cfg.serve.shards - 1),
                                 0.0});
    }
    const double slowAtMs = opts.getDouble("slow-at-ms", -1.0);
    if (slowAtMs >= 0.0) {
      cfg.serve.chaos.push_back({fleetsim::ChaosAction::Kind::kSlow,
                                 slowAtMs, opts.getInt("slow-shard", 0),
                                 opts.getDouble("slow-factor", 0.5)});
    }
  }

  const std::string scriptPath = opts.getString("script", "");
  const bool interactive = opts.getBool("interactive", false);
  const std::string jsonPath = opts.getString("json", "");
  const std::string validatePath = opts.getString("validate", "");
  const double tolLatency = opts.getDouble("tol-latency", 5.0);
  const double tolHit = opts.getDouble("tol-hit", 0.2);
  warnUnused(opts);

  fleetsim::FleetSession session(cfg);
  std::printf("hplmxp fleetsim: topology=%s kind=%s nodes=%lld lu=%s "
              "serve=%s (%zu requests, %lld shards)\n",
              cfg.topology.name.c_str(),
              fleetsim::toString(cfg.topology.kind),
              (long long)cfg.topology.nodes, cfg.runLu ? "on" : "off",
              cfg.runServe ? "on" : "off",
              cfg.runServe ? cfg.serve.trace.requests.size() : 0,
              (long long)(cfg.runServe ? cfg.serve.shards : 0));

  int scriptErrors = 0;
  if (!scriptPath.empty()) {
    std::ifstream script(scriptPath);
    HPLMXP_REQUIRE(script.good(),
                   ("cannot open script: " + scriptPath).c_str());
    fleetsim::DebugCli cli(session, script, std::cout);
    scriptErrors = cli.runLoop();
  } else if (interactive) {
    fleetsim::DebugCli cli(session, std::cin, std::cout);
    scriptErrors = cli.runLoop();
  }
  // Whatever the script left pending still runs: the report always
  // describes the fully drained simulation.
  session.sim().clearBreakpoints();
  session.sim().run();

  const fleetsim::FleetSimReport report = session.report();
  std::printf("fleetsim: %llu events, virtual time %.3f s, trace hash "
              "%016llx\n",
              (unsigned long long)report.events, report.virtualSeconds,
              (unsigned long long)report.traceHash);
  if (report.hasServe) {
    std::printf("  serve: %llu completed / %llu submitted, hit rate %.3f, "
                "p50 %.3f ms, p99 %.3f ms\n",
                (unsigned long long)report.serveCounters.completed,
                (unsigned long long)report.serveCounters.submitted,
                report.serveCounters.hitRate(), report.total.p50Ms,
                report.total.p99Ms);
  }
  if (report.hasLu) {
    std::printf("  lu: %lld/%lld iterations, %.3f s virtual, %lld "
                "comm-bound\n",
                (long long)report.lu.iterations,
                (long long)report.lu.totalIterations,
                report.lu.factorSeconds,
                (long long)report.lu.commBoundIterations);
  }

  bool validationPass = true;
  std::string validationJson = "null";
  if (!validatePath.empty()) {
    const fleetsim::ValidationResult validation =
        fleetsim::validateAgainst(report, validatePath, tolLatency, tolHit);
    validationPass = validation.pass;
    validationJson = validation.toJson();
    for (const fleetsim::ValidationLine& line : validation.lines) {
      std::printf("  validate %-14s sim=%.4f measured=%.4f %s\n",
                  line.metric.c_str(), line.simulated, line.measured,
                  line.pass ? "ok" : "FAIL");
    }
  }
  if (!jsonPath.empty()) {
    std::ostringstream os;
    os << "{\n\"report\": " << report.toJson()
       << ",\n\"validation\": " << validationJson << "\n}\n";
    serve::writeReportFile(jsonPath, os.str());
    std::printf("wrote %s\n", jsonPath.c_str());
  }
  return scriptErrors > 0 || !validationPass ? 1 : 0;
}

int cmdSpecs(const Options& raw) {
  warnUnused(raw);
  for (MachineKind kind : {MachineKind::kSummit, MachineKind::kFrontier}) {
    const MachineSpec& s = machineSpec(kind);
    std::printf("\n%s: %lld nodes x %lld GCDs (%s), %.0f/%.2f TF "
                "FP16/FP64 per GCD, %.1f GB/s NIC per node\n",
                s.name.c_str(), (long long)s.nodes, (long long)s.gcdsPerNode,
                s.gpuModel.c_str(), s.fp16TflopsPerGcd, s.fp64TflopsPerGcd,
                s.nicGBsPerNodeEachWay);
    const BlasShim shim(s.vendor);
    std::printf("  BLAS: %s / %s / %s\n", shim.routineNames().gemm.c_str(),
                shim.routineNames().trsm.c_str(),
                shim.routineNames().getrf.c_str());
  }
  return 0;
}

std::string usage() {
  return
      "hplmxp — mixed-precision HPL-AI/HPL-MxP benchmark reproduction\n"
      "\n"
      "usage: hplmxp <command> [--key value ...] [--config file]\n"
      "\n"
      "commands:\n"
      "  run      functional distributed HPL-AI on this host\n"
      "           (--n --b --pr --pc --bcast --refiner ir|gmres\n"
      "            --lookahead on|off\n"
      "            --vendor amd|nvidia --seed\n"
      "            --trace --warmup --save-reference FILE\n"
      "            --reference FILE [--slowdown X --strikes N])\n"
      "  hpl      functional distributed FP64 HPL baseline\n"
      "           (--n --b --pr --pc --diag-shift --bcast)\n"
      "  project  at-scale projection on the Summit/Frontier models\n"
      "           (--machine --nl --b --pr --qr --qc --bcast --col-major\n"
      "            --port-binding --gpu-aware --slowest-gcd)\n"
      "  tune     block-size / local-size search (--machine --pr --nl)\n"
      "  scan     slow-node mini-benchmark scan (--fleet --degraded)\n"
      "  chaos    distributed solve under a fault-injection scenario\n"
      "           (--scenario none|delay|transient|sdc|stall|crash\n"
      "                       |multicrash|ckptcorrupt|partition|ladder\n"
      "            ladder: adaptive-precision sweep over conditioning\n"
      "            regimes (--precision auto|fp16|bf16|fp8e4m3|fp8e5m2\n"
      "            --max-ir --gmres on|off --gmres-restart --gmres-outer)\n"
      "            --n --b --pr --pc --seed --fault-seed --timeout-ms\n"
      "            --retries --backoff-us --guard on|off --ir-strikes\n"
      "            --detect-slow on|off --slow-strikes --min-lag\n"
      "            --recovery.enabled on|off --recovery.every-k\n"
      "            --recovery.max-resurrections\n"
      "            --recovery.compress on|off --recovery.verify on|off\n"
      "            --abft.panels on|off --abft.gemm on|off)\n"
      "  recover  crash ranks mid-factorization (optionally: a second\n"
      "           concurrent crash, a crash during replay, an injected\n"
      "           checkpoint corruption, in-flight panel bit flips) with\n"
      "           incremental verified checkpoints + ABFT enabled, and\n"
      "           prove the recovered solve bitwise-identical to a\n"
      "           fault-free baseline\n"
      "           (--n --b --pr --pc --seed --crash-rank --crash-at-op\n"
      "            --crash-rank2 --crash-at-op2\n"
      "            --replay-crash-rank --replay-crash-at-op\n"
      "            --corrupt-ckpt-rank --corrupt-ckpt-gen\n"
      "            --flip-probability --fault-seed --json FILE\n"
      "            --recovery.enabled on|off --recovery.every-k\n"
      "            --recovery.max-resurrections\n"
      "            --recovery.compress on|off --recovery.verify on|off\n"
      "            --abft.panels on|off --abft.gemm on|off)\n"
      "  serve    solver-as-a-service: replay a request trace through the\n"
      "           factor cache + batching engine and report latency\n"
      "           (--trace FILE | --requests --keys --gap-ms --n --b --seed\n"
      "            --speedup X --json FILE --verify N --max-ir\n"
      "            --serve.cache-mb --serve.queue-depth --serve.batch\n"
      "            --serve.batch-delay-us --serve.deadline-ms\n"
      "            --serve.workers --serve.retries\n"
      "            --serve.chaos none|delay|transient --serve.chaos-seed\n"
      "            sharded fleet: --shards N\n"
      "            --serve.shards.virtual-nodes --serve.shards.group-size\n"
      "            --serve.shards.hot-requests --serve.shards.hot-replicas\n"
      "            --serve.shards.failover-limit --serve.shards.open-ms\n"
      "            --serve.shards.timeout-ms\n"
      "            gray-failure defense: --serve.shards.health on|off\n"
      "            --serve.shards.suspect-phi --serve.shards.quarantine-phi\n"
      "            --serve.shards.dwell-ms --hedge on|off\n"
      "            --hedge-delay-factor --hedge-delay-ms --hedge-budget\n"
      "            --hedge-burst\n"
      "            chaos schedule (request indices):\n"
      "            --break-at --break-shard --crash-at --crash-shard\n"
      "            --resurrect-at --slow-at --slow-shard --slow-stretch)\n"
      "  fleetsim fleet-scale discrete-event co-simulation: replay a\n"
      "           request trace and/or a factorization sweep on a virtual\n"
      "           cluster topology, with an mgsim-style debug CLI\n"
      "           (--topology FILE | --kind fat-tree|dragonfly|torus\n"
      "            --nodes N --machine summit|frontier\n"
      "            --lu on|off --lu.n --lu.b --lu.pr --lu.pc\n"
      "            --serve on|off --trace FILE | --requests --keys\n"
      "            --gap-ms --n --b --seed --shards N --host-gflops\n"
      "            --ir-iters --serve.queue-depth --serve.batch\n"
      "            --serve.batch-delay-us --serve.cache-mb\n"
      "            --serve.deadline-ms --serve.shards.virtual-nodes\n"
      "            --serve.shards.failover-limit\n"
      "            chaos (virtual ms): --crash-at-ms --crash-shard\n"
      "            --resurrect-at-ms --slow-at-ms --slow-shard\n"
      "            --slow-factor\n"
      "            gray-failure defense: --health on|off --heartbeat-ms\n"
      "            --suspect-phi --quarantine-phi --dwell-ms\n"
      "            --hedge on|off --hedge-delay-factor --hedge-min-delay-ms\n"
      "            --hedge-budget --hedge-burst\n"
      "            modes: --script FILE | --interactive | (default: run)\n"
      "            --json FILE --validate BENCH_serve.json\n"
      "            --tol-latency X --tol-hit X)\n"
      "  specs    print machine specs and the BLAS dispatch map\n"
      "  help     this text\n";
}

int dispatch(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    std::fputs(usage().c_str(), stdout);
    return args.empty() ? 1 : 0;
  }
  const std::string cmd = args[0];
  const Options opts =
      Options::parseArgs({args.begin() + 1, args.end()});
  try {
    if (cmd == "run") {
      return cmdRun(opts);
    }
    if (cmd == "hpl") {
      return cmdHpl(opts);
    }
    if (cmd == "project") {
      return cmdProject(opts);
    }
    if (cmd == "tune") {
      return cmdTune(opts);
    }
    if (cmd == "scan") {
      return cmdScan(opts);
    }
    if (cmd == "chaos") {
      return cmdChaos(opts);
    }
    if (cmd == "recover") {
      return cmdRecover(opts);
    }
    if (cmd == "serve") {
      return cmdServe(opts);
    }
    if (cmd == "fleetsim") {
      return cmdFleetsim(opts);
    }
    if (cmd == "specs") {
      return cmdSpecs(opts);
    }
  } catch (const CheckError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr, "unknown command: %s\n\n%s", cmd.c_str(),
               usage().c_str());
  return 1;
}

}  // namespace hplmxp::cli
