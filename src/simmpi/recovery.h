// Crash-rank recovery for the simmpi runtime: the "self-healing" layer
// that turns PR 1's detected faults into survived faults.
//
// The paper's matrix is generated on the fly from a jump-ahead LCG
// (gen/lcg.h), so a lost rank's *untouched* tiles are recomputable for
// free — checkpoint 0 stores nothing but comm counters. Tiles already
// updated by the factorization are preserved by an incremental,
// delta-compressed, integrity-verified checkpoint store: the core layer
// marks every tile its TRSM/GEMM updates touch in a panel-granular
// DirtyMap, and each checkpoint generation stores only those tiles as an
// XOR delta against the previous generation, plane-transposed and
// RLE-compressed with a per-chunk CRC32 (util/delta_codec.h). Restore
// regenerates the LCG base and re-applies the generation chain; a chunk
// failing its CRC marks that generation — and everything after it — as
// lost, and recovery falls back to the newest *intact* generation instead
// of silently restoring garbage.
//
// Resurrection then rewinds the rank to the surviving generation and
// re-executes the normal factorization code path with the comm layer in
// replay mode (comm.h): sends are swallowed (the buffered transport
// already delivered them), recvs — including the missed panel broadcasts —
// are served from the bounded replay log, and barriers are skipped.
// Deterministic re-execution reaches the crashed op exactly and flips back
// to live communication mid-step, so the recovered run is bitwise
// identical to the fault-free run even under concurrent crashes on
// distinct ranks, a second crash arriving during replay (a *nested*
// resurrection), or injected checkpoint corruption
// (tests/test_recovery.cpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "simmpi/comm.h"
#include "util/common.h"
#include "util/delta_codec.h"

namespace hplmxp::simmpi {

/// Knobs of the recovery subsystem (the `recovery.*` conf keys).
struct RecoveryConfig {
  bool enabled = false;
  /// Panel steps between checkpoint generations (`recovery.every-k`).
  /// Small values bound replay work and replay-log memory at the cost of
  /// more frequent delta encodes; see doc/ROBUSTNESS.md for the trade-off.
  index_t checkpointEveryK = 8;
  /// Resurrections allowed per rank before the crash is re-thrown (a
  /// backstop against a non-one-shot crash plan re-killing the rank
  /// forever). `recovery.max-resurrections`.
  index_t maxResurrections = 8;
  /// Plane-transpose + RLE the checkpoint deltas (`recovery.compress`).
  /// Off stores the raw XOR deltas — still chunked and CRC-verified.
  bool compressCheckpoints = true;
  /// CRC-check every chunk on restore, and scrub the newest stored
  /// generation at each append (`recovery.verify`). Off skips the
  /// integrity ladder and trusts the store (structural checks remain).
  bool verifyCheckpoints = true;

  void validate() const {
    HPLMXP_REQUIRE(checkpointEveryK >= 1,
                   "recovery checkpoint cadence must be >= 1");
    HPLMXP_REQUIRE(maxResurrections >= 1,
                   "recovery needs at least one resurrection");
  }
};

/// Clamps a checkpoint cadence against the run's panel-step count. A
/// cadence >= the panel count degenerates to "checkpoint never" (only the
/// free step-0 base would ever be taken); that is clamped to the largest
/// cadence that still yields a mid-run generation, with a once-per-process
/// warning.
[[nodiscard]] index_t effectiveCheckpointCadence(index_t requested,
                                                 index_t panelSteps);

/// Shared tally sink for the whole recovery subsystem: checkpoint/replay
/// activity from this layer plus the ABFT detection/correction counts the
/// core factorization reports. One instance is shared by every rank's
/// RecoveryManager and by the CLI that renders the recovery report.
struct RecoveryStats {
  std::atomic<std::uint64_t> checkpoints{0};
  std::atomic<std::uint64_t> resurrections{0};
  std::atomic<std::uint64_t> stepsReplayed{0};
  std::atomic<std::uint64_t> recvsReplayed{0};
  std::atomic<std::uint64_t> sendsSuppressed{0};
  std::atomic<std::uint64_t> barriersSkipped{0};
  /// Raw (pre-codec) bytes of dirty-tile deltas gathered by checkpoints —
  /// what a full-copy scheme would have paid is checkpoints x local bytes.
  std::atomic<std::uint64_t> checkpointBytesCopied{0};
  /// Post-codec bytes actually retained by the store (the wire footprint).
  std::atomic<std::uint64_t> checkpointBytesStored{0};
  /// The same two tallies restricted to steady-state checkpoints — those
  /// taken in the second half of the factorization, past the warm-up
  /// generations whose dirty region still covers most of the matrix.
  std::atomic<std::uint64_t> steadyCheckpoints{0};
  std::atomic<std::uint64_t> steadyBytesCopied{0};
  std::atomic<std::uint64_t> steadyBytesStored{0};
  std::atomic<std::uint64_t> replayLogPeakBytes{0};
  /// Generations dropped by the corruption-fallback ladder on restore.
  std::atomic<std::uint64_t> generationsDiscarded{0};
  /// Chunk CRC mismatches detected on restore (each triggers a fallback).
  std::atomic<std::uint64_t> checkpointCorruptionsDetected{0};
  /// Resurrections that began while the rank was still replaying a
  /// previous resurrection (a second crash arriving mid-replay).
  std::atomic<std::uint64_t> nestedResurrections{0};
  // ABFT (bumped by the core factorization when abft.* is on).
  std::atomic<std::uint64_t> abftPanelChecks{0};
  std::atomic<std::uint64_t> abftGemmChecks{0};
  std::atomic<std::uint64_t> flipsDetected{0};
  std::atomic<std::uint64_t> flipsCorrected{0};
  std::atomic<std::uint64_t> checksumCorruptions{0};
};

/// Plain snapshot of RecoveryStats (the recovery report's numbers).
struct RecoveryReport {
  std::uint64_t checkpoints = 0;
  std::uint64_t resurrections = 0;
  std::uint64_t stepsReplayed = 0;
  std::uint64_t recvsReplayed = 0;
  std::uint64_t sendsSuppressed = 0;
  std::uint64_t barriersSkipped = 0;
  std::uint64_t checkpointBytesCopied = 0;
  std::uint64_t checkpointBytesStored = 0;
  std::uint64_t steadyCheckpoints = 0;
  std::uint64_t steadyBytesCopied = 0;
  std::uint64_t steadyBytesStored = 0;
  std::uint64_t replayLogPeakBytes = 0;
  std::uint64_t generationsDiscarded = 0;
  std::uint64_t checkpointCorruptionsDetected = 0;
  std::uint64_t nestedResurrections = 0;
  std::uint64_t abftPanelChecks = 0;
  std::uint64_t abftGemmChecks = 0;
  std::uint64_t flipsDetected = 0;
  std::uint64_t flipsCorrected = 0;
  std::uint64_t checksumCorruptions = 0;
};

[[nodiscard]] RecoveryReport snapshotRecovery(const RecoveryStats& stats);

/// Panel-granular dirty tracking over one rank's local block grid. The
/// core factorization marks every tile its diagonal write-back, TRSM
/// panels, and GEMM trailing updates touch; each checkpoint generation
/// stores exactly the marked tiles and clears the map.
class DirtyMap {
 public:
  void reset(index_t rowBlocks, index_t colBlocks);

  void mark(index_t ib, index_t jb) { markRect(ib, jb, 1, 1); }
  /// Marks the `hBlocks` x `wBlocks` tile rectangle anchored at
  /// (ib, jb); extents are clipped to the grid.
  void markRect(index_t ib, index_t jb, index_t hBlocks, index_t wBlocks);

  [[nodiscard]] bool test(index_t ib, index_t jb) const;
  void clear();

  [[nodiscard]] index_t rowBlocks() const { return rowBlocks_; }
  [[nodiscard]] index_t colBlocks() const { return colBlocks_; }
  [[nodiscard]] std::size_t markedCount() const { return marked_; }
  /// Linear ids (jb * rowBlocks + ib, i.e. column-major over the block
  /// grid) of all marked tiles, ascending.
  [[nodiscard]] std::vector<index_t> markedTiles() const;

 private:
  index_t rowBlocks_ = 0, colBlocks_ = 0;
  std::size_t marked_ = 0;
  std::vector<std::uint8_t> bits_;  // col-major over the block grid
};

/// What one restore pass did (folded into RecoveryStats by the manager).
struct RestoreResult {
  index_t step = 0;               // panel step of the surviving generation
  ReplayCounters counters;        // comm counters to rewind to
  std::uint64_t generationsDiscarded = 0;
  std::uint64_t corruptionsDetected = 0;
};

/// Generation-chained incremental checkpoint store for one rank's local
/// matrix (col-major rows x cols, tiled b x b). The base generation is the
/// LCG regeneration itself and stores nothing; generation g stores the
/// delta-codec blob of the tiles dirtied since generation g-1. Restore
/// regenerates the base and re-applies the chain, CRC-verifying every
/// chunk; the first corrupt generation and everything after it are
/// discarded and the newest intact predecessor wins.
class DeltaCheckpointStore {
 public:
  void configure(index_t rows, index_t cols, index_t blockB,
                 util::DeltaCodecConfig codec);

  /// Records the matrix-free base: the matrix is recoverable by
  /// regeneration (step 0, nothing factored yet).
  void saveRegenerable(index_t step, ReplayCounters counters);

  [[nodiscard]] bool valid() const { return baseValid_; }
  [[nodiscard]] index_t newestStep() const;
  [[nodiscard]] const ReplayCounters& newestCounters() const;
  [[nodiscard]] bool hasGenerationAt(index_t step) const;
  [[nodiscard]] std::size_t generationCount() const {
    return generations_.size();
  }

  /// The recv counter the comm replay log must retain back to: the
  /// second-newest generation's, so a corruption fallback of the newest
  /// generation is always replayable.
  [[nodiscard]] std::uint64_t replayFloorRecvs() const;

  struct AppendResult {
    std::uint64_t rawBytes = 0;     // gathered dirty-tile bytes
    std::uint64_t storedBytes = 0;  // post-codec footprint retained
    std::uint64_t generationsDiscarded = 0;   // scrub-on-append casualties
    std::uint64_t corruptionsDetected = 0;    // rotted chunks the scrub hit
  };

  /// Appends generation (`step`, `counters`) storing the delta of `tiles`
  /// (linear ids from DirtyMap::markedTiles) against the previous
  /// generation's image. `regen` materializes the base image on the first
  /// matrix-bearing append. Requires a saved base and ascending steps.
  ///
  /// With `scrub` on, the newest stored generation is CRC-checked first —
  /// the last moment a rotted generation can be dropped while the replay
  /// floor still reaches its predecessor. A scrub casualty's tiles are
  /// folded into this generation (the image is rebuilt from the intact
  /// chain), so the chain stays exact and restore never has to fall back
  /// further than one generation.
  AppendResult append(index_t step, ReplayCounters counters,
                      const float* localA, index_t lda,
                      const std::vector<index_t>& tiles,
                      const std::function<void(float*, index_t)>& regen,
                      bool scrub = true);

  /// Rebuilds the newest intact generation into localA: regenerates the
  /// base, re-applies the chain, and on a CRC/structural failure discards
  /// that generation and all later ones (fallback ladder). Requires a
  /// saved base. `verify` = false skips the CRC pass (structural checks
  /// remain).
  RestoreResult restore(float* localA, index_t lda,
                        const std::function<void(float*, index_t)>& regen,
                        bool verify);

  /// Fault-injection hook: flips one bit (chosen by `selector`) in the
  /// newest generation's stored payload. Returns false when there is no
  /// matrix-bearing generation to corrupt.
  bool corruptNewestGeneration(std::uint64_t selector);

 private:
  struct Generation {
    index_t step = 0;
    ReplayCounters counters;
    std::vector<index_t> tiles;
    util::DeltaBlob blob;
  };

  /// Packs the given tiles' bytes from a rows_-strided (or lda-strided)
  /// matrix into a contiguous buffer.
  void gatherTiles(const std::vector<index_t>& tiles, const float* src,
                   index_t lda, std::vector<std::uint8_t>& out) const;
  void scatterTiles(const std::vector<index_t>& tiles,
                    const std::uint8_t* packed, float* dst,
                    index_t lda) const;
  void materializeImage(const std::function<void(float*, index_t)>& regen);

  index_t rows_ = 0, cols_ = 0, b_ = 1;
  index_t rowBlocks_ = 0, colBlocks_ = 0;
  util::DeltaCodecConfig codec_;
  bool baseValid_ = false;
  index_t baseStep_ = 0;
  ReplayCounters baseCounters_;
  std::vector<Generation> generations_;
  std::vector<float> image_;  // newest generation's full packed matrix
};

/// Local shape the recovery layer checkpoints over, provided by the core
/// layer (which owns the block-cyclic layout this library cannot see).
struct RecoveryGeometry {
  index_t localRows = 0;
  index_t localCols = 0;
  index_t blockB = 1;
  /// Total panel steps of the factorization (ceil(n / b)); bounds the
  /// checkpoint cadence (effectiveCheckpointCadence).
  index_t panelSteps = 1;
};

/// Per-rank recovery driver. Owned by the rank's own thread (one per rank,
/// like the rank's local matrix); all methods are called from that thread.
class RecoveryManager {
 public:
  /// Rebuilds the rank's local matrix to its *generated* content (the LCG
  /// jump-ahead fill). Installed by the core layer, which owns the
  /// generator and the block-cyclic layout this library cannot see.
  using Regenerate = std::function<void(float* localA, index_t lda)>;

  RecoveryManager(Comm world, RecoveryConfig config,
                  RecoveryGeometry geometry,
                  std::shared_ptr<RecoveryStats> stats, Regenerate regen);

  [[nodiscard]] const RecoveryConfig& config() const { return config_; }
  [[nodiscard]] bool shouldCheckpoint(index_t step) const {
    return step % config_.checkpointEveryK == 0;
  }

  /// The dirty map the core factorization marks touched tiles into.
  [[nodiscard]] DirtyMap& dirtyMap() { return dirty_; }

  /// Takes a checkpoint generation at panel step `step` from the tiles
  /// currently marked dirty, clears the map, and trims the replay log to
  /// the store's replay floor. Re-reaching a step during replay whose
  /// generation survived is a no-op (the state is deterministically
  /// identical); a generation discarded by a corruption fallback is
  /// re-appended fresh when replay re-reaches its step.
  void checkpoint(index_t step, const float* localA, index_t lda);

  [[nodiscard]] bool canResurrect() const;

  /// Rewinds the rank after an InjectedCrashError caught at panel step
  /// `crashStep`: matrix restored to the newest intact generation (or
  /// regenerated), comm counters rewound, replay mode armed. A crash
  /// caught while already replaying nests: the rank rewinds again and the
  /// outer replay target is preserved. Returns the step to resume the
  /// factorization loop from.
  index_t resurrect(index_t crashStep, float* localA, index_t lda);

  [[nodiscard]] bool replaying() const {
    return world_.replaying(world_.rank());
  }

  /// Folds this rank's comm replay activity into the shared stats; call
  /// once when the factorization finishes.
  void noteRunComplete();

  [[nodiscard]] const std::shared_ptr<RecoveryStats>& stats() const {
    return stats_;
  }

 private:
  Comm world_;
  RecoveryConfig config_;
  RecoveryGeometry geometry_;
  std::shared_ptr<RecoveryStats> stats_;
  Regenerate regen_;
  DeltaCheckpointStore store_;
  DirtyMap dirty_;
  index_t resurrections_ = 0;
  std::uint64_t liveAppends_ = 0;  // corruption-injection ordinal
};

}  // namespace hplmxp::simmpi
