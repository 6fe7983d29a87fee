// Request traces for `hplmxp serve`: a JSON list of timed solve requests
// replayed open-loop (arrivals follow the trace clock, not the solver's
// completion pace, so queueing and batching behavior are faithfully
// reproduced).
//
// Trace format:
//
//   {
//     "name": "smoke",
//     "requests": [
//       {"at_ms": 0.0, "n": 64, "b": 16, "seed": 1,
//        "rhs_seed": 101, "deadline_ms": 2000.0},
//       ...
//     ]
//   }
//
// `at_ms` is the arrival offset from replay start; `deadline_ms` is
// relative to arrival (0 or absent = engine default). `pr`/`pc` default to
// the 1x1 grid the serve backend accepts.
//
// A request may instead carry `arrival_us`, an inter-arrival gap in
// microseconds relative to the PREVIOUS request's arrival (the format
// load generators like to emit). When present it overrides `at_ms`:
// arrival = previous arrival + arrival_us/1000. Absent both fields, the
// request arrives back-to-back with its predecessor (offset 0).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lowp/precision.h"
#include "serve/problem_key.h"
#include "util/common.h"

namespace hplmxp::serve {

struct TraceRequest {
  double atMs = 0.0;
  index_t n = 0;
  index_t b = 0;
  std::uint64_t seed = 0;
  std::uint64_t rhsSeed = 0;
  double deadlineMs = 0.0;
  index_t pr = 1;
  index_t pc = 1;
  /// Storage rung for the factors ("fp16" | "bf16" | "fp8e4m3" |
  /// "fp8e5m2"); absent in the JSON means fp16, the paper's format.
  lowp::StoragePrecision precision = lowp::StoragePrecision::kFp16;

  /// Cache / batching identity of the request (serve/problem_key.h).
  [[nodiscard]] ProblemKey key() const {
    return {n, b, seed, pr, pc, precision};
  }
};

struct RequestTrace {
  std::string name;
  std::vector<TraceRequest> requests;
};

/// Parses a trace file. Throws CheckError on unreadable files or
/// malformed/incomplete documents (every request needs n, b, seed).
[[nodiscard]] RequestTrace loadRequestTrace(const std::string& path);

/// Renders a trace back to its JSON form (round-trips loadRequestTrace).
[[nodiscard]] std::string traceToJson(const RequestTrace& trace);

/// Deterministic synthetic trace: `requests` arrivals spaced `gapMs`
/// apart, cycling over `keys` distinct problems (seed0, seed0+1, ...) of
/// order baseN / block baseB, each request with a fresh rhs seed. The key
/// cycle is what gives the factor cache its hits.
[[nodiscard]] RequestTrace makeSyntheticTrace(index_t requests, index_t keys,
                                              double gapMs, index_t baseN,
                                              index_t baseB,
                                              std::uint64_t seed0);

}  // namespace hplmxp::serve
