// Memory-budgeted LRU cache of completed mixed-precision factorizations.
//
// The factorization is the "loaded model" of the serving stack: O(N^3)
// flops to produce, O(N^2) bytes to keep, and every solve against it is
// cheap. The cache keys entries by ProblemKey and bounds their resident
// bytes; least-recently-used ready entries are evicted when a new
// factorization would exceed the budget.
//
// Concurrent misses on the same key are single-flighted: the first caller
// factors, every other caller blocks on the in-flight entry and shares the
// result — a burst of requests for a new problem costs exactly one
// factorization (the factorCount counter is the proof the serve
// acceptance test asserts on).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>

#include "core/single_solver.h"
#include "serve/problem_key.h"
#include "util/common.h"

namespace hplmxp::serve {

class FactorCache {
 public:
  struct Stats {
    std::uint64_t lookups = 0;     // getOrFactor calls; == hits + misses
    std::uint64_t hits = 0;        // served from cache (ready or coalesced)
    std::uint64_t misses = 0;      // caller ran the factorization
    std::uint64_t coalesced = 0;   // wait events on another caller's flight
    std::uint64_t evictions = 0;   // LRU entries dropped for budget
    std::uint64_t factorCount = 0; // factorizations actually executed
    std::size_t bytesInUse = 0;    // ready entries currently resident
    std::size_t budgetBytes = 0;

    [[nodiscard]] double hitRate() const {
      return lookups > 0
                 ? static_cast<double>(hits) / static_cast<double>(lookups)
                 : 0.0;
    }
  };

  /// What getOrFactor returned and how it got it.
  struct Fetch {
    std::shared_ptr<const Factorization> factors;
    bool hit = false;            // true for ready-entry and coalesced waits
    double factorSeconds = 0.0;  // time this caller spent factoring (miss)
  };

  explicit FactorCache(std::size_t budgetBytes);

  /// Returns the cached factorization for `key`, running `factorFn` under
  /// single-flight on a miss. `factorFn` must produce a Factorization for
  /// exactly this key; it runs outside the cache lock. If it throws, the
  /// in-flight entry is withdrawn, waiters retry (one of them becomes the
  /// new factoring caller), and the exception propagates to this caller.
  Fetch getOrFactor(const ProblemKey& key,
                    const std::function<Factorization()>& factorFn);

  /// Payload-free lookup for virtual-time replays (fleetsim): the same
  /// LRU order, byte budget and stats as getOrFactor, but a miss counts
  /// one factorization and records a ready entry of `bytes` with no
  /// factors behind it. Returns true on a hit. Its caller is single-
  /// threaded, so no entry is ever in flight and nothing coalesces.
  bool lookupPayloadFree(const ProblemKey& key, std::size_t bytes);

  /// Ready-entry lookup without factoring; nullptr on miss. Touches LRU.
  [[nodiscard]] std::shared_ptr<const Factorization> peek(
      const ProblemKey& key);

  /// Called whenever a ready entry is evicted for budget (fleet-level
  /// cache indices track per-shard residency through this). The listener
  /// runs under the cache lock and must not call back into the cache.
  void setEvictionListener(std::function<void(const ProblemKey&)> listener);

  [[nodiscard]] bool contains(const ProblemKey& key) const;
  [[nodiscard]] std::size_t size() const;  // ready entries
  [[nodiscard]] Stats stats() const;
  void clear();  // drops ready entries (in-flight ones complete normally)

 private:
  struct Entry {
    std::shared_ptr<const Factorization> value;  // null while in flight
    bool inFlight = false;
    std::uint64_t lastUse = 0;
    std::size_t bytes = 0;
  };

  /// Evicts ready LRU entries until the budget holds (callers still
  /// holding shared_ptrs keep their factors alive; the cache just stops
  /// accounting for them). Requires the lock.
  void evictForBudgetLocked();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<ProblemKey, Entry> entries_;
  std::function<void(const ProblemKey&)> evictionListener_;
  std::uint64_t useClock_ = 0;
  std::size_t budgetBytes_;
  std::size_t bytesInUse_ = 0;
  Stats stats_;
};

}  // namespace hplmxp::serve
