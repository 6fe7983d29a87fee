// Discrete-event core of the fleet co-simulator.
//
// One event heap, one virtual clock (a util ManualClock, so everything
// the simulator reuses — Timers, simmpi poll backoff — can read simulated
// time through the same ClockSource seam real code reads the wall clock
// through), and deterministic ordering:
// events execute in (time, node, seq) order, so two runs of the same
// configuration produce byte-identical event traces regardless of host
// speed or thread count. The FNV-1a hash over the executed trace is the
// determinism regression's oracle.
//
// Events are plain data — no std::function payloads. Each event names
// the Workload that owns it; the simulator dispatches by index. That
// keeps the heap cheap at the million-event scale a 100k-request replay
// produces, and makes every executed event hashable.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "util/clock.h"
#include "util/common.h"

namespace hplmxp::fleetsim {

enum class EventClass : std::uint8_t {
  kLuIteration,      // one block step of the factorization completes
  kLuPanelArrival,   // the broadcast panel lands on a peer rank
  kLuDone,           // factorization finished
  kRequestArrival,   // a solve request reaches its shard
  kBatchWindow,      // a batching window for one key expires
  kSolveDone,        // a dispatched batch finishes on a shard
  kCrash,            // a shard/node dies
  kResurrect,        // a crashed shard/node returns
  kSlowdown,         // a node's throughput multiplier degrades
  // Appended (never reordered): existing golden trace hashes depend on
  // the numeric values above.
  kHeartbeat,        // a shard's periodic liveness pulse (phi detector)
  kHedgeFire,        // a request's hedge delay expired (speculative copy)
};

[[nodiscard]] const char* toString(EventClass cls);

/// Parses the names toString emits (and the CLI accepts for `break`).
/// Throws CheckError on unknown names.
[[nodiscard]] EventClass eventClassFromString(const std::string& name);

/// One scheduled event. `seq` is the global admission counter — the
/// deterministic tie-breaker for simultaneous events and the trace's
/// causal order witness.
struct Event {
  double time = 0.0;
  index_t node = 0;
  std::uint64_t seq = 0;
  EventClass cls = EventClass::kLuIteration;
  index_t workload = -1;
  std::int64_t a = 0;  // payload (iteration k, request index, shard, ...)
  std::int64_t b = 0;  // payload (key index, generation, batch id, ...)
  double x = 0.0;      // payload (slowdown factor, cost seconds, ...)
};

class Simulator;

/// A workload plugs model logic into the event core: it schedules its
/// initial events in start() and reacts to its own events in handle()
/// (usually scheduling more).
class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  virtual void start(Simulator& sim) = 0;
  virtual void handle(Simulator& sim, const Event& event) = 0;
  [[nodiscard]] virtual bool done() const = 0;
};

/// A breakpoint matches PENDING events: the simulator stops *before*
/// executing a matching event, mgsim-style, so the CLI can inspect the
/// world the event is about to change.
struct Breakpoint {
  enum class Kind { kEventClass, kNode, kTime };
  Kind kind = Kind::kEventClass;
  EventClass cls = EventClass::kLuIteration;
  index_t node = 0;
  double time = 0.0;

  [[nodiscard]] bool matches(const Event& event) const;
  [[nodiscard]] std::string toString() const;
};

/// Why a run() stopped.
enum class StopReason { kExhausted, kBreakpoint, kTimeLimit, kEventLimit };

class Simulator {
 public:
  Simulator();

  /// Registers a workload (non-owning) and returns its dispatch index.
  index_t addWorkload(Workload* workload);

  /// Dispatch index of a registered workload (CheckError if foreign) —
  /// how a workload learns its own address inside start().
  [[nodiscard]] index_t workloadIndex(const Workload* workload) const;

  /// Calls start() on every registered workload (once).
  void startWorkloads();

  /// Enqueues an event at absolute virtual time `time` (>= now()).
  void schedule(double time, index_t node, EventClass cls, index_t workload,
                std::int64_t a = 0, std::int64_t b = 0, double x = 0.0);

  /// Executes exactly one event (ignoring breakpoints). Returns false
  /// when the heap is empty.
  bool step();

  /// Runs until the heap drains, a breakpoint fires, or `maxEvents`
  /// execute (-1 = unbounded).
  StopReason run(index_t maxEvents = -1);

  /// Runs until virtual time would exceed `time` (the first event later
  /// than `time` stays pending), a breakpoint fires, or the heap drains.
  StopReason runUntil(double time);

  // -- breakpoints -------------------------------------------------------
  index_t addBreakpoint(Breakpoint bp);
  void clearBreakpoints() { breakpoints_.clear(); }
  [[nodiscard]] const std::vector<Breakpoint>& breakpoints() const {
    return breakpoints_;
  }
  /// The pending event the last run() stopped in front of (valid after a
  /// kBreakpoint stop, until the next step/run).
  [[nodiscard]] const Event* breakEvent() const;

  // -- introspection -----------------------------------------------------
  [[nodiscard]] double now() const { return clock_.nowSeconds(); }
  [[nodiscard]] std::size_t pendingEvents() const { return heap_.size(); }
  [[nodiscard]] std::uint64_t executedEvents() const { return executed_; }
  [[nodiscard]] const Event* peek() const;
  /// The virtual clock, exposed as a ClockSource so reused components
  /// (Timer, simmpi poll backoff) can read
  /// simulated time.
  [[nodiscard]] const ManualClock& clock() const { return clock_; }

  // -- trace -------------------------------------------------------------
  /// Keeps the most recent `limit` executed events for `trace` display
  /// (the hash always covers ALL executed events).
  void setTraceLimit(std::size_t limit);
  [[nodiscard]] const std::deque<Event>& trace() const { return trace_; }
  /// FNV-1a over every executed event's (time bits, node, seq, class,
  /// workload, a, b, x bits) — the determinism oracle.
  [[nodiscard]] std::uint64_t traceHash() const { return traceHash_; }

 private:
  [[nodiscard]] bool heapLess(std::size_t i, std::size_t j) const;
  void heapPush(const Event& event);
  Event heapPop();
  void execute(const Event& event);
  [[nodiscard]] const Breakpoint* matchBreakpoint(const Event& event) const;

  std::vector<Event> heap_;  // binary min-heap by (time, node, seq)
  std::vector<Workload*> workloads_;
  std::vector<Breakpoint> breakpoints_;
  ManualClock clock_;
  std::uint64_t nextSeq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t traceHash_ = 14695981039346656037ull;  // FNV offset basis
  std::deque<Event> trace_;
  std::size_t traceLimit_ = 256;
  Event breakEvent_{};
  bool breakValid_ = false;
  std::uint64_t breakSeq_ = ~0ull;  // already-reported event; don't re-break
  bool started_ = false;
};

}  // namespace hplmxp::fleetsim
