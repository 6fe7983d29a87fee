#include "fleetsim/debug_cli.h"

#include <iomanip>
#include <istream>
#include <ostream>
#include <sstream>

namespace hplmxp::fleetsim {

DebugCli::DebugCli(FleetSession& session, std::istream& in, std::ostream& out)
    : session_(&session), in_(&in), out_(&out) {}

int DebugCli::runLoop() {
  std::string line;
  *out_ << "fleetsim: " << session_->topology().nodes() << " nodes, "
        << session_->sim().pendingEvents() << " pending events\n";
  while (true) {
    *out_ << "(fleetsim) " << std::flush;
    if (!std::getline(*in_, line)) {
      break;
    }
    if (!execute(line)) {
      break;
    }
  }
  return errors_;
}

void DebugCli::printEvent(const Event& event) {
  *out_ << std::fixed << std::setprecision(3) << "  [" << event.time * 1e3
        << "ms] node " << event.node << " " << toString(event.cls) << " (a="
        << event.a << " b=" << event.b << " seq=" << event.seq << ")\n";
  out_->unsetf(std::ios_base::floatfield);
}

void DebugCli::reportStop(StopReason reason) {
  switch (reason) {
    case StopReason::kExhausted:
      *out_ << "event heap exhausted at " << session_->sim().now() * 1e3
            << "ms\n";
      break;
    case StopReason::kBreakpoint: {
      const Event* event = session_->sim().breakEvent();
      *out_ << "breakpoint hit; next event:\n";
      if (event != nullptr) {
        printEvent(*event);
      }
      break;
    }
    case StopReason::kTimeLimit:
      *out_ << "time limit reached at " << session_->sim().now() * 1e3
            << "ms\n";
      break;
    case StopReason::kEventLimit:
      break;
  }
}

void DebugCli::cmdStep(std::istringstream& args) {
  index_t count = 1;
  args >> count;
  HPLMXP_REQUIRE(count >= 1, "step count must be >= 1");
  for (index_t i = 0; i < count; ++i) {
    const Event* next = session_->sim().peek();
    if (next == nullptr) {
      *out_ << "event heap exhausted\n";
      break;
    }
    const Event shown = *next;
    session_->sim().step();
    printEvent(shown);
  }
}

void DebugCli::cmdRun() { reportStop(session_->sim().run()); }

void DebugCli::cmdRunUntil(std::istringstream& args) {
  double ms = 0.0;
  HPLMXP_REQUIRE(static_cast<bool>(args >> ms), "run-until needs a time (ms)");
  reportStop(session_->sim().runUntil(ms * 1e-3));
}

void DebugCli::cmdBreak(std::istringstream& args) {
  std::string what;
  HPLMXP_REQUIRE(static_cast<bool>(args >> what),
                 "break needs class|node|time");
  Breakpoint bp;
  if (what == "class") {
    std::string name;
    HPLMXP_REQUIRE(static_cast<bool>(args >> name),
                   "break class needs an event class name");
    bp.kind = Breakpoint::Kind::kEventClass;
    bp.cls = eventClassFromString(name);
  } else if (what == "node") {
    bp.kind = Breakpoint::Kind::kNode;
    HPLMXP_REQUIRE(static_cast<bool>(args >> bp.node),
                   "break node needs a node index");
  } else if (what == "time") {
    double ms = 0.0;
    HPLMXP_REQUIRE(static_cast<bool>(args >> ms),
                   "break time needs a time (ms)");
    bp.kind = Breakpoint::Kind::kTime;
    bp.time = ms * 1e-3;
  } else {
    HPLMXP_REQUIRE(false, ("unknown break kind: " + what).c_str());
  }
  const index_t id = session_->sim().addBreakpoint(bp);
  *out_ << "breakpoint " << id << ": " << bp.toString() << "\n";
}

void DebugCli::cmdTrace(std::istringstream& args) {
  std::size_t count = 10;
  args >> count;
  const std::deque<Event>& trace = session_->sim().trace();
  const std::size_t shown = std::min(count, trace.size());
  *out_ << "last " << shown << " of " << session_->sim().executedEvents()
        << " executed events (hash " << std::hex
        << session_->sim().traceHash() << std::dec << "):\n";
  for (std::size_t i = trace.size() - shown; i < trace.size(); ++i) {
    printEvent(trace[i]);
  }
}

void DebugCli::cmdShow(std::istringstream& args) {
  std::string what;
  index_t id = 0;
  HPLMXP_REQUIRE(static_cast<bool>(args >> what >> id),
                 "show needs: node|shard|cache|queue|health <index>");
  if (what == "node") {
    const Topology& topo = session_->topology();
    *out_ << "node " << id << ": multiplier "
          << topo.nodeMultiplier(id) << (topo.isDegraded(id)
                                             ? " (degraded die)"
                                             : "");
    if (session_->lu() != nullptr) {
      *out_ << ", effective " << session_->lu()->effectiveMultiplier(id);
    }
    *out_ << "\n";
    return;
  }
  HPLMXP_REQUIRE(session_->serve() != nullptr,
                 "no serve workload in this session");
  const ServeWorkload::ShardView view = session_->serve()->shardView(id);
  if (what == "shard") {
    *out_ << "shard " << view.shard << " @ node " << view.node << ": "
          << (view.crashed ? "crashed" : "healthy") << ", slow-factor "
          << view.slowFactor << ", routed " << view.routed << ", completed "
          << view.completed << ", busy-until " << view.busyUntil * 1e3
          << "ms\n";
  } else if (what == "cache") {
    *out_ << "shard " << view.shard << " cache: " << view.cachedKeys
          << " keys, " << view.cachedMb << " MB resident\n";
  } else if (what == "queue") {
    *out_ << "shard " << view.shard << " queue: " << view.queuedRequests
          << " pending requests\n";
  } else if (what == "health") {
    const serve::ShardHealthMonitor::ShardSnapshot health =
        session_->serve()->healthMonitor().shardSnapshot(
            id, session_->sim().now());
    *out_ << "shard " << id << " @ node " << view.node << ": state "
          << serve::toString(health.state) << ", phi " << health.phi
          << ", last heartbeat " << health.lastHeartbeatAge * 1e3
          << "ms ago, heartbeats " << health.heartbeats << ", quarantines "
          << health.quarantines << "\n";
  } else {
    HPLMXP_REQUIRE(false, ("unknown show target: " + what).c_str());
  }
}

void DebugCli::cmdStats() { *out_ << session_->report().toJson(); }

bool DebugCli::execute(const std::string& line) {
  std::istringstream args(line);
  std::string cmd;
  if (!(args >> cmd) || cmd[0] == '#') {
    return true;  // blank line / script comment
  }
  try {
    if (cmd == "quit" || cmd == "exit") {
      return false;
    } else if (cmd == "help") {
      *out_ << "commands: step [n] | run | run-until <ms> | break "
               "class|node|time <arg> | breaks | clear-breaks | trace [n] | "
               "show node|shard|cache|queue|health <i> | stats | quit\n";
    } else if (cmd == "step") {
      cmdStep(args);
    } else if (cmd == "run") {
      cmdRun();
    } else if (cmd == "run-until") {
      cmdRunUntil(args);
    } else if (cmd == "break") {
      cmdBreak(args);
    } else if (cmd == "breaks") {
      const std::vector<Breakpoint>& bps = session_->sim().breakpoints();
      for (std::size_t i = 0; i < bps.size(); ++i) {
        *out_ << "breakpoint " << i << ": " << bps[i].toString() << "\n";
      }
    } else if (cmd == "clear-breaks") {
      session_->sim().clearBreakpoints();
      *out_ << "breakpoints cleared\n";
    } else if (cmd == "trace") {
      cmdTrace(args);
    } else if (cmd == "show") {
      cmdShow(args);
    } else if (cmd == "stats") {
      cmdStats();
    } else {
      HPLMXP_REQUIRE(false, ("unknown command: " + cmd).c_str());
    }
  } catch (const CheckError& error) {
    ++errors_;
    *out_ << "error: " << error.what() << "\n";
  }
  return true;
}

}  // namespace hplmxp::fleetsim
