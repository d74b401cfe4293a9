#include "chaos/sim_error.hh"

#include "common/strutil.hh"

namespace edge::chaos {

int
exitCodeFor(SimError::Reason reason)
{
    switch (reason) {
      case SimError::Reason::None: return 0;
      case SimError::Reason::Watchdog: return 10;
      case SimError::Reason::InvariantViolation: return 11;
      case SimError::Reason::ProtocolPanic: return 12;
      case SimError::Reason::HostDeadline: return 14;
      case SimError::Reason::WorkerCrash: return 15;
      case SimError::Reason::WorkerKilled: return 16;
      case SimError::Reason::WorkerTimeout: return 17;
      case SimError::Reason::WorkerProtocol: return 18;
      case SimError::Reason::AgentLost: return 19;
      case SimError::Reason::ProvenanceMismatch: return 20;
      case SimError::Reason::AgentCorrupt: return 21;
      case SimError::Reason::FabricSimViolation: return 22;
    }
    return 1;
}

bool
isTransient(SimError::Reason reason)
{
    return reason == SimError::Reason::HostDeadline ||
           reason == SimError::Reason::WorkerTimeout ||
           reason == SimError::Reason::AgentLost ||
           reason == SimError::Reason::AgentCorrupt;
}

bool
isWorkerFailure(SimError::Reason reason)
{
    switch (reason) {
      case SimError::Reason::WorkerCrash:
      case SimError::Reason::WorkerKilled:
      case SimError::Reason::WorkerTimeout:
      case SimError::Reason::WorkerProtocol:
      case SimError::Reason::AgentLost:
      case SimError::Reason::AgentCorrupt:
        return true;
      default:
        return false;
    }
}

std::string
SimError::format() const
{
    if (ok())
        return "ok";
    std::string out = strfmt("%s at cycle %llu", enumName(reason),
                             (unsigned long long)cycle);
    if (!invariant.empty())
        out += strfmt(" [invariant: %s]", invariant.c_str());
    if (seq != 0 && seq != kInvalidSeq)
        out += strfmt(" block seq=%llu", (unsigned long long)seq);
    if (node != 0)
        out += strfmt(" node=%u", node);
    out += "\n  ";
    out += message;
    if (!trace.empty()) {
        out += strfmt("\n  last %zu events:", trace.size());
        for (const std::string &line : trace) {
            out += "\n    ";
            out += line;
        }
    }
    return out;
}

} // namespace edge::chaos
