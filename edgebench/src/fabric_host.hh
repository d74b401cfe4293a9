/**
 * @file
 * An in-benchmark campaign fabric: a serve::Fabric coordinator on
 * loopback plus agent processes that are this very binary re-entered
 * through `--agent` into serve::agentMain. The host owns the agents:
 * destroying it closes the coordinator's sockets, which makes every
 * agent exit, and then reaps them.
 */

#ifndef EDGEBENCH_FABRIC_HOST_HH
#define EDGEBENCH_FABRIC_HOST_HH

#include <sys/types.h>

#include <memory>
#include <string>
#include <vector>

#include "serve/fabric.hh"

namespace edgebench {

class FabricHost
{
  public:
    /**
     * Two agents sharing `slots` cell slots (one agent when `slots` is
     * 1); `journalPath` is a fresh group-commit journal ("" = none).
     */
    FabricHost(unsigned slots, std::string journalPath);
    ~FabricHost();
    FabricHost(const FabricHost &) = delete;
    FabricHost &operator=(const FabricHost &) = delete;

    /** Spawn the agents and pump until all have registered; the
     *  fabric must have been started (bound to its loopback port). */
    bool registerAgents(std::string *err);

    edge::serve::Fabric &fabric() { return *_fabric; }

  private:
    unsigned _agents;
    unsigned _slots;
    std::unique_ptr<edge::serve::Fabric> _fabric;
    std::vector<pid_t> _pids;
};

/**
 * Entry point of an agent process:
 * `edgebench --agent <host:port> --slots N --name S`.
 */
int agentProcessMain(int argc, char **argv);

} // namespace edgebench

#endif // EDGEBENCH_FABRIC_HOST_HH
