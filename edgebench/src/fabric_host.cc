#include "fabric_host.hh"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/logging.hh"
#include "serve/agent.hh"

namespace edgebench {

using edge::strfmt;

FabricHost::FabricHost(unsigned slots, std::string journalPath)
    : _agents(slots >= 2 ? 2 : 1), _slots(slots / _agents)
{
    edge::serve::FabricOptions fo;
    fo.journalPath = std::move(journalPath);
    _fabric = std::make_unique<edge::serve::Fabric>(fo);
}

FabricHost::~FabricHost()
{
    // Closing the coordinator's sockets is the agents' signal to exit
    // (they run without reconnect attempts).
    _fabric.reset();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    for (pid_t pid : _pids) {
        int status = 0;
        while (::waitpid(pid, &status, WNOHANG) == 0) {
            if (std::chrono::steady_clock::now() >= deadline) {
                ::kill(pid, SIGKILL);
                ::waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
    }
}

bool
FabricHost::registerAgents(std::string *err)
{
    const std::string coordinator =
        strfmt("127.0.0.1:%u", static_cast<unsigned>(_fabric->port()));
    const std::string slots = std::to_string(_slots);
    const pid_t parent = ::getpid();
    for (unsigned i = 0; i < _agents; ++i) {
        // Everything the child needs is built before fork: between
        // fork and exec only async-signal-safe calls are allowed.
        const std::string name = strfmt("edgebench-agent-%u", i);
        pid_t pid = ::fork();
        if (pid < 0) {
            *err = strfmt("fork: %s", std::strerror(errno));
            return false;
        }
        if (pid == 0) {
            ::prctl(PR_SET_PDEATHSIG, SIGKILL);
            if (::getppid() != parent)
                ::_exit(1);
            ::execl("/proc/self/exe", "edgebench", "--agent",
                    coordinator.c_str(), "--slots", slots.c_str(),
                    "--name", name.c_str(), static_cast<char *>(nullptr));
            ::_exit(127);
        }
        _pids.push_back(pid);
    }

    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (_fabric->liveAgents() < _agents) {
        if (std::chrono::steady_clock::now() >= deadline) {
            *err = strfmt("only %zu of %u agents registered in 30 s",
                          _fabric->liveAgents(), _agents);
            return false;
        }
        _fabric->pump(20);
    }
    return true;
}

int
agentProcessMain(int argc, char **argv)
{
    edge::serve::AgentOptions opts;
    opts.reconnectMax = 0; // the coordinator closing means "exit"
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--agent")
            opts.coordinator = argv[i + 1];
        else if (flag == "--slots")
            opts.slots = static_cast<unsigned>(
                std::strtoul(argv[i + 1], nullptr, 10));
        else if (flag == "--name")
            opts.name = argv[i + 1];
    }
    edge::setLogLevel(edge::LogLevel::Silent);
    return edge::serve::agentMain(opts);
}

} // namespace edgebench
