/**
 * @file
 * A guided tour of the DSRE protocol knobs on a workload with heavy
 * store-to-load traffic: what the speculative waves, the commit
 * wave, value-identity squashing, and the resend budget each
 * contribute. Prints one row per machine variant with the protocol
 * event counts next to performance.
 *
 *   $ ./build/examples/protocol_tour [iterations]
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

int
main(int argc, char **argv)
{
    wl::KernelParams kp;
    kp.iterations =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 1500;

    struct Variant
    {
        std::string name;
        std::function<void(core::MachineConfig &)> tweak;
    };
    std::vector<Variant> variants = {
        {"DSRE (default)", [](core::MachineConfig &) {}},
        {"no squash",
         [](core::MachineConfig &c) {
             c.core.squashIdenticalValues = false;
         }},
        {"commit wave on ALU",
         [](core::MachineConfig &c) {
             c.core.commitWaveUsesAlu = true;
         }},
        {"resend budget 1",
         [](core::MachineConfig &c) {
             c.lsq.maxResendsPerLoad = 1;
         }},
        {"resend budget 32",
         [](core::MachineConfig &c) {
             c.lsq.maxResendsPerLoad = 32;
         }},
    };

    std::printf("protocol tour on parserish (%llu iterations)\n\n",
                static_cast<unsigned long long>(kp.iterations));
    std::printf("%-20s %8s %9s %9s %9s %9s\n", "variant", "IPC",
                "resends", "upgrades", "squashes", "defers");
    std::printf("%s\n", std::string(68, '-').c_str());

    for (const Variant &v : variants) {
        core::MachineConfig cfg = sim::Configs::dsre();
        v.tweak(cfg);
        sim::Simulator sim(wl::build("parserish", kp), cfg);
        sim::RunResult r = sim.run();
        if (!r.halted || !r.archMatch) {
            std::fprintf(stderr, "%s failed!\n", v.name.c_str());
            return 1;
        }
        auto n = [&r](const char *counter) {
            return static_cast<unsigned long long>(r.counter(counter));
        };
        std::printf("%-20s %8.2f %9llu %9llu %9llu %9llu\n",
                    v.name.c_str(), r.ipc(),
                    n("lsq.resends"), n("core.upgrades"),
                    n("core.squashes"), n("lsq.deferrals"));
    }

    std::printf(
        "\nWhat the knobs are:\n"
        "  resends   corrective speculative waves launched by the\n"
        "            LSQ when a store changes a consumed value;\n"
        "  upgrades  commit-wave messages that only promote values\n"
        "            from speculative to final;\n"
        "  squashes  re-executions whose result was value-identical\n"
        "            and therefore never re-sent downstream;\n"
        "  defers    corrections folded into the commit wave by the\n"
        "            per-load resend budget (storm control).\n");
    return 0;
}
