/**
 * @file
 * The paper's headline experiment in miniature: run one
 * aliasing-heavy workload under every misspeculation-handling
 * mechanism and compare. Shows the spectrum the paper describes —
 * never speculate (conservative), speculate and flush (blind),
 * predict and flush (store sets), speculate and selectively
 * re-execute (DSRE, optionally with value prediction), and the
 * perfect oracle.
 *
 *   $ ./build/examples/mechanism_comparison [kernel] [iterations]
 */

#include <cstdio>
#include <cstdlib>

#include "sim/simulator.hh"
#include "workloads/workloads.hh"

using namespace edge;

int
main(int argc, char **argv)
{
    std::string kernel = argc > 1 ? argv[1] : "bzip2ish";
    wl::KernelParams kp;
    kp.iterations =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 2000;

    std::printf("workload: %s (%llu iterations)\n", kernel.c_str(),
                static_cast<unsigned long long>(kp.iterations));
    for (const auto &info : wl::kernels())
        if (info.name == kernel)
            std::printf("  models %s: %s\n", info.specAnalog.c_str(),
                        info.description.c_str());

    std::printf("\n%-16s %8s %8s %10s %9s %9s %8s\n", "mechanism",
                "cycles", "IPC", "violations", "flushes", "resends",
                "holds");
    std::printf("%s\n", std::string(74, '-').c_str());

    double base_cycles = 0.0;
    for (const auto &name : sim::Configs::allNames()) {
        sim::Simulator sim(wl::build(kernel, kp),
                           sim::Configs::byName(name));
        sim::RunResult r = sim.run();
        if (!r.halted || !r.archMatch) {
            std::fprintf(stderr, "%s failed!\n", name.c_str());
            return 1;
        }
        if (base_cycles == 0.0)
            base_cycles = static_cast<double>(r.cycles);
        auto n = [&r](const char *counter) {
            return static_cast<unsigned long long>(r.counter(counter));
        };
        std::printf("%-16s %8llu %8.2f %10llu %9llu %9llu %8llu\n",
                    name.c_str(),
                    static_cast<unsigned long long>(r.cycles), r.ipc(),
                    n("lsq.violations"), n("core.viol_flushes"),
                    n("lsq.resends"), n("lsq.policy_holds"));
    }

    std::printf(
        "\nHow to read this:\n"
        "  conservative     never speculates: loads stall on every\n"
        "                   unresolved older store (the holds).\n"
        "  blind-flush      always speculates: every violation costs\n"
        "                   a full window flush.\n"
        "  storesets-flush  learns violating pairs and serialises\n"
        "                   them (fewer violations, more holds).\n"
        "  dsre             always speculates; violations become\n"
        "                   cheap selective re-executions (resends).\n"
        "  oracle           issues each load exactly when provably\n"
        "                   safe: the paper's upper bound.\n");
    return 0;
}
