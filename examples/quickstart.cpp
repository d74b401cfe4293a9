/**
 * @file
 * Quickstart: author an EDGE program with the block-builder DSL,
 * run it on the DSRE machine, and read the results.
 *
 *   $ ./build/examples/quickstart
 *
 * The program is a small checksum loop: it streams over an array,
 * accumulates a mixed checksum in a register, and stores the result
 * to memory. The simulator runs the functional reference first (the
 * golden model), then the timing machine, and verifies that both
 * commit exactly the same architectural state.
 */

#include <cstdio>

#include "compiler/builder.hh"
#include "sim/simulator.hh"

using namespace edge;

int
main()
{
    // ------------------------------------------------------------------
    // 1. Build the program: hyperblocks of dataflow instructions.
    // ------------------------------------------------------------------
    compiler::ProgramBuilder pb("checksum");

    constexpr Addr kData = 0x10000;
    constexpr Addr kResult = 0x1000;
    constexpr std::uint64_t kWords = 512;

    // Initial memory image and registers.
    {
        std::vector<Word> data(kWords);
        for (std::uint64_t i = 0; i < kWords; ++i)
            data[i] = i * 2654435761u;
        pb.initDataWords(kData, data);
    }
    pb.setInitReg(1, 0);      // i
    pb.setInitReg(2, kWords); // trip count
    pb.setInitReg(5, 0);      // checksum accumulator

    // The loop block. Values are dataflow edges: every instruction
    // names its consumers, there are no register renames inside a
    // block, and loads/stores are ordered by their emission order.
    auto &loop = pb.newBlock("loop");
    {
        compiler::Val i = loop.readReg(1);
        compiler::Val n = loop.readReg(2);
        compiler::Val acc = loop.readReg(5);

        compiler::Val w =
            loop.load(loop.addi(loop.shli(i, 3), kData), 8);
        compiler::Val mixed =
            loop.bxor(loop.muli(acc, 31), loop.addi(w, 7));
        loop.writeReg(5, mixed);

        compiler::Val i2 = loop.addi(i, 1);
        loop.writeReg(1, i2);
        loop.branchCond(loop.tlt(i2, n), "loop", "done");
    }

    // The epilogue stores the checksum and halts the machine.
    auto &done = pb.newBlock("done");
    {
        done.store(done.imm(kResult), done.readReg(5), 8);
        done.branchHalt();
    }

    pb.setEntry("loop");
    isa::Program prog = pb.build(); // validated EDGE program

    std::printf("program '%s': %zu static blocks, %zu instructions\n",
                prog.name().c_str(), prog.numBlocks(),
                prog.staticInsts());

    // ------------------------------------------------------------------
    // 2. Run it on the DSRE machine (blind load speculation repaired
    //    by distributed selective re-execution).
    // ------------------------------------------------------------------
    sim::Simulator sim(std::move(prog), sim::Configs::dsre());
    sim::RunResult r = sim.run();

    std::printf("\nran %llu blocks / %llu instructions in %llu "
                "cycles -> IPC %.2f\n",
                static_cast<unsigned long long>(r.committedBlocks),
                static_cast<unsigned long long>(r.committedInsts),
                static_cast<unsigned long long>(r.cycles), r.ipc());
    std::printf("architectural state matches the reference: %s\n",
                r.archMatch ? "yes" : "NO (bug!)");
    auto n = [&r](const char *counter) {
        return static_cast<unsigned long long>(r.counter(counter));
    };
    std::printf("dependence violations: %llu, DSRE resends: %llu, "
                "re-executions: %llu\n",
                n("lsq.violations"), n("lsq.resends"),
                n("core.alu_reexecs"));

    // ------------------------------------------------------------------
    // 3. Every counter the machine keeps is in the stat set.
    // ------------------------------------------------------------------
    std::printf("\nselected statistics:\n");
    for (const char *name :
         {"core.committed_blocks", "lsq.loads", "lsq.forwards",
          "net.messages", "gcn.messages", "nbp.correct"}) {
        std::printf("  %-24s %llu\n", name,
                    static_cast<unsigned long long>(
                        sim.stats().counterValue(name)));
    }
    return r.archMatch ? 0 : 1;
}
