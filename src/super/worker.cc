#include "super/worker.hh"

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <thread>

#include "common/logging.hh"
#include "sim/simulator.hh"
#include "super/cell.hh"
#include "triage/result_json.hh"

namespace edge::super {

namespace {

/** Deliberate misbehaviour for the supervisor's classification
 *  tests; see CellSpec::testCrash. Never returns when it acts. */
void
maybeTestCrash(const std::string &mode, std::ostream &out)
{
    if (mode.empty())
        return;
    if (mode == "segv") {
        // Die on the signal itself, as a real segfault does: a store
        // through null would be caught by a sanitizer's handler,
        // which exits with a status instead.
        std::signal(SIGSEGV, SIG_DFL);
        std::raise(SIGSEGV);
    } else if (mode == "abort") {
        std::abort();
    } else if (mode == "kill") {
        std::raise(SIGKILL);
    } else if (mode == "hang") {
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(1));
    } else if (mode == "exit3") {
        std::exit(3);
    } else if (mode == "garbage") {
        out << "this is not a result document\n";
        out.flush();
        std::exit(0);
    }
    fprintf(stderr, "edgesim: unknown test_crash mode '%s'\n",
            mode.c_str());
    std::exit(2);
}

} // namespace

int
workerCellMain(std::istream &in, std::ostream &out)
{
    // Bounded read: a supervisor that never stops writing (or a
    // corrupt stream with no terminator) must produce a structured
    // WorkerProtocol failure, not an unbounded buffer. The spec is
    // everything up to EOF, capped at kMaxCellSpecBytes.
    std::string spec;
    spec.reserve(64 * 1024);
    char chunk[65536];
    while (in.read(chunk, sizeof(chunk)), in.gcount() > 0) {
        spec.append(chunk, static_cast<std::size_t>(in.gcount()));
        if (spec.size() > kMaxCellSpecBytes) {
            fprintf(stderr,
                    "edgesim: worker-cell: WorkerProtocol: spec "
                    "exceeds the %zu-byte bound — refusing to "
                    "buffer further\n",
                    kMaxCellSpecBytes);
            return 2;
        }
    }

    triage::JsonValue root;
    std::string err;
    if (!triage::JsonValue::parse(spec, &root, &err)) {
        fprintf(stderr,
                "edgesim: worker-cell: WorkerProtocol: malformed or "
                "partial spec: %s\n",
                err.c_str());
        return 2;
    }
    CellSpec cell;
    if (!cellFromJson(root, &cell, &err)) {
        fprintf(stderr,
                "edgesim: worker-cell: WorkerProtocol: bad spec: %s\n",
                err.c_str());
        return 2;
    }

    maybeTestCrash(cell.testCrash, out);

    std::optional<isa::Program> built =
        triage::buildProgram(cell.program, &err);
    if (!built) {
        fprintf(stderr,
                "edgesim: worker-cell: WorkerProtocol: bad spec: %s\n",
                err.c_str());
        return 2;
    }

    // The run itself. Failures are structured data in the result;
    // only the protocol can make this path return nonzero. (The
    // decoder already checked the program: the kernel exists or the
    // embedded body passes Program::validateAll.)
    sim::Simulator sim(std::move(*built), cell.config);
    sim::RunResult r = sim.run(cell.config, cell.maxCycles);

    out << triage::resultToJson(r).dumpCompact() << "\n";
    out.flush();
    return out ? 0 : 2;
}

} // namespace edge::super
