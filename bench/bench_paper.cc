/**
 * @file
 * bench_paper: regenerate the paper's tables and figures, each a row
 * of bench/figures.cc. README.md, "Reproducing the paper", documents
 * the command line.
 */

#include <cstdio>
#include <cstdlib>

#include "bench/figures.hh"
#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"

using namespace edge;
using namespace edge::bench;

namespace {

std::string
figureNames()
{
    std::string names;
    for (const Figure &f : figures())
        names += f.name + " ";
    return names + "all";
}

/** Run one row; its exit status (0 iff every cell was ok). */
int
runFigure(const Figure &fig, BenchArgs args, std::uint64_t iterations)
{
    args.iterations = iterations ? iterations : fig.iterations;
    if (fig.run)
        return fig.run(args.iterations, args.threads);
    std::vector<RunRow> rows =
        runSpecs(fig.grid.specs(args.iterations), args.threads);
    fig.print({fig.grid, rows});
    return finishBench(fig.benchName, args, rows);
}

} // namespace

int
main(int argc, char **argv)
{
    const char *usage = "usage: bench_paper --figure <name>|all "
                        "[iterations] [-j N] [--json path] "
                        "[--repro-dir dir]";
    BenchArgs args;
    args.start = std::chrono::steady_clock::now();
    std::string figure;
    std::uint64_t iterations = 0; // 0: each row's default
    bool repro_flag = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            fatal_if(i + 1 >= argc, "%s needs an argument", arg.c_str());
            return argv[++i];
        };
        if (arg == "--figure") {
            figure = next();
        } else if (arg.rfind("-j", 0) == 0) {
            const char *text = arg == "-j" ? next() : arg.c_str() + 2;
            auto n = parseCount(text, ThreadPool::kMaxThreads);
            fatal_if(!n, "-j wants a count from 0 to %u, got '%s'",
                     ThreadPool::kMaxThreads, text);
            args.threads = static_cast<unsigned>(*n);
        } else if (arg == "--json") {
            args.jsonPath = next();
        } else if (arg == "--repro-dir") {
            args.reproDir = next();
            repro_flag = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("%s\nfigures: %s\n", usage, figureNames().c_str());
            return 0;
        } else if (!arg.empty() && arg[0] != '-') {
            auto n = parseCount(arg);
            fatal_if(!n || *n == 0,
                     "the iteration count must be a positive number, "
                     "got '%s'",
                     arg.c_str());
            iterations = *n;
        } else {
            fatal("unknown argument '%s' (%s)", arg.c_str(), usage);
        }
    }
    if (const char *dir = std::getenv("EDGE_REPRO_DIR"); !repro_flag && dir)
        args.reproDir = dir;

    std::vector<const Figure *> selected;
    if (figure == "all") {
        fatal_if(!args.jsonPath.empty(),
                 "--json writes one figure's cells; name one figure, "
                 "not all");
        for (const Figure &f : figures())
            selected.push_back(&f);
    } else if (const Figure *f = findFigure(figure)) {
        fatal_if(f->run && (!args.jsonPath.empty() || repro_flag),
                 "--json and --repro-dir apply to grid figures; "
                 "'%s' runs no grid",
                 figure.c_str());
        selected.push_back(f);
    } else {
        fatal("unknown figure '%s' (--figure takes one of: %s)",
              figure.c_str(), figureNames().c_str());
    }

    int status = 0;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (i != 0)
            std::printf("\n");
        status |= runFigure(*selected[i], args, iterations);
    }
    return status;
}
