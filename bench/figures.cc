#include "bench/figures.hh"

#include <cmath>
#include <cstdio>
#include <functional>

#include "common/logging.hh"
#include "common/strutil.hh"
#include "common/thread_pool.hh"
#include "predictor/oracle.hh"

namespace edge::bench {

namespace {

using Cfg = core::MachineConfig;

/** Geometric mean (values must be positive). */
double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::string
fmtF(double v, int prec = 2)
{
    return strfmt("%.*f", prec, v);
}

std::string
fmtU(std::uint64_t v)
{
    return strfmt("%llu", static_cast<unsigned long long>(v));
}

/** One aligned table row: "name | v0 v1 v2 ...". */
void
printRow(const std::string &name, const std::vector<std::string> &cells,
         unsigned width = 12)
{
    std::fputs(padRight(name, 14).c_str(), stdout);
    for (const auto &c : cells)
        std::fputs(padLeft(c, width).c_str(), stdout);
    std::fputc('\n', stdout);
}

/** A table header and its separator line. */
void
printHeader(const std::string &name, const std::vector<std::string> &cols,
            unsigned width = 12)
{
    printRow(name, cols, width);
    std::fputs((std::string(14 + cols.size() * width, '-') + "\n").c_str(),
               stdout);
}

std::vector<std::string>
pointLabels(const Grid &g)
{
    std::vector<std::string> labels;
    for (const Point &p : g.points)
        labels.push_back(p.label);
    return labels;
}

std::size_t
indexOf(const std::vector<std::string> &names, const std::string &name)
{
    for (std::size_t i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    panic("grid has no mechanism or point '%s'", name.c_str());
}


/** One row per mechanism, one column per axis point. */
void
printSweep(const Results &r, unsigned width,
           const std::function<double(std::size_t c, std::size_t p)> &value)
{
    printHeader("mechanism", pointLabels(r.grid), width);
    for (std::size_t c = 0; c < r.grid.configs.size(); ++c) {
        std::vector<std::string> cells;
        for (std::size_t p = 0; p < r.grid.points.size(); ++p)
            cells.push_back(fmtF(value(c, p)));
        printRow(r.grid.configs[c], cells, width);
    }
}

/** Per kernel: "[kernel]", then its IPC sweep. */
void
printKernelTables(const Results &r, unsigned width)
{
    for (std::size_t k = 0; k < r.grid.kernels.size(); ++k) {
        std::printf("\n[%s]\n", r.grid.kernels[k].c_str());
        printSweep(r, width, [&](std::size_t c, std::size_t p) {
            return r.ipc(k, c, p);
        });
    }
}

/** Figs. 9 and 11: the kernel sweeps, then DSRE over store sets. */
void
printFlushVsDsre(const Results &r, const char *title, unsigned width)
{
    std::printf("%s\n", title);
    printKernelTables(r, width);
    std::size_t dsre = r.config("dsre");
    std::size_t flush = r.config("storesets-flush");
    std::printf("\n[geomean DSRE speedup over store-sets+flush]\n");
    printHeader("", pointLabels(r.grid), width);
    std::vector<std::string> cells;
    for (std::size_t p = 0; p < r.grid.points.size(); ++p)
        cells.push_back(fmtF(r.speedup(dsre, p, flush, p)));
    printRow("speedup", cells, width);
}

// Table 1: the simulated machine's parameters, the defaults every
// other experiment runs with unless a sweep says otherwise.
int
runTable1(std::uint64_t, unsigned)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    const auto &c = cfg.core;
    const auto &m = cfg.mem;

    std::printf("Table 1: simulated EDGE (TRIPS-like) core parameters\n");
    std::printf("----------------------------------------------------\n");
    std::printf("%-28s %u x %u grid, %u RS slots/node/frame\n",
                "Execution substrate", c.rows, c.cols, c.slotsPerNode);
    std::printf("%-28s %u frames (window %u instructions)\n",
                "Speculation depth", c.numFrames,
                c.numFrames * isa::kMaxBlockInsts);
    std::printf("%-28s up to %u insts, %u loads/stores, %u reg "
                "reads/writes\n",
                "Block (hyperblock)", isa::kMaxBlockInsts,
                isa::kMaxBlockMemOps, isa::kMaxBlockReads);
    std::printf("%-28s %u cycle/hop, X-Y routed, 1 msg/link/cycle; "
                "separate status (commit-wave) network\n",
                "Operand network", c.hopLatency);
    std::printf("%-28s %u insts/cycle, one block at a time\n",
                "Fetch / map", c.fetchWidth);
    std::printf("%-28s int %u / mul %u / div %u / fp %u / fdiv %u "
                "cycles\n",
                "Execution latencies", c.latIntAlu, c.latIntMul,
                c.latIntDiv, c.latFpAlu, c.latFpDiv);
    std::printf("%-28s %u banks x %zu KB, %u-way, %u-cycle hit, "
                "%u MSHRs\n",
                "L1 D-cache", m.numDBanks, m.l1dSizeBytes / 1024,
                m.l1dAssoc, m.l1dHitLatency, m.l1dMshrs);
    std::printf("%-28s %zu KB, %u-way, %u-cycle hit\n", "L1 I-cache",
                m.l1iSizeBytes / 1024, m.l1iAssoc, m.l1iHitLatency);
    std::printf("%-28s %zu KB, %u-way, %u-cycle hit, %u banks\n",
                "L2 cache", m.l2SizeBytes / 1024, m.l2Assoc,
                m.l2HitLatency, m.l2Banks);
    std::printf("%-28s %u cycles, %u cycles/line channel\n",
                "Main memory", m.dramLatency, m.dramCyclesPerLine);
    std::printf("%-28s gshare-style exit predictor, %zu entries, "
                "%u history bits\n",
                "Next-block predictor", cfg.nbp.tableSize,
                cfg.nbp.historyBits);
    std::printf("%-28s SSIT 16384 / LFST 1024 (store sets)\n",
                "Dependence predictor");
    std::printf("%-28s 1 block/cycle, in order, block-atomic\n",
                "Commit");
    std::printf("%-28s resend budget %u per load, value-identity "
                "squash %s, %u commit ports/node\n",
                "DSRE protocol", cfg.lsq.maxResendsPerLoad,
                c.squashIdenticalValues ? "on" : "off",
                c.commitPortsPerNode);
    return 0;
}

/** Fraction of loads conflicting with a store <= span blocks older. */
double
aliasPotential(const pred::OracleDb &db, unsigned span)
{
    std::uint64_t loads = 0, conflicting = 0;
    for (std::uint64_t b = 0; b < db.numBlocks(); ++b) {
        for (Lsid l = 0; const auto *op = db.memOp(b, l); ++l) {
            if (op->isStore)
                continue;
            ++loads;
            bool hit = false;
            for (std::uint64_t ob = b >= span ? b - span : 0;
                 ob <= b && !hit; ++ob) {
                for (Lsid ol = 0; !hit && (ob != b || ol < l); ++ol) {
                    const auto *so = db.memOp(ob, ol);
                    if (!so)
                        break;
                    hit = so->isStore &&
                          pred::rangesOverlap(so->addr, so->bytes,
                                              op->addr, op->bytes);
                }
            }
            conflicting += hit;
        }
    }
    return loads ? static_cast<double>(conflicting) /
                       static_cast<double>(loads)
                 : 0.0;
}

// Table 2: per kernel, dynamic counts, memory-op density, exit
// prediction accuracy, and the alias potential (loads with a
// conflicting store <= 8 blocks older, exact from the reference trace)
// next to the violation rate blind speculation incurs.
int
runTable2(std::uint64_t iterations, unsigned threads)
{
    std::printf("Table 2: workload characterisation (%llu iterations; "
                "alias span = 8 blocks)\n\n",
                static_cast<unsigned long long>(iterations));
    printHeader("benchmark",
                {"dynBlocks", "dynInsts", "ins/blk", "mem/blk",
                 "alias%", "viol/1k", "exitAcc%"},
                10);

    // It needs the live Simulator (oracle db, reference trace): each
    // kernel runs whole in a worker and returns its cells, none when
    // it failed.
    const auto &kernels = wl::kernels();
    ThreadPool pool(threads);
    std::vector<std::vector<std::string>> table = parallelIndex(
        pool, kernels.size(),
        [&](std::size_t i) -> std::vector<std::string> {
            wl::KernelParams kp;
            kp.iterations = iterations;
            sim::Simulator s(wl::build(kernels[i].name, kp),
                             sim::Configs::blindFlush());
            sim::RunResult r = s.run();
            if (!r.halted || !r.archMatch)
                return {};
            double blocks = static_cast<double>(r.committedBlocks);
            double correct = static_cast<double>(
                s.stats().counterValue("nbp.correct"));
            double wrong = static_cast<double>(
                s.stats().counterValue("nbp.wrong"));
            return {
                fmtU(s.refDynBlocks()), fmtU(s.refDynInsts()),
                fmtF(static_cast<double>(s.refDynInsts()) /
                     static_cast<double>(s.refDynBlocks()), 1),
                fmtF(static_cast<double>(r.counter("lsq.loads") +
                                         r.counter("lsq.stores")) /
                         blocks,
                     1),
                fmtF(aliasPotential(s.oracleDb(), 8) * 100.0, 1),
                fmtF(1000.0 *
                         static_cast<double>(r.counter("lsq.violations")) /
                         blocks,
                     1),
                fmtF(100.0 * correct / (correct + wrong), 1)};
        });

    bool any_failed = false;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        any_failed |= table[i].empty();
        printRow(kernels[i].name,
                 table[i].empty() ? std::vector<std::string>{"FAILED"}
                                  : table[i],
                 10);
    }
    std::printf("\n(SPEC CPU2000 analogues: ");
    for (const auto &info : kernels)
        std::printf("%s=%s ", info.name.c_str(),
                    info.specAnalog.c_str());
    std::printf(")\n");
    if (any_failed)
        std::fprintf(stderr, "table2: some kernels failed to run\n");
    return any_failed ? 1 : 0;
}

// Figure 5 (headline): speedup over the conservative baseline. The
// abstract's claims: DSRE averages +17% over the best dependence
// predictor to date (store sets with flush recovery), and reaches 82%
// of a perfect oracle directing the issue of loads.
void
printFig5(const Results &r)
{
    const Grid &g = r.grid;
    std::size_t cons = r.config("conservative");
    std::size_t dsre = r.config("dsre");
    std::vector<std::size_t> others; // every mechanism but cons
    for (std::size_t c = 0; c < g.configs.size(); ++c)
        if (c != cons)
            others.push_back(c);
    std::printf("Figure 5: speedup over the conservative baseline "
                "(8-frame / 1024-entry window)\n\n");
    std::vector<std::string> cols = {"IPC(cons)"};
    for (std::size_t c : others)
        cols.push_back(g.configs[c]);
    printHeader("benchmark", cols);

    for (std::size_t k = 0; k < g.kernels.size(); ++k) {
        std::vector<std::string> cells = {fmtF(r.ipc(k, cons))};
        for (std::size_t c : others)
            cells.push_back(fmtF(r.ipc(k, c) / r.ipc(k, cons)));
        printRow(g.kernels[k], cells);
    }
    std::vector<std::string> gm_cells = {"-"};
    for (std::size_t c : others)
        gm_cells.push_back(fmtF(r.speedup(c, 0, cons, 0)));
    std::printf("\n");
    printRow("geomean", gm_cells);

    std::printf("\nHeadline comparisons (geomean across suite):\n");
    std::printf("  DSRE vs store-sets+flush : %+5.1f%%  "
                "(paper: +17%% average)\n",
                (r.speedup(dsre, 0, r.config("storesets-flush"), 0) -
                 1.0) * 100.0);
    std::printf("  DSRE as fraction of oracle: %5.1f%%  "
                "(paper: 82%%)\n",
                r.speedup(dsre, 0, r.config("oracle"), 0) * 100.0);
}

std::vector<Claim>
claimsFig5(const Results &r)
{
    std::size_t cons = r.config("conservative");
    std::size_t dsre = r.config("dsre");
    std::vector<Claim> out;
    for (std::size_t c = 0; c < r.grid.configs.size(); ++c) {
        if (c == cons)
            continue;
        double s = r.speedup(c, 0, cons, 0);
        out.push_back({strfmt("%s beats conservative (%.3fx)",
                              r.grid.configs[c].c_str(), s),
                       s > 1.0});
    }
    for (const char *flush : {"blind-flush", "storesets-flush"}) {
        double s = r.speedup(dsre, 0, r.config(flush), 0);
        out.push_back({strfmt("G1: dsre beats %s (%+.1f%%)", flush,
                              (s - 1.0) * 100.0),
                       s > 1.0});
    }
    double s = r.speedup(dsre, 0, r.config("oracle"), 0);
    out.push_back({strfmt("G2: dsre reaches 80%% of oracle (%.1f%%)",
                          s * 100.0),
                   s >= 0.8});
    return out;
}

// Figure 6, the abstract's "scaling to window sizes of thousands of
// instructions": IPC from 1 frame (128 instructions) to 16 (2048).
// Flush recovery throws away ever more work; DSRE keeps scaling.
Point
frames(unsigned f)
{
    return {strfmt("%u blk", f), [f](Cfg &c) { c.core.numFrames = f; }};
}

void
printFig6(const Results &r)
{
    std::printf("Figure 6: IPC vs window size (frames x 128 insts)\n");
    printKernelTables(r, 10);
    // Each mechanism over its own 1-frame machine: the scaling curve.
    std::printf("\n[geomean speedup over the 1-frame machine]\n");
    printSweep(r, 10, [&](std::size_t c, std::size_t p) {
        return r.speedup(c, p, c, 0);
    });
}

std::vector<Claim>
claimsFig6(const Results &r)
{
    std::size_t dsre = r.config("dsre");
    std::size_t f8 = r.point("8 blk"), f16 = r.point("16 blk");
    double dsre8 = r.speedup(dsre, f8, dsre, 0);
    double dsre16 = r.speedup(dsre, f16, dsre, 0);
    std::vector<Claim> out;
    for (const char *flush : {"blind-flush", "storesets-flush"}) {
        std::size_t c = r.config(flush);
        double s = r.speedup(c, f16, c, 0);
        out.push_back({strfmt("at 16 frames dsre out-scales %s "
                              "(%.2fx vs %.2fx)",
                              flush, dsre16, s),
                       dsre16 > s});
    }
    out.push_back({strfmt("dsre still scales from 8 to 16 frames "
                          "(%.2fx to %.2fx)",
                          dsre8, dsre16),
                   dsre16 > dsre8});
    return out;
}

// Figure 7: where each mechanism sits on the speculate/serialise
// spectrum. Blind violates, store sets trades violations for holds,
// the oracle holds exactly the true conflicts, and DSRE turns
// violations into cheap resends.
void
printFig7(const Results &r)
{
    std::printf("Figure 7: violations / violation flushes / resends / "
                "policy holds, per 1000 committed blocks\n\n");
    const std::pair<const char *, const char *> metrics[] = {
        {"violations", "lsq.violations"},
        {"violation flushes", "core.viol_flushes"},
        {"DSRE resends", "lsq.resends"},
        {"policy holds", "lsq.policy_holds"},
    };
    const Grid &g = r.grid;
    for (const auto &[name, counter] : metrics) {
        std::printf("[%s]\n", name);
        printHeader("benchmark", g.configs, 12);
        for (std::size_t k = 0; k < g.kernels.size(); ++k) {
            std::vector<std::string> cells;
            for (std::size_t c = 0; c < g.configs.size(); ++c) {
                const sim::RunResult &res = r.at(k, c);
                cells.push_back(
                    fmtF(1000.0 * static_cast<double>(res.counter(counter)) /
                             static_cast<double>(res.committedBlocks),
                         1));
            }
            printRow(g.kernels[k], cells, 12);
        }
        std::printf("\n");
    }
}

// Figure 8: the cost side of DSRE. Re-fires as a share of ALU issues,
// DSRE events per 1000 committed instructions, and how far corrective
// waves travel through the dataflow graph.
void
printFig8(const Results &r)
{
    std::printf("Figure 8: DSRE re-execution overhead (dsre config)\n\n");
    printHeader("benchmark",
                {"reexec%", "resend/1k", "upgr/1k", "squash/1k",
                 "defer/1k", "waveP50", "waveP90", "waveMax"},
                10);
    for (std::size_t k = 0; k < r.grid.kernels.size(); ++k) {
        const sim::RunResult &res = r.at(k, 0);
        const Histogram &wave = res.histogram("core.wave_depth");
        double per_1k_insts =
            1000.0 / static_cast<double>(res.committedInsts);
        auto per1k = [&](const char *counter) {
            return fmtF(static_cast<double>(res.counter(counter)) *
                            per_1k_insts,
                        1);
        };
        printRow(r.grid.kernels[k],
                 {fmtF(res.reexecFraction() * 100.0), per1k("lsq.resends"),
                  per1k("core.upgrades"), per1k("core.squashes"),
                  per1k("lsq.deferrals"), fmtU(wave.approxPercentile(0.5)),
                  fmtU(wave.approxPercentile(0.9)),
                  fmtU(wave.maxValue())},
                 10);
    }
}

// Figure 9: as L2 and DRAM latencies grow, unresolved-store windows
// widen, misspeculation gets more frequent and a full-window flush
// throws away more work, so the DSRE-over-flush gap should widen.
Point
latency(unsigned l2, unsigned dram)
{
    return {strfmt("%u/%u", l2, dram), [l2, dram](Cfg &c) {
                c.mem.l2HitLatency = l2;
                c.mem.dramLatency = dram;
            }};
}

void
printFig9(const Results &r)
{
    printFlushVsDsre(r, "Figure 9: IPC vs memory latency (L2/DRAM cycles)",
                     10);
}

// Figure 10: each point disables or re-prices one DSRE design choice
// DESIGN.md calls out; geomean IPC over the aliasing-heavy kernels,
// normalised to the default DSRE machine.
const std::vector<Point> kAblations = {
    {"default DSRE", nullptr},
    {"no value squash", [](Cfg &c) { c.core.squashIdenticalValues = false; }},
    {"commit on ALU", [](Cfg &c) { c.core.commitWaveUsesAlu = true; }},
    {"upgr take port", [](Cfg &c) { c.lsq.chargeUpgradePorts = true; }},
    {"budget 1", [](Cfg &c) { c.lsq.maxResendsPerLoad = 1; }},
    {"budget 16", [](Cfg &c) { c.lsq.maxResendsPerLoad = 16; }},
    {"budget 64", [](Cfg &c) { c.lsq.maxResendsPerLoad = 64; }},
    {"1 commit port", [](Cfg &c) { c.core.commitPortsPerNode = 1; }},
    {"4 commit ports", [](Cfg &c) { c.core.commitPortsPerNode = 4; }},
};

void
printFig10(const Results &r)
{
    const Grid &g = r.grid;
    std::printf("Figure 10: DSRE design-choice ablations "
                "(geomean IPC over %zu kernels, normalised to "
                "default DSRE)\n\n",
                g.kernels.size());
    printHeader("variant", {"relIPC", "resend/1k", "upgr/1k"}, 12);
    double base_ipc = 0.0;
    for (std::size_t p = 0; p < g.points.size(); ++p) {
        std::vector<double> ipcs;
        std::uint64_t resends = 0, upgrades = 0, insts = 0;
        for (std::size_t k = 0; k < g.kernels.size(); ++k) {
            const sim::RunResult &res = r.at(k, 0, p);
            ipcs.push_back(res.ipc());
            resends += res.counter("lsq.resends");
            upgrades += res.counter("core.upgrades");
            insts += res.committedInsts;
        }
        double gm = geomean(ipcs);
        if (base_ipc == 0.0)
            base_ipc = gm;
        printRow(g.points[p].label,
                 {fmtF(gm / base_ipc, 3),
                  fmtF(1000.0 * static_cast<double>(resends) /
                       static_cast<double>(insts), 2),
                  fmtF(1000.0 * static_cast<double>(upgrades) /
                       static_cast<double>(insts), 2)},
                 12);
    }
}

// Figure 11: DSRE's waves are extra network traffic, so its advantage
// could erode on a slower network; the per-hop latency of both
// networks varies.
Point
hops(unsigned h)
{
    return {strfmt("%u cyc/hop", h), [h](Cfg &c) { c.core.hopLatency = h; }};
}

void
printFig11(const Results &r)
{
    printFlushVsDsre(r, "Figure 11: IPC vs operand-network hop latency", 12);
}

// Extension beyond the paper: DSRE's waves speculate on load values. A
// long-latency miss replies at once with the last value seen at that
// address; the real value follows as a corrective (or confirming) wave.
void
printExtValuePred(const Results &r)
{
    std::printf("Extension: miss value prediction through the DSRE "
                "wave protocol\n\n");
    printHeader("benchmark",
                {"IPC dsre", "IPC +vp", "speedup", "preds/1k",
                 "vpAcc%"},
                11);
    for (std::size_t k = 0; k < r.grid.kernels.size(); ++k) {
        const sim::RunResult &rb = r.at(k, 0);
        const sim::RunResult &rv = r.at(k, 1);
        double preds =
            static_cast<double>(rv.counter("lsq.vp_predictions"));
        double correct =
            static_cast<double>(rv.counter("lsq.vp_correct"));
        printRow(r.grid.kernels[k],
                 {fmtF(rb.ipc()), fmtF(rv.ipc()),
                  fmtF(rv.ipc() / rb.ipc()),
                  fmtF(1000.0 * preds /
                       static_cast<double>(rv.committedInsts), 1),
                  fmtF(preds ? 100.0 * correct / preds : 0.0, 1)},
                 11);
    }
    std::printf("\ngeomean speedup from value prediction: %.3f\n",
                r.speedup(1, 0, 0, 0));
    std::printf("(Value prediction helps when misses are long and "
                "last-value locality is high; mispredictions cost a "
                "corrective wave — the same machinery as dependence "
                "misspeculation.)\n");
}

} // namespace

std::size_t
Results::config(const std::string &name) const
{
    return indexOf(grid.configs, name);
}

std::size_t
Results::point(const std::string &label) const
{
    return indexOf(pointLabels(grid), label);
}

double
Results::speedup(std::size_t c, std::size_t p, std::size_t base_c,
                 std::size_t base_p) const
{
    std::vector<double> ratios;
    for (std::size_t k = 0; k < grid.kernels.size(); ++k)
        ratios.push_back(ipc(k, c, p) / ipc(k, base_c, base_p));
    return geomean(ratios);
}

const std::vector<Figure> &
figures()
{
    static const std::vector<Figure> table = {
        {.name = "table1", .benchName = "bench_table1_config",
         .run = runTable1},
        {.name = "table2", .benchName = "bench_table2_workloads",
         .iterations = 2000, .run = runTable2},
        {.name = "5", .benchName = "bench_fig5_speedup",
         .iterations = 2000,
         .grid = {wl::kernelNames(), sim::Configs::allNames()},
         .print = printFig5, .claims = claimsFig5},
        {.name = "6", .benchName = "bench_fig6_window_scaling",
         .iterations = 1500,
         .grid = {{"bzip2ish", "vprish", "parserish", "twolfish"},
                  {"blind-flush", "storesets-flush", "dsre", "oracle"},
                  {frames(1), frames(2), frames(4), frames(8), frames(16)}},
         .print = printFig6, .claims = claimsFig6},
        {.name = "7", .benchName = "bench_fig7_violations",
         .iterations = 2000,
         .grid = {wl::kernelNames(), sim::Configs::allNames()},
         .print = printFig7},
        {.name = "8", .benchName = "bench_fig8_reexec",
         .iterations = 2000, .grid = {wl::kernelNames(), {"dsre"}},
         .print = printFig8},
        {.name = "9", .benchName = "bench_fig9_latency",
         .iterations = 1500,
         .grid = {{"bzip2ish", "gzipish", "vprish", "ammpish"},
                  {"storesets-flush", "dsre"},
                  {latency(8, 60), latency(12, 100), latency(18, 200),
                   latency(24, 300)}},
         .print = printFig9},
        {.name = "10", .benchName = "bench_fig10_ablation",
         .iterations = 1500,
         .grid = {{"gzipish", "bzip2ish", "parserish", "twolfish",
                   "vprish", "ammpish"},
                  {"dsre"},
                  kAblations},
         .print = printFig10},
        {.name = "11", .benchName = "bench_fig11_network",
         .iterations = 1500,
         .grid = {{"gzipish", "bzip2ish", "vprish", "equakeish"},
                  {"storesets-flush", "dsre"},
                  {hops(1), hops(2), hops(3)}},
         .print = printFig11},
        {.name = "ext", .benchName = "bench_ext_value_pred",
         .iterations = 2000,
         .grid = {wl::kernelNames(), {"dsre", "dsre-vp"}},
         .print = printExtValuePred},
    };
    return table;
}

const Figure *
findFigure(const std::string &name)
{
    for (const Figure &f : figures())
        if (f.name == name)
            return &f;
    return nullptr;
}

} // namespace edge::bench
