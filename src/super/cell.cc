#include "super/cell.hh"

#include "common/hash.hh"
#include "triage/program_json.hh"
#include "triage/result_json.hh"

namespace edge::super {

using triage::JsonValue;

std::uint64_t
cellHash(const CellSpec &cell)
{
    std::uint64_t phash = cell.programHash;
    if (phash == 0) {
        // An unknown kernel leaves 0: the cell fails when it runs.
        if (std::optional<isa::Program> prog =
                triage::buildProgram(cell.program))
            phash = triage::programHash(*prog);
    }

    // FNV-1a over (program hash, canonical config JSON, budget). The
    // config is hashed through its serialized form so every field —
    // including the run seed and the chaos schedule parameters —
    // participates without a hand-maintained field list.
    Fnv1a f;
    f.mix64(phash);
    f.mix(triage::configToJson(cell.config).dumpCompact());
    f.mix64(cell.maxCycles);
    return f.state;
}

JsonValue
cellToJson(const CellSpec &cell)
{
    JsonValue root = JsonValue::object();
    root.set("format", JsonValue::str("edgesim-cell"));
    root.set("version", JsonValue::u64(1));

    JsonValue prog = JsonValue::object();
    prog.set("kernel", JsonValue::str(cell.program.kernel));
    prog.set("iterations",
             JsonValue::u64(cell.program.params.iterations));
    prog.set("seed", JsonValue::u64(cell.program.params.seed));
    if (cell.program.hasEmbedded)
        prog.set("embedded", triage::programToJson(cell.program.embedded));
    root.set("program", std::move(prog));

    root.set("config", triage::configToJson(cell.config));
    root.set("max_cycles", JsonValue::u64(cell.maxCycles));
    if (!cell.testCrash.empty())
        root.set("test_crash", JsonValue::str(cell.testCrash));
    return root;
}

bool
cellFromJson(const JsonValue &root, CellSpec *cell, std::string *err)
{
    if (!root.isObject() ||
        root.getString("format") != "edgesim-cell") {
        if (err)
            *err = "not an edgesim-cell document";
        return false;
    }
    const JsonValue *prog = root.get("program");
    if (!prog || !prog->isObject()) {
        if (err)
            *err = "missing program";
        return false;
    }
    cell->program.kernel = prog->getString("kernel");
    cell->program.params.iterations =
        prog->getU64("iterations", cell->program.params.iterations);
    cell->program.params.seed =
        prog->getU64("seed", cell->program.params.seed);
    cell->program.hasEmbedded = false;
    if (const JsonValue *embedded = prog->get("embedded")) {
        if (!triage::programFromJson(*embedded,
                                     &cell->program.embedded, err))
            return false;
        cell->program.hasEmbedded = true;
    }
    if (!cell->program.hasEmbedded && cell->program.kernel.empty()) {
        if (err)
            *err = "program has neither kernel nor embedded body";
        return false;
    }

    if (const JsonValue *cfg = root.get("config"))
        if (!triage::configFromJson(*cfg, &cell->config, err))
            return false;
    cell->maxCycles = root.getU64("max_cycles", cell->maxCycles);
    cell->testCrash = root.getString("test_crash");
    return true;
}

} // namespace edge::super
