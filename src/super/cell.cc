#include "super/cell.hh"

#include "common/hash.hh"
#include "triage/result_json.hh"

namespace edge::super {

using triage::JsonValue;

std::uint64_t
cellHash(const CellSpec &cell)
{
    std::uint64_t phash = cell.programHash;
    if (phash == 0) {
        // An unknown kernel leaves 0: the cell's worker refuses it.
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
    root.set("program", triage::programRefToJson(cell.program));
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
        *err = "not an edgesim-cell document";
        return false;
    }
    if (!triage::programRefFromJson(root.get("program"), &cell->program,
                                    err))
        return false;
    if (const JsonValue *cfg = root.get("config"))
        if (!triage::configFromJson(*cfg, &cell->config, err))
            return false;
    return triage::memberFromJson(root, "max_cycles", &cell->maxCycles,
                                  err) &&
           triage::memberFromJson(root, "test_crash", &cell->testCrash,
                                  err);
}

} // namespace edge::super
