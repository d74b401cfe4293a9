#include "triage/repro.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/build_info.hh"
#include "common/logging.hh"
#include "lsq/lsq.hh"
#include "predictor/dependence.hh"
#include "triage/program_json.hh"
#include "triage/result_json.hh"

namespace edge::triage {

namespace {

/** FNV-1a 64-bit, the classic offset basis / prime. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    bytes(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    void str(const std::string &s) { bytes(s.data(), s.size()); }
    void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
};

/** Filename-safe slug: [a-z0-9-] only. */
std::string
slug(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            out += static_cast<char>(
                std::tolower(static_cast<unsigned char>(c)));
        else if (!out.empty() && out.back() != '-')
            out += '-';
    }
    while (!out.empty() && out.back() == '-')
        out.pop_back();
    return out.empty() ? "x" : out;
}

} // namespace

std::uint64_t
programHash(const isa::Program &program)
{
    Fnv f;
    f.str(program.name());
    f.str(program.disassemble());
    for (Word w : program.initRegs())
        f.u64(w);
    for (const isa::MemInit &chunk : program.memImage()) {
        f.u64(chunk.base);
        f.bytes(chunk.bytes.data(), chunk.bytes.size());
    }
    return f.h;
}

ProgramRef
embeddedRef(std::string label, isa::Program program,
            std::uint64_t generator_seed)
{
    ProgramRef ref;
    ref.kernel = std::move(label);
    ref.params.iterations = 0;
    ref.params.seed = generator_seed;
    ref.hasEmbedded = true;
    ref.embedded = std::move(program);
    return ref;
}

JsonValue
programRefToJson(const ProgramRef &ref)
{
    JsonValue o = JsonValue::object();
    o.set("kernel", JsonValue::str(ref.kernel));
    o.set("iterations", JsonValue::u64(ref.params.iterations));
    o.set("seed", JsonValue::u64(ref.params.seed));
    if (ref.hasEmbedded)
        o.set("embedded", programToJson(ref.embedded));
    return o;
}

bool
programRefFromJson(const JsonValue *o, ProgramRef *ref, std::string *err)
{
    if (!o || !o->isObject()) {
        *err = "program: expected an object";
        return false;
    }
    ref->hasEmbedded = false;
    if (!memberFromJson(*o, "kernel", &ref->kernel, err) ||
        !memberFromJson(*o, "iterations", &ref->params.iterations, err) ||
        !memberFromJson(*o, "seed", &ref->params.seed, err)) {
        prefixError("program", true, err);
        return false;
    }
    if (const JsonValue *e = o->get("embedded")) {
        if (!programFromJson(*e, &ref->embedded, err)) {
            *err = "program.embedded: " + *err;
            return false;
        }
        std::vector<isa::ValidationIssue> issues =
            ref->embedded.validateAll();
        if (!issues.empty()) {
            *err = "program.embedded: invalid program: " +
                   issues.front().str();
            return false;
        }
        ref->hasEmbedded = true;
    } else if (!wl::exists(ref->kernel)) {
        *err = ref->kernel.empty()
                   ? "program: neither a kernel nor an embedded body"
                   : "program: unknown kernel '" + ref->kernel + "'";
        return false;
    }
    return true;
}

std::optional<isa::Program>
buildProgram(const ProgramRef &ref, std::string *err)
{
    if (ref.hasEmbedded)
        return ref.embedded;
    std::optional<isa::Program> prog = wl::tryBuild(ref.kernel, ref.params);
    if (!prog && err)
        *err = "unknown kernel '" + ref.kernel + "'";
    return prog;
}

JsonValue
toJson(const ReproSpec &spec)
{
    JsonValue root = JsonValue::object();
    root.set("format", JsonValue::str("edgesim-repro"));
    root.set("version", JsonValue::u64(1));

    JsonValue prog = programRefToJson(spec.program);
    prog.set("hash", JsonValue::u64(spec.programHash));
    root.set("program", std::move(prog));

    root.set("config", configToJson(spec.config));
    root.set("max_cycles", JsonValue::u64(spec.maxCycles));
    if (!spec.build.empty())
        root.set("build", JsonValue::str(spec.build));

    JsonValue failure = JsonValue::object();
    failure.set("error", encode(spec.error));
    failure.set("halted", JsonValue::boolean(spec.halted));
    failure.set("arch_match", JsonValue::boolean(spec.archMatch));
    failure.set("retries", JsonValue::u64(spec.retries));
    root.set("failure", std::move(failure));

    root.set("schedule", encode(spec.schedule));
    return root;
}

bool
fromJson(const JsonValue &root, ReproSpec *spec, std::string *err)
{
    if (!root.isObject() ||
        root.getString("format") != "edgesim-repro") {
        if (err)
            *err = "not an edgesim-repro document";
        return false;
    }
    const JsonValue *prog = root.get("program");
    if (!programRefFromJson(prog, &spec->program, err))
        return false;
    if (!memberFromJson(*prog, "hash", &spec->programHash, err)) {
        prefixError("program", true, err);
        return false;
    }
    if (const JsonValue *cfg = root.get("config"))
        if (!configFromJson(*cfg, &spec->config, err))
            return false;
    if (!memberFromJson(root, "max_cycles", &spec->maxCycles, err) ||
        !memberFromJson(root, "build", &spec->build, err))
        return false;

    if (const JsonValue *failure = root.get("failure")) {
        if (!memberFromJson(*failure, "error", &spec->error, err) ||
            !memberFromJson(*failure, "halted", &spec->halted, err) ||
            !memberFromJson(*failure, "arch_match", &spec->archMatch,
                            err) ||
            !memberFromJson(*failure, "retries", &spec->retries, err)) {
            prefixError("failure", true, err);
            return false;
        }
    }

    return memberFromJson(root, "schedule", &spec->schedule, err);
}

bool
save(const ReproSpec &spec, const std::string &path, std::string *err)
{
    // Durable write: a repro capture is usually the only artifact of
    // a crash, so it must never itself be lost to a half-write when
    // the capturing process (or host) dies mid-save.
    return writeFileDurable(path, toJson(spec).dump(), err);
}

bool
load(const std::string &path, ReproSpec *spec, std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "repro '" + path + "': cannot open";
        return false;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    if (text.empty()) {
        if (err)
            *err = "repro '" + path +
                   "': file is empty (truncated capture?)";
        return false;
    }
    JsonValue root;
    std::string perr;
    if (!JsonValue::parse(text, &root, &perr)) {
        if (err)
            *err = "repro '" + path + "': malformed JSON (" + perr +
                   ") — the file is truncated or not a repro capture";
        return false;
    }
    std::string ferr;
    if (!fromJson(root, spec, &ferr)) {
        if (err)
            *err = "repro '" + path + "': " + ferr;
        return false;
    }
    return true;
}

ReproSpec
captureFromResult(const ProgramRef &program,
                  const core::MachineConfig &config, Cycle max_cycles,
                  const sim::RunResult &result)
{
    ReproSpec spec;
    spec.program = program;
    // An unbuildable program keeps hash 0, which replay never checks.
    if (std::optional<isa::Program> prog = buildProgram(program))
        spec.programHash = programHash(*prog);
    spec.config = config;
    // Bake the effective seeds so the spec replays standalone: the
    // runtime derives chaos.seed from rngSeed when left at 0.
    spec.config.rngSeed = result.rngSeed;
    if (spec.config.chaos.enabled())
        spec.config.chaos.seed = result.chaosSeed;
    spec.maxCycles = max_cycles;
    spec.build = buildInfoLine();
    spec.error = result.error;
    spec.halted = result.halted;
    spec.archMatch = result.archMatch;
    spec.retries = result.retries;
    spec.schedule = result.chaosEvents;
    return spec;
}

std::string
captureToFile(const ReproSpec &spec, const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("repro: cannot create directory '%s': %s", dir.c_str(),
             ec.message().c_str());
        return "";
    }
    std::string kind = enumName(spec.error.reason);
    if (spec.error.ok())
        kind = spec.archMatch ? "halt" : "divergence";
    std::string name = strfmt(
        "%s-%s-%s-seed%llu.repro.json", slug(spec.program.kernel).c_str(),
        slug(enumName(spec.config.policy)).c_str(),
        slug(kind + (spec.error.invariant.empty()
                         ? ""
                         : "-" + spec.error.invariant))
            .c_str(),
        static_cast<unsigned long long>(spec.config.rngSeed));
    std::string path = (std::filesystem::path(dir) / name).string();
    std::string err;
    if (!save(spec, path, &err)) {
        warn("repro: %s", err.c_str());
        return "";
    }
    return path;
}

std::size_t
captureSweepFailures(sim::ChaosSweepReport &report,
                     const ProgramRef &program, Cycle max_cycles,
                     const std::string &dir)
{
    std::size_t written = 0;
    for (sim::ChaosSweepOutcome &o : report.runs) {
        if (o.converged())
            continue;
        ReproSpec spec = captureFromResult(program, o.machine,
                                           max_cycles, o.result);
        o.reproPath = captureToFile(spec, dir);
        if (!o.reproPath.empty())
            ++written;
    }
    return written;
}

sim::RunResult
replay(const ReproSpec &spec)
{
    std::string err;
    std::optional<isa::Program> prog = buildProgram(spec.program, &err);
    if (!prog) {
        // Classified like a worker cell given the same spec.
        sim::RunResult r;
        r.error.reason = chaos::SimError::Reason::WorkerProtocol;
        r.error.message = "repro: " + err;
        return r;
    }
    if (!spec.build.empty()) {
        std::string mismatch = buildMismatch(spec.build);
        if (!mismatch.empty())
            warn("repro: captured on a different build (%s) — the "
                 "replay may legitimately not reproduce",
                 mismatch.c_str());
    }
    std::uint64_t hash = programHash(*prog);
    if (spec.programHash != 0 && hash != spec.programHash)
        warn("repro: program hash mismatch (spec %016llx, built "
             "%016llx) — the workload generator changed; the replay "
             "may not reproduce the failure",
             static_cast<unsigned long long>(spec.programHash),
             static_cast<unsigned long long>(hash));
    sim::Simulator sim(std::move(*prog), spec.config);
    return sim.run(spec.config, spec.maxCycles);
}

bool
sameSignature(const ReproSpec &spec, const sim::RunResult &result)
{
    return spec.error.reason == result.error.reason &&
           spec.error.invariant == result.error.invariant &&
           spec.error.cycle == result.error.cycle &&
           spec.halted == result.halted &&
           spec.archMatch == result.archMatch;
}

bool
sameFailureKind(const ReproSpec &spec, const sim::RunResult &result)
{
    if (spec.error.reason != chaos::SimError::Reason::None)
        return spec.error.reason == result.error.reason &&
               spec.error.invariant == result.error.invariant;
    // Divergence failures carry no SimError: the signature is the
    // halted/archMatch verdict itself.
    return !result.error.ok()
               ? false
               : spec.halted == result.halted &&
                     spec.archMatch == result.archMatch;
}

std::string
signatureLine(const ReproSpec &spec)
{
    std::string out = strfmt(
        "%s kernel=%s seed=%llu cycle=%llu halted=%d archMatch=%d",
        enumName(spec.error.reason),
        spec.program.kernel.c_str(),
        static_cast<unsigned long long>(spec.config.rngSeed),
        static_cast<unsigned long long>(spec.error.cycle), spec.halted,
        spec.archMatch);
    if (!spec.error.invariant.empty())
        out += " invariant=" + spec.error.invariant;
    return out;
}

} // namespace edge::triage
