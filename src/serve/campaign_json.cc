#include "serve/campaign_json.hh"

#include "chaos/chaos.hh"
#include "triage/program_json.hh"
#include "triage/result_json.hh"
#include "workloads/workloads.hh"

namespace edge::serve {

using triage::enumFromJson;
using triage::JsonValue;

namespace {

JsonValue
programRefToJson(const triage::ProgramRef &ref)
{
    JsonValue o = JsonValue::object();
    o.set("kernel", JsonValue::str(ref.kernel));
    o.set("iterations", JsonValue::u64(ref.params.iterations));
    o.set("seed", JsonValue::u64(ref.params.seed));
    if (ref.hasEmbedded)
        o.set("embedded", triage::programToJson(ref.embedded));
    return o;
}

bool
programRefFromJson(const JsonValue &o, triage::ProgramRef *ref,
                   std::string *err)
{
    if (!o.isObject()) {
        if (err)
            *err = "program is not an object";
        return false;
    }
    ref->kernel = o.getString("kernel");
    ref->params.iterations =
        o.getU64("iterations", ref->params.iterations);
    ref->params.seed = o.getU64("seed", ref->params.seed);
    ref->hasEmbedded = false;
    if (const JsonValue *e = o.get("embedded")) {
        if (!triage::programFromJson(*e, &ref->embedded, err))
            return false;
        ref->hasEmbedded = true;
    }
    if (!ref->hasEmbedded && !wl::exists(ref->kernel)) {
        if (err)
            *err = ref->kernel.empty()
                       ? "program has neither kernel nor embedded body"
                       : "unknown kernel '" + ref->kernel + "'";
        return false;
    }
    return true;
}

JsonValue
retryToJson(const sim::RetryPolicy &retry)
{
    JsonValue o = JsonValue::object();
    o.set("max_attempts", JsonValue::u64(retry.maxAttempts));
    o.set("backoff_ms", JsonValue::u64(retry.backoffMs));
    o.set("max_total_backoff_ms",
          JsonValue::u64(retry.maxTotalBackoffMs));
    return o;
}

void
retryFromJson(const JsonValue *o, sim::RetryPolicy *retry)
{
    if (!o || !o->isObject())
        return;
    retry->maxAttempts = static_cast<unsigned>(
        o->getU64("max_attempts", retry->maxAttempts));
    retry->backoffMs = static_cast<unsigned>(
        o->getU64("backoff_ms", retry->backoffMs));
    retry->maxTotalBackoffMs =
        o->getU64("max_total_backoff_ms", retry->maxTotalBackoffMs);
}

/** Read a submission's mechanism list; false on an unknown name. */
bool
configsFromJson(const JsonValue &o, std::vector<std::string> *configs,
                std::string *err)
{
    configs->clear();
    if (const JsonValue *list = o.get("configs")) {
        for (const JsonValue &c : list->items()) {
            if (!sim::Configs::lookup(c.asString())) {
                if (err)
                    *err = "unknown mechanism '" + c.asString() + "'";
                return false;
            }
            configs->push_back(c.asString());
        }
    }
    return true;
}

} // namespace

std::string
campaignKind(const JsonValue &doc)
{
    return doc.getString("kind");
}

JsonValue
sweepSubmission(const sim::ChaosSweepParams &params,
                const triage::ProgramRef &program)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::str("sweep"));

    JsonValue p = JsonValue::object();
    JsonValue seeds = JsonValue::array();
    for (std::uint64_t s : params.seeds)
        seeds.push(JsonValue::u64(s));
    p.set("seeds", std::move(seeds));
    JsonValue configs = JsonValue::array();
    for (const std::string &c : params.configs)
        configs.push(JsonValue::str(c));
    p.set("configs", std::move(configs));
    p.set("profile",
          JsonValue::str(enumName(params.profile)));
    p.set("check_invariants",
          JsonValue::boolean(params.checkInvariants));
    p.set("max_cycles", JsonValue::u64(params.maxCycles));
    p.set("mutation",
          JsonValue::str(enumName(params.mutation)));
    p.set("mutation_node", JsonValue::u64(params.mutationNode));
    p.set("retry", retryToJson(params.retry));
    o.set("params", std::move(p));

    o.set("program", programRefToJson(program));
    return o;
}

bool
sweepSubmissionFromJson(const JsonValue &doc,
                        sim::ChaosSweepParams *params,
                        triage::ProgramRef *program, std::string *err)
{
    const JsonValue *p = doc.get("params");
    if (!p || !p->isObject()) {
        if (err)
            *err = "sweep submission has no params";
        return false;
    }
    params->seeds.clear();
    if (const JsonValue *seeds = p->get("seeds"))
        for (const JsonValue &s : seeds->items())
            params->seeds.push_back(s.asU64());
    if (!configsFromJson(*p, &params->configs, err))
        return false;
    if (params->seeds.empty() || params->configs.empty()) {
        if (err)
            *err = "sweep submission needs seeds and configs";
        return false;
    }
    if (!enumFromJson(*p, "profile", &params->profile, err) ||
        !enumFromJson(*p, "mutation", &params->mutation, err))
        return false;
    params->checkInvariants =
        p->getBool("check_invariants", params->checkInvariants);
    params->maxCycles = p->getU64("max_cycles", params->maxCycles);
    params->mutationNode = static_cast<unsigned>(
        p->getU64("mutation_node", params->mutationNode));
    retryFromJson(p->get("retry"), &params->retry);

    const JsonValue *prog = doc.get("program");
    if (!prog) {
        if (err)
            *err = "sweep submission has no program";
        return false;
    }
    return programRefFromJson(*prog, program, err);
}

JsonValue
sweepReportToJson(const sim::ChaosSweepReport &report,
                  bool interrupted)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::str("sweep"));
    o.set("interrupted", JsonValue::boolean(interrupted));
    JsonValue runs = JsonValue::array();
    for (const sim::ChaosSweepOutcome &r : report.runs) {
        JsonValue row = JsonValue::object();
        row.set("seed", JsonValue::u64(r.seed));
        row.set("config", JsonValue::str(r.config));
        row.set("machine", triage::configToJson(r.machine));
        row.set("result", triage::resultToJson(r.result));
        if (!r.reproPath.empty())
            row.set("repro", JsonValue::str(r.reproPath));
        runs.push(std::move(row));
    }
    o.set("runs", std::move(runs));
    return o;
}

bool
sweepReportFromJson(const JsonValue &doc,
                    sim::ChaosSweepReport *report, bool *interrupted,
                    std::string *err)
{
    const JsonValue *runs = doc.get("runs");
    if (!runs || !runs->isArray()) {
        if (err)
            *err = "sweep report has no runs";
        return false;
    }
    if (interrupted)
        *interrupted = doc.getBool("interrupted");
    std::vector<sim::ChaosSweepOutcome> rows;
    rows.reserve(runs->items().size());
    for (const JsonValue &row : runs->items()) {
        sim::ChaosSweepOutcome o;
        o.seed = row.getU64("seed");
        o.config = row.getString("config");
        if (const JsonValue *m = row.get("machine"))
            if (!triage::configFromJson(*m, &o.machine, err))
                return false;
        const JsonValue *res = row.get("result");
        if (!res || !triage::resultFromJson(*res, &o.result, err))
            return false;
        o.reproPath = row.getString("repro");
        rows.push_back(std::move(o));
    }
    *report = sim::assembleSweepReport(std::move(rows));
    return true;
}

JsonValue
fuzzSubmission(const fuzz::FuzzOptions &opts)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::str("fuzz"));
    o.set("count", JsonValue::u64(opts.count));
    o.set("seed", JsonValue::u64(opts.seed));
    JsonValue configs = JsonValue::array();
    for (const std::string &c : opts.configs)
        configs.push(JsonValue::str(c));
    o.set("configs", std::move(configs));
    o.set("chaos_profile",
          JsonValue::str(enumName(opts.chaosProfile)));
    o.set("mutation",
          JsonValue::str(enumName(opts.mutation)));
    o.set("mutation_node", JsonValue::u64(opts.mutationNode));
    o.set("check_invariants",
          JsonValue::boolean(opts.checkInvariants));
    o.set("max_cycles", JsonValue::u64(opts.maxCycles));
    o.set("batch", JsonValue::u64(opts.batch));

    JsonValue gen = JsonValue::object();
    gen.set("min_blocks", JsonValue::u64(opts.gen.minBlocks));
    gen.set("max_blocks", JsonValue::u64(opts.gen.maxBlocks));
    gen.set("min_ops", JsonValue::u64(opts.gen.minOps));
    gen.set("max_ops", JsonValue::u64(opts.gen.maxOps));
    gen.set("max_mem_ops", JsonValue::u64(opts.gen.maxMemOps));
    gen.set("fuel", JsonValue::u64(opts.gen.fuel));
    gen.set("arena_base", JsonValue::u64(opts.gen.arenaBase));
    gen.set("arena_words", JsonValue::u64(opts.gen.arenaWords));
    o.set("gen", std::move(gen));
    return o;
}

bool
fuzzSubmissionFromJson(const JsonValue &doc, fuzz::FuzzOptions *opts,
                       std::string *err)
{
    if (!doc.isObject()) {
        if (err)
            *err = "fuzz submission is not an object";
        return false;
    }
    opts->count = doc.getU64("count", opts->count);
    opts->seed = doc.getU64("seed", opts->seed);
    if (!configsFromJson(doc, &opts->configs, err) ||
        !enumFromJson(doc, "chaos_profile", &opts->chaosProfile, err) ||
        !enumFromJson(doc, "mutation", &opts->mutation, err))
        return false;
    opts->mutationNode = static_cast<unsigned>(
        doc.getU64("mutation_node", opts->mutationNode));
    opts->checkInvariants =
        doc.getBool("check_invariants", opts->checkInvariants);
    opts->maxCycles = doc.getU64("max_cycles", opts->maxCycles);
    opts->batch = doc.getU64("batch", opts->batch);
    if (const JsonValue *gen = doc.get("gen")) {
        opts->gen.minBlocks = static_cast<unsigned>(
            gen->getU64("min_blocks", opts->gen.minBlocks));
        opts->gen.maxBlocks = static_cast<unsigned>(
            gen->getU64("max_blocks", opts->gen.maxBlocks));
        opts->gen.minOps = static_cast<unsigned>(
            gen->getU64("min_ops", opts->gen.minOps));
        opts->gen.maxOps = static_cast<unsigned>(
            gen->getU64("max_ops", opts->gen.maxOps));
        opts->gen.maxMemOps = static_cast<unsigned>(
            gen->getU64("max_mem_ops", opts->gen.maxMemOps));
        opts->gen.fuel = gen->getU64("fuel", opts->gen.fuel);
        opts->gen.arenaBase =
            gen->getU64("arena_base", opts->gen.arenaBase);
        opts->gen.arenaWords = static_cast<unsigned>(
            gen->getU64("arena_words", opts->gen.arenaWords));
    }
    return true;
}

JsonValue
fuzzReportToJson(const fuzz::FuzzReport &report)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::str("fuzz"));
    o.set("programs", JsonValue::u64(report.programs));
    o.set("runs", JsonValue::u64(report.runs));
    o.set("passes", JsonValue::u64(report.passes));
    o.set("ref_hangs", JsonValue::u64(report.refHangs));
    o.set("duplicates", JsonValue::u64(report.duplicates));
    o.set("interrupted", JsonValue::boolean(report.interrupted));
    JsonValue failures = JsonValue::array();
    for (const fuzz::FuzzFailure &f : report.failures) {
        JsonValue row = JsonValue::object();
        row.set("seed", JsonValue::u64(f.seed));
        row.set("config", JsonValue::str(f.config));
        row.set("outcome",
                JsonValue::str(enumName(f.outcome)));
        row.set("signature", JsonValue::str(f.signature));
        row.set("unique", JsonValue::boolean(f.unique));
        row.set("result", triage::resultToJson(f.result));
        if (!f.reproPath.empty())
            row.set("repro", JsonValue::str(f.reproPath));
        failures.push(std::move(row));
    }
    o.set("failures", std::move(failures));
    return o;
}

bool
fuzzReportFromJson(const JsonValue &doc, fuzz::FuzzReport *report,
                   std::string *err)
{
    if (!doc.isObject()) {
        if (err)
            *err = "fuzz report is not an object";
        return false;
    }
    report->programs = doc.getU64("programs");
    report->runs = doc.getU64("runs");
    report->passes = doc.getU64("passes");
    report->refHangs = doc.getU64("ref_hangs");
    report->duplicates = doc.getU64("duplicates");
    report->interrupted = doc.getBool("interrupted");
    report->failures.clear();
    if (const JsonValue *failures = doc.get("failures")) {
        for (const JsonValue &row : failures->items()) {
            fuzz::FuzzFailure f;
            f.seed = row.getU64("seed");
            f.config = row.getString("config");
            if (!enumFromJson(row, "outcome", &f.outcome, err))
                return false;
            f.signature = row.getString("signature");
            f.unique = row.getBool("unique");
            const JsonValue *res = row.get("result");
            if (!res ||
                !triage::resultFromJson(*res, &f.result, err))
                return false;
            f.reproPath = row.getString("repro");
            report->failures.push_back(std::move(f));
        }
    }
    return true;
}

} // namespace edge::serve
