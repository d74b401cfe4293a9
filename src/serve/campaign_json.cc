#include "serve/campaign_json.hh"

#include "triage/result_json.hh"

// The campaign messages' tables: a submission carries what the local
// CLI would have used, a report what it would have printed.
namespace edge::triage {

template <>
struct Fields<sim::RetryPolicy>
{
    using P = sim::RetryPolicy;
    static constexpr Field<P> rows[] = {
        row<&P::maxAttempts>("max_attempts"),
        row<&P::backoffMs>("backoff_ms"),
        row<&P::maxTotalBackoffMs>("max_total_backoff_ms"),
    };
};

/** The submitted members; threads and tweak stay local. */
template <>
struct Fields<sim::ChaosSweepParams>
{
    using P = sim::ChaosSweepParams;
    static constexpr Field<P> rows[] = {
        row<&P::seeds>("seeds"),
        row<&P::configs>("configs"),
        row<&P::profile>("profile"),
        row<&P::checkInvariants>("check_invariants"),
        row<&P::maxCycles>("max_cycles"),
        row<&P::mutation>("mutation"),
        row<&P::mutationNode>("mutation_node"),
        row<&P::retry>("retry"),
    };
};

template <>
struct Fields<sim::ChaosSweepOutcome>
{
    using P = sim::ChaosSweepOutcome;
    static constexpr Field<P> rows[] = {
        row<&P::seed>("seed"),       row<&P::config>("config"),
        row<&P::machine>("machine"), row<&P::result>("result"),
        row<&P::reproPath>("repro"),
    };
};

template <>
struct Fields<fuzz::GenOptions>
{
    using P = fuzz::GenOptions;
    static constexpr Field<P> rows[] = {
        row<&P::minBlocks>("min_blocks"),
        row<&P::maxBlocks>("max_blocks"),
        row<&P::minOps>("min_ops"),
        row<&P::maxOps>("max_ops"),
        row<&P::maxMemOps>("max_mem_ops"),
        row<&P::fuel>("fuel"),
        row<&P::arenaBase>("arena_base"),
        row<&P::arenaWords>("arena_words"),
    };
};

/** The submitted members; corpusDir, threads and batchRunner stay
 *  local (the coordinator picks its own). */
template <>
struct Fields<fuzz::FuzzOptions>
{
    using P = fuzz::FuzzOptions;
    static constexpr Field<P> rows[] = {
        row<&P::count>("count"),
        row<&P::seed>("seed"),
        row<&P::configs>("configs"),
        row<&P::chaosProfile>("chaos_profile"),
        row<&P::mutation>("mutation"),
        row<&P::mutationNode>("mutation_node"),
        row<&P::checkInvariants>("check_invariants"),
        row<&P::maxCycles>("max_cycles"),
        row<&P::batch>("batch"),
        row<&P::gen>("gen"),
    };
};

template <>
struct Fields<fuzz::FuzzFailure>
{
    using P = fuzz::FuzzFailure;
    static constexpr Field<P> rows[] = {
        row<&P::seed>("seed"),
        row<&P::config>("config"),
        row<&P::outcome>("outcome"),
        row<&P::signature>("signature"),
        row<&P::unique>("unique"),
        row<&P::result>("result"),
        row<&P::reproPath>("repro"),
    };
};

template <>
struct Fields<fuzz::FuzzReport>
{
    using P = fuzz::FuzzReport;
    static constexpr Field<P> rows[] = {
        row<&P::programs>("programs"),
        row<&P::runs>("runs"),
        row<&P::passes>("passes"),
        row<&P::refHangs>("ref_hangs"),
        row<&P::duplicates>("duplicates"),
        row<&P::interrupted>("interrupted"),
        row<&P::failures>("failures"),
    };
};

} // namespace edge::triage

namespace edge::serve {

using triage::JsonValue;

namespace {

/** A campaign document that starts with its `kind` member. */
JsonValue
kindDoc(const char *kind)
{
    JsonValue o = JsonValue::object();
    o.set("kind", JsonValue::str(kind));
    return o;
}

/** False (with *err set) on a mechanism name Configs does not know. */
bool
knownConfigs(const std::vector<std::string> &configs, std::string *err)
{
    for (const std::string &c : configs) {
        if (!sim::Configs::lookup(c)) {
            *err = "unknown mechanism '" + c + "'";
            return false;
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
    JsonValue o = kindDoc("sweep");
    o.set("params", triage::structToJson(params));
    o.set("program", triage::programRefToJson(program));
    return o;
}

bool
sweepSubmissionFromJson(const JsonValue &doc,
                        sim::ChaosSweepParams *params,
                        triage::ProgramRef *program, std::string *err)
{
    const JsonValue *p = doc.get("params");
    if (!p || !p->isObject()) {
        *err = "sweep submission has no params";
        return false;
    }
    if (!triage::structFromJson(*p, params, err)) {
        triage::prefixError("params", true, err);
        return false;
    }
    if (!knownConfigs(params->configs, err))
        return false;
    if (params->seeds.empty() || params->configs.empty()) {
        *err = "sweep submission needs seeds and configs";
        return false;
    }
    return triage::programRefFromJson(doc.get("program"), program, err);
}

JsonValue
sweepReportToJson(const sim::ChaosSweepReport &report,
                  bool interrupted)
{
    JsonValue o = kindDoc("sweep");
    o.set("interrupted", JsonValue::boolean(interrupted));
    o.set("runs", triage::encode(report.runs));
    return o;
}

bool
sweepReportFromJson(const JsonValue &doc,
                    sim::ChaosSweepReport *report, bool *interrupted,
                    std::string *err)
{
    std::vector<sim::ChaosSweepOutcome> rows;
    bool stopped = false;
    if (!doc.get("runs")) {
        *err = "sweep report has no runs";
        return false;
    }
    if (!triage::memberFromJson(doc, "interrupted", &stopped, err) ||
        !triage::memberFromJson(doc, "runs", &rows, err))
        return false;
    if (interrupted)
        *interrupted = stopped;
    *report = sim::assembleSweepReport(std::move(rows));
    return true;
}

JsonValue
fuzzSubmission(const fuzz::FuzzOptions &opts)
{
    return triage::structToJson(opts, kindDoc("fuzz"));
}

bool
fuzzSubmissionFromJson(const JsonValue &doc, fuzz::FuzzOptions *opts,
                       std::string *err)
{
    if (!doc.isObject()) {
        *err = "fuzz submission is not an object";
        return false;
    }
    return triage::structFromJson(doc, opts, err) &&
           knownConfigs(opts->configs, err);
}

JsonValue
fuzzReportToJson(const fuzz::FuzzReport &report)
{
    return triage::structToJson(report, kindDoc("fuzz"));
}

bool
fuzzReportFromJson(const JsonValue &doc, fuzz::FuzzReport *report,
                   std::string *err)
{
    if (!doc.isObject()) {
        *err = "fuzz report is not an object";
        return false;
    }
    return triage::structFromJson(doc, report, err);
}

} // namespace edge::serve
