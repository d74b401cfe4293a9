#include "triage/result_json.hh"

#include <limits>
#include <type_traits>

namespace edge::triage {

namespace {

// ---------------------------------------------------------------------
// The config field tables. One row per field, in JSON emission order;
// a nested struct is one row whose value is that struct's own table.
// configToJson, configFromJson, `--set` and the `--help` key list all
// read these rows, so a field is named exactly once.
// ---------------------------------------------------------------------

template <typename S>
struct Field
{
    const char *name;
    const char *doc;
    JsonValue (*save)(const S &);
    bool (*load)(const JsonValue &, S *, std::string *err);
    /** Nested-struct rows only: lists the child's keys under a
     *  prefix (null for leaf fields). */
    void (*keys)(const std::string &prefix, std::vector<ConfigKey> *out);
};

/** Specialised below with `static constexpr Field<S> rows[]`. */
template <typename S>
struct Fields;

template <typename T>
constexpr bool kNested =
    std::is_class_v<T> && !std::is_same_v<T, std::vector<std::uint64_t>>;

template <typename S>
JsonValue
structToJson(const S &s)
{
    JsonValue o = JsonValue::object();
    for (const Field<S> &f : Fields<S>::rows)
        o.set(f.name, f.save(s));
    return o;
}

/** Absent keys keep their current value; errors name the field path
 *  ("core.hop_latency: ...", or "core: ..." when `core` itself is
 *  wrong). */
template <typename S>
bool
structFromJson(const JsonValue &o, S *s, std::string *err)
{
    for (const Field<S> &f : Fields<S>::rows) {
        const JsonValue *v = o.get(f.name);
        if (v && !f.load(*v, s, err)) {
            const bool inChild = f.keys && v->isObject();
            *err = f.name + std::string(inChild ? "." : ": ") + *err;
            return false;
        }
    }
    return true;
}

template <typename S>
void
listKeys(const std::string &prefix, std::vector<ConfigKey> *out)
{
    const S defaults{};
    for (const Field<S> &f : Fields<S>::rows) {
        const std::string path = prefix + f.name;
        out->push_back(
            {path, f.doc, f.keys ? "" : f.save(defaults).dumpCompact()});
        if (f.keys)
            f.keys(path + ".", out);
    }
}

template <typename T>
JsonValue
encode(const T &v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return JsonValue::boolean(v);
    } else if constexpr (std::is_enum_v<T>) {
        return JsonValue::str(enumName(v));
    } else if constexpr (std::is_integral_v<T>) {
        return JsonValue::u64(v);
    } else if constexpr (kNested<T>) {
        return structToJson(v);
    } else {
        JsonValue a = JsonValue::array();
        for (std::uint64_t e : v)
            a.push(JsonValue::u64(e));
        return a;
    }
}

template <typename T>
bool
decode(const JsonValue &j, T *v, std::string *err)
{
    if constexpr (std::is_same_v<T, bool>) {
        if (j.type() == JsonValue::Type::Bool) {
            *v = j.asBool();
            return true;
        }
        *err = "expected true or false";
    } else if constexpr (std::is_enum_v<T>) {
        return enumFromJson(j, v, err);
    } else if constexpr (std::is_integral_v<T>) {
        constexpr std::uint64_t max = std::numeric_limits<T>::max();
        if (j.type() == JsonValue::Type::Number && j.asI64() >= 0 &&
            j.asU64() <= max) {
            *v = static_cast<T>(j.asU64());
            return true;
        }
        *err = "expected an integer in [0, " + std::to_string(max) + "]";
    } else if constexpr (kNested<T>) {
        if (j.isObject())
            return structFromJson(j, v, err);
        *err = "expected an object";
    } else {
        T out(j.items().size());
        for (std::size_t i = 0; i < out.size(); ++i)
            if (!decode(j.items()[i], &out[i], err))
                return false;
        if (j.isArray()) {
            *v = std::move(out);
            return true;
        }
        *err = "expected an array";
    }
    return false;
}

template <typename>
struct MemberOf;
template <typename S, typename T>
struct MemberOf<T S::*>
{
    using Struct = S;
    using Type = T;
};

/** The table row of member `M`. */
template <auto M>
constexpr Field<typename MemberOf<decltype(M)>::Struct>
row(const char *name, const char *doc)
{
    using S = typename MemberOf<decltype(M)>::Struct;
    using T = typename MemberOf<decltype(M)>::Type;
    Field<S> f{name, doc, [](const S &s) { return encode(s.*M); },
               [](const JsonValue &j, S *s, std::string *err) {
                   return decode(j, &(s->*M), err);
               },
               nullptr};
    if constexpr (kNested<T>)
        f.keys = &listKeys<T>;
    return f;
}

template <>
struct Fields<core::CoreParams>
{
    using P = core::CoreParams;
    static constexpr Field<P> rows[] = {
        row<&P::rows>("rows", "execution-node grid rows"),
        row<&P::cols>("cols", "execution-node grid columns"),
        row<&P::slotsPerNode>("slots_per_node",
                              "reservation slots per node per frame"),
        row<&P::numFrames>("num_frames", "blocks in flight"),
        row<&P::hopLatency>("hop_latency",
                            "operand network cycles per hop"),
        row<&P::fetchWidth>("fetch_width",
                            "instructions mapped per cycle"),
        row<&P::regReadLatency>("reg_read_latency",
                                "register read cycles"),
        row<&P::regPortsPerBank>("reg_ports_per_bank",
                                 "register forwards per bank per cycle"),
        row<&P::commitPortsPerNode>("commit_ports_per_node",
                                    "commit-wave sends per node per cycle"),
        row<&P::commitWaveUsesAlu>("commit_wave_uses_alu",
                                   "commit waves occupy the ALU"),
        row<&P::squashIdenticalValues>(
            "squash_identical_values",
            "suppress re-sends whose value did not change"),
        row<&P::latIntAlu>("lat_int_alu", "integer ALU latency"),
        row<&P::latIntMul>("lat_int_mul", "integer multiply latency"),
        row<&P::latIntDiv>("lat_int_div", "integer divide latency"),
        row<&P::latFpAlu>("lat_fp_alu", "FP add latency"),
        row<&P::latFpMul>("lat_fp_mul", "FP multiply latency"),
        row<&P::latFpDiv>("lat_fp_div", "FP divide latency"),
        row<&P::latCtrl>("lat_ctrl", "branch latency"),
        row<&P::latMemAddr>("lat_mem_addr",
                            "load/store address generation latency"),
        row<&P::watchdogCycles>("watchdog_cycles",
                                "abort after this many commit-free cycles"),
    };
};

template <>
struct Fields<mem::HierarchyParams>
{
    using P = mem::HierarchyParams;
    static constexpr Field<P> rows[] = {
        row<&P::numDBanks>("num_dbanks", "L1D banks (== LSQ banks)"),
        row<&P::l1dSizeBytes>("l1d_size_bytes", "L1D bytes per bank"),
        row<&P::l1dAssoc>("l1d_assoc", "L1D associativity"),
        row<&P::l1dHitLatency>("l1d_hit_latency", "L1D hit cycles"),
        row<&P::l1dMshrs>("l1d_mshrs", "L1D miss registers"),
        row<&P::l1iSizeBytes>("l1i_size_bytes", "L1I bytes"),
        row<&P::l1iAssoc>("l1i_assoc", "L1I associativity"),
        row<&P::l1iHitLatency>("l1i_hit_latency", "L1I hit cycles"),
        row<&P::l2SizeBytes>("l2_size_bytes", "L2 bytes"),
        row<&P::l2Assoc>("l2_assoc", "L2 associativity"),
        row<&P::l2HitLatency>("l2_hit_latency", "L2 hit cycles"),
        row<&P::l2Mshrs>("l2_mshrs", "L2 miss registers"),
        row<&P::l2Banks>("l2_banks", "L2 banks"),
        row<&P::lineBytes>("line_bytes", "cache line bytes"),
        row<&P::dramLatency>("dram_latency", "DRAM access cycles"),
        row<&P::dramCyclesPerLine>("dram_cycles_per_line",
                                   "DRAM transfer cycles per line"),
    };
};

template <>
struct Fields<lsq::LsqParams>
{
    using P = lsq::LsqParams;
    static constexpr Field<P> rows[] = {
        row<&P::recovery>("recovery", "violation recovery mechanism"),
        row<&P::lsqLatency>("lsq_latency", "LSQ bank search cycles"),
        row<&P::addrBasedViolations>(
            "addr_based_violations",
            "flush recovery flags any overlapping store"),
        row<&P::maxResendsPerLoad>("max_resends_per_load",
                                   "DSRE resend budget per load (0 off)"),
        row<&P::chargeUpgradePorts>("charge_upgrade_ports",
                                    "upgrades take an LSQ bank port"),
        row<&P::valuePredictMisses>("value_predict_misses",
                                    "value-predict long-latency loads"),
        row<&P::vpLatencyThreshold>("vp_latency_threshold",
                                    "predict when the access is slower"),
        row<&P::vpTableSize>("vp_table_size", "last-value table entries"),
    };
};

template <>
struct Fields<pred::NextBlockParams>
{
    using P = pred::NextBlockParams;
    static constexpr Field<P> rows[] = {
        row<&P::tableSize>("table_size", "next-block predictor entries"),
        row<&P::historyBits>("history_bits", "global exit-history bits"),
    };
};

template <>
struct Fields<chaos::ChaosParams>
{
    using P = chaos::ChaosParams;
    static constexpr Field<P> rows[] = {
        row<&P::seed>("seed", "fault-injection seed"),
        row<&P::profile>("profile", "fault-mix preset"),
        row<&P::hopDelayPermille>("hop_delay_permille",
                                  "extra hop delay probability"),
        row<&P::hopDelayMax>("hop_delay_max", "max extra hop cycles"),
        row<&P::duplicatePermille>("duplicate_permille",
                                   "duplicate delivery probability"),
        row<&P::duplicateSkewMax>("duplicate_skew_max",
                                  "max extra delay of a duplicate"),
        row<&P::memJitterPermille>("mem_jitter_permille",
                                   "fill-latency jitter probability"),
        row<&P::memJitterMax>("mem_jitter_max", "max extra fill cycles"),
        row<&P::storeDelayPermille>("store_delay_permille",
                                    "store-resolve delay probability"),
        row<&P::storeDelayMax>("store_delay_max",
                               "max store-resolve delay"),
        row<&P::spuriousPermille>("spurious_permille",
                                  "spurious re-fire wave probability"),
        row<&P::mutation>("mutation", "planted protocol mutation"),
        row<&P::mutationNode>("mutation_node",
                              "grid node a mutation hits"),
        row<&P::filterSchedule>("filter_schedule",
                                "inject only allowed_events"),
        row<&P::allowedEvents>("allowed_events",
                               "injection ordinals kept by the filter"),
    };
};

template <>
struct Fields<core::MachineConfig>
{
    using P = core::MachineConfig;
    static constexpr Field<P> rows[] = {
        row<&P::policy>("policy", "load dependence policy"),
        row<&P::checkCommittedPath>(
            "check_committed_path",
            "cross-check the committed path against the reference"),
        row<&P::rngSeed>("rng_seed", "run-level RNG seed"),
        row<&P::checkInvariants>("check_invariants",
                                 "run the DSRE invariant checker"),
        row<&P::traceDepth>("trace_depth",
                            "events kept for failure reports"),
        row<&P::wallDeadlineMs>("wall_deadline_ms",
                                "per-run wall-clock deadline (0 off)"),
        row<&P::core>("core", "execution core"),
        row<&P::mem>("mem", "memory hierarchy"),
        row<&P::lsq>("lsq", "load/store queue"),
        row<&P::nbp>("nbp", "next-block predictor"),
        row<&P::chaos>("chaos", "fault injection"),
    };
};

} // namespace

JsonValue
configToJson(const core::MachineConfig &cfg)
{
    return structToJson(cfg);
}

bool
configFromJson(const JsonValue &o, core::MachineConfig *cfg,
               std::string *err)
{
    std::string local;
    std::string *e = err ? err : &local;
    if (!decode(o, cfg, e)) {
        *e = "config: " + *e;
        return false;
    }
    return true;
}

std::vector<ConfigKey>
configKeys()
{
    std::vector<ConfigKey> keys;
    listKeys<core::MachineConfig>("", &keys);
    return keys;
}

bool
applyConfigOverride(core::MachineConfig *cfg, const std::string &key,
                    const std::string &value, std::string *err)
{
    std::string local;
    std::string *e = err ? err : &local;
    bool leaf = false;
    for (const ConfigKey &k : configKeys())
        leaf |= k.path == key && !k.value.empty();
    if (!leaf) {
        *e = "unknown --set key '" + key + "'";
        return false;
    }
    // A JSON literal (16, true, [1,2]) or a bare enum name (dsre).
    JsonValue patch;
    std::string perr;
    if (!JsonValue::parse(value, &patch, &perr))
        patch = JsonValue::str(value);
    std::string path = key;
    for (std::size_t dot; (dot = path.rfind('.')) != std::string::npos;
         path.resize(dot)) {
        JsonValue o = JsonValue::object();
        o.set(path.substr(dot + 1), std::move(patch));
        patch = std::move(o);
    }
    JsonValue root = JsonValue::object();
    root.set(path, std::move(patch));
    return configFromJson(root, cfg, e);
}

JsonValue
eventsToJson(const std::vector<chaos::FaultEvent> &events)
{
    JsonValue sched = JsonValue::array();
    for (const chaos::FaultEvent &e : events) {
        JsonValue ev = JsonValue::object();
        ev.set("ordinal", JsonValue::u64(e.ordinal));
        ev.set("site", JsonValue::str(enumName(e.site)));
        ev.set("magnitude", JsonValue::u64(e.magnitude));
        sched.push(std::move(ev));
    }
    return sched;
}

bool
eventsFromJson(const JsonValue *sched,
               std::vector<chaos::FaultEvent> *events, std::string *err)
{
    events->clear();
    if (!sched)
        return true;
    for (const JsonValue &ev : sched->items()) {
        chaos::FaultEvent e;
        e.ordinal = ev.getU64("ordinal");
        if (!enumFromJson(ev, "site", &e.site, err))
            return false;
        e.magnitude = ev.getU64("magnitude");
        events->push_back(e);
    }
    return true;
}

JsonValue
errorToJson(const chaos::SimError &e)
{
    JsonValue o = JsonValue::object();
    o.set("reason", JsonValue::str(enumName(e.reason)));
    o.set("invariant", JsonValue::str(e.invariant));
    o.set("message", JsonValue::str(e.message));
    o.set("cycle", JsonValue::u64(e.cycle));
    o.set("seq", JsonValue::u64(e.seq));
    o.set("node", JsonValue::u64(e.node));
    JsonValue trace = JsonValue::array();
    for (const std::string &line : e.trace)
        trace.push(JsonValue::str(line));
    o.set("trace", std::move(trace));
    return o;
}

bool
errorFromJson(const JsonValue &o, chaos::SimError *e, std::string *err)
{
    if (!enumFromJson(o, "reason", &e->reason, err))
        return false;
    e->invariant = o.getString("invariant");
    e->message = o.getString("message");
    e->cycle = o.getU64("cycle");
    e->seq = o.getU64("seq");
    e->node = static_cast<std::uint32_t>(o.getU64("node"));
    e->trace.clear();
    if (const JsonValue *trace = o.get("trace"))
        for (const JsonValue &line : trace->items())
            e->trace.push_back(line.asString());
    return true;
}

JsonValue
resultToJson(const sim::RunResult &r)
{
    JsonValue o = JsonValue::object();
    o.set("cycles", JsonValue::u64(r.cycles));
    o.set("committed_blocks", JsonValue::u64(r.committedBlocks));
    o.set("committed_insts", JsonValue::u64(r.committedInsts));
    o.set("halted", JsonValue::boolean(r.halted));
    o.set("arch_match", JsonValue::boolean(r.archMatch));
    o.set("error", errorToJson(r.error));
    o.set("rng_seed", JsonValue::u64(r.rngSeed));
    o.set("chaos_seed", JsonValue::u64(r.chaosSeed));

    JsonValue inj = JsonValue::object();
    inj.set("hop_delays", JsonValue::u64(r.injections.hopDelays));
    inj.set("duplicates", JsonValue::u64(r.injections.duplicates));
    inj.set("mem_jitters", JsonValue::u64(r.injections.memJitters));
    inj.set("store_delays", JsonValue::u64(r.injections.storeDelays));
    inj.set("spurious_waves",
            JsonValue::u64(r.injections.spuriousWaves));
    o.set("injections", std::move(inj));

    o.set("chaos_events", eventsToJson(r.chaosEvents));

    o.set("invariant_checks", JsonValue::u64(r.invariantChecks));
    o.set("retries", JsonValue::u64(r.retries));
    o.set("backoff_ms", JsonValue::u64(r.backoffMs));

    JsonValue counters = JsonValue::array();
    for (const auto &kv : r.counters) {
        JsonValue c = JsonValue::array();
        c.push(JsonValue::str(kv.first));
        c.push(JsonValue::u64(kv.second));
        counters.push(std::move(c));
    }
    o.set("counters", std::move(counters));

    JsonValue hists = JsonValue::array();
    for (const auto &kv : r.histograms) {
        JsonValue h = JsonValue::object();
        h.set("name", JsonValue::str(kv.first));
        JsonValue buckets = JsonValue::array();
        for (std::uint64_t b : kv.second.buckets())
            buckets.push(JsonValue::u64(b));
        h.set("buckets", std::move(buckets));
        h.set("samples", JsonValue::u64(kv.second.samples()));
        h.set("sum", JsonValue::u64(kv.second.sum()));
        h.set("max", JsonValue::u64(kv.second.maxValue()));
        hists.push(std::move(h));
    }
    o.set("histograms", std::move(hists));

    o.set("violations", JsonValue::u64(r.violations));
    o.set("resends", JsonValue::u64(r.resends));
    o.set("reexecs", JsonValue::u64(r.reexecs));
    o.set("upgrades", JsonValue::u64(r.upgrades));
    o.set("ctrl_flushes", JsonValue::u64(r.ctrlFlushes));
    o.set("viol_flushes", JsonValue::u64(r.violFlushes));
    o.set("alu_issues", JsonValue::u64(r.aluIssues));
    o.set("loads", JsonValue::u64(r.loads));
    o.set("stores", JsonValue::u64(r.stores));
    o.set("forwards", JsonValue::u64(r.forwards));
    o.set("policy_holds", JsonValue::u64(r.policyHolds));
    o.set("deferrals", JsonValue::u64(r.deferrals));
    o.set("squashes", JsonValue::u64(r.squashes));
    return o;
}

bool
resultFromJson(const JsonValue &o, sim::RunResult *r, std::string *err)
{
    if (!o.isObject() || !o.get("cycles") || !o.get("error")) {
        if (err)
            *err = "not a RunResult document";
        return false;
    }
    r->cycles = o.getU64("cycles");
    r->committedBlocks = o.getU64("committed_blocks");
    r->committedInsts = o.getU64("committed_insts");
    r->halted = o.getBool("halted");
    r->archMatch = o.getBool("arch_match");
    if (!errorFromJson(*o.get("error"), &r->error, err))
        return false;
    r->rngSeed = o.getU64("rng_seed");
    r->chaosSeed = o.getU64("chaos_seed");

    if (const JsonValue *inj = o.get("injections")) {
        r->injections.hopDelays = inj->getU64("hop_delays");
        r->injections.duplicates = inj->getU64("duplicates");
        r->injections.memJitters = inj->getU64("mem_jitters");
        r->injections.storeDelays = inj->getU64("store_delays");
        r->injections.spuriousWaves = inj->getU64("spurious_waves");
    }

    if (!eventsFromJson(o.get("chaos_events"), &r->chaosEvents, err))
        return false;

    r->invariantChecks = o.getU64("invariant_checks");
    r->retries = static_cast<unsigned>(o.getU64("retries"));
    r->backoffMs = o.getU64("backoff_ms");

    r->counters.clear();
    if (const JsonValue *counters = o.get("counters")) {
        for (const JsonValue &c : counters->items()) {
            if (c.items().size() != 2) {
                if (err)
                    *err = "malformed counter entry";
                return false;
            }
            r->counters.emplace_back(c.items()[0].asString(),
                                     c.items()[1].asU64());
        }
    }

    r->histograms.clear();
    if (const JsonValue *hists = o.get("histograms")) {
        for (const JsonValue &h : hists->items()) {
            std::vector<std::uint64_t> buckets;
            if (const JsonValue *b = h.get("buckets"))
                for (const JsonValue &v : b->items())
                    buckets.push_back(v.asU64());
            Histogram hist;
            hist.restore(std::move(buckets), h.getU64("samples"),
                         h.getU64("sum"), h.getU64("max"));
            r->histograms.emplace_back(h.getString("name"),
                                       std::move(hist));
        }
    }

    r->violations = o.getU64("violations");
    r->resends = o.getU64("resends");
    r->reexecs = o.getU64("reexecs");
    r->upgrades = o.getU64("upgrades");
    r->ctrlFlushes = o.getU64("ctrl_flushes");
    r->violFlushes = o.getU64("viol_flushes");
    r->aluIssues = o.getU64("alu_issues");
    r->loads = o.getU64("loads");
    r->stores = o.getU64("stores");
    r->forwards = o.getU64("forwards");
    r->policyHolds = o.getU64("policy_holds");
    r->deferrals = o.getU64("deferrals");
    r->squashes = o.getU64("squashes");
    return true;
}

} // namespace edge::triage
