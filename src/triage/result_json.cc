#include "triage/result_json.hh"

namespace edge::triage {

// ---------------------------------------------------------------------
// The config field tables. configToJson, configFromJson, `--set` and
// the `--help` key list all read these rows, so a field is named
// exactly once.
// ---------------------------------------------------------------------

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

// ---------------------------------------------------------------------
// The RunResult tables: what a worker, an agent, the journal and a
// campaign report carry of one run.
// ---------------------------------------------------------------------

template <>
struct Fields<chaos::SimError>
{
    using P = chaos::SimError;
    static constexpr Field<P> rows[] = {
        row<&P::reason>("reason"),   row<&P::invariant>("invariant"),
        row<&P::message>("message"), row<&P::cycle>("cycle"),
        row<&P::seq>("seq"),         row<&P::node>("node"),
        row<&P::trace>("trace"),
    };
};

template <>
struct Fields<chaos::InjectionCounts>
{
    using P = chaos::InjectionCounts;
    static constexpr Field<P> rows[] = {
        row<&P::hopDelays>("hop_delays"),
        row<&P::duplicates>("duplicates"),
        row<&P::memJitters>("mem_jitters"),
        row<&P::storeDelays>("store_delays"),
        row<&P::spuriousWaves>("spurious_waves"),
    };
};

template <>
struct Fields<chaos::FaultEvent>
{
    using P = chaos::FaultEvent;
    static constexpr Field<P> rows[] = {
        row<&P::ordinal>("ordinal"),
        row<&P::site>("site"),
        row<&P::magnitude>("magnitude"),
    };
};

template <>
struct Fields<sim::RunResult>
{
    using P = sim::RunResult;
    static constexpr Field<P> rows[] = {
        row<&P::cycles>("cycles"),
        row<&P::committedBlocks>("committed_blocks"),
        row<&P::committedInsts>("committed_insts"),
        row<&P::halted>("halted"),
        row<&P::archMatch>("arch_match"),
        row<&P::error>("error"),
        row<&P::rngSeed>("rng_seed"),
        row<&P::chaosSeed>("chaos_seed"),
        row<&P::injections>("injections"),
        row<&P::chaosEvents>("chaos_events"),
        row<&P::invariantChecks>("invariant_checks"),
        row<&P::retries>("retries"),
        row<&P::backoffMs>("backoff_ms"),
        row<&P::counters>("counters"),
        row<&P::histograms>("histograms"),
    };
};

template JsonValue structToJson(const chaos::SimError &, JsonValue);
template bool structFromJson(const JsonValue &, chaos::SimError *,
                             std::string *);
template JsonValue structToJson(const chaos::FaultEvent &, JsonValue);
template bool structFromJson(const JsonValue &, chaos::FaultEvent *,
                             std::string *);
template JsonValue structToJson(const core::MachineConfig &, JsonValue);
template bool structFromJson(const JsonValue &, core::MachineConfig *,
                             std::string *);
template void listKeys<core::MachineConfig>(const std::string &,
                                            std::vector<ConfigKey> *);
template JsonValue structToJson(const sim::RunResult &, JsonValue);
template bool structFromJson(const JsonValue &, sim::RunResult *,
                             std::string *);
template void listKeys<sim::RunResult>(const std::string &,
                                       std::vector<ConfigKey> *);

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
resultToJson(const sim::RunResult &r)
{
    return structToJson(r);
}

bool
resultFromJson(const JsonValue &o, sim::RunResult *r, std::string *err)
{
    std::string local;
    std::string *e = err ? err : &local;
    if (!o.isObject() || !o.get("cycles") || !o.get("error")) {
        *e = "not a RunResult document";
        return false;
    }
    return structFromJson(o, r, e);
}

} // namespace edge::triage
