/**
 * @file
 * Failure-triage tests: repro capture of failing chaos-sweep cells
 * and bit-identical replay, ddmin schedule minimization (synthetic
 * predicate and end-to-end on a real failure), the transient-only
 * retry policy, and quarantine keeping a grid green. The heavyweight
 * planted-failure cases reuse the mutation machinery, so most of
 * this file is gated on EDGE_MUTATIONS like the mutation tests.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "bench/bench_util.hh"
#include "serve/campaign_json.hh"
#include "sim/run_pool.hh"
#include "sim/sweep.hh"
#include "super/cell.hh"
#include "triage/jsonio.hh"
#include "triage/minimize.hh"
#include "triage/repro.hh"
#include "triage/result_json.hh"
#include "workloads/workloads.hh"

namespace edge {
namespace {

/** Fresh scratch directory under the test's working dir. */
class TempDir
{
  public:
    explicit TempDir(const std::string &name)
        : _path(std::filesystem::temp_directory_path() /
                ("edgesim-triage-" + name))
    {
        std::filesystem::remove_all(_path);
        std::filesystem::create_directories(_path);
    }

    ~TempDir() { std::filesystem::remove_all(_path); }

    std::string str() const { return _path.string(); }

  private:
    std::filesystem::path _path;
};

// ---------------------------------------------------------------------
// JSON round trips.
// ---------------------------------------------------------------------

TEST(TriageJson, ScalarAndContainerRoundTrip)
{
    triage::JsonValue root = triage::JsonValue::object();
    root.set("u", triage::JsonValue::u64(0xffffffffffffffffULL));
    root.set("i", triage::JsonValue::i64(-42));
    root.set("b", triage::JsonValue::boolean(true));
    root.set("s", triage::JsonValue::str("line\n\"quoted\"\ttab"));
    triage::JsonValue arr = triage::JsonValue::array();
    arr.push(triage::JsonValue::u64(1));
    arr.push(triage::JsonValue::str("two"));
    root.set("a", std::move(arr));

    triage::JsonValue parsed;
    std::string err;
    ASSERT_TRUE(
        triage::JsonValue::parse(root.dump(), &parsed, &err)) << err;
    // The max uint64 is the value a double-backed parser would lose.
    EXPECT_EQ(parsed.getU64("u"), 0xffffffffffffffffULL);
    EXPECT_EQ(parsed.get("i")->asI64(), -42);
    EXPECT_TRUE(parsed.getBool("b"));
    EXPECT_EQ(parsed.getString("s"), "line\n\"quoted\"\ttab");
    ASSERT_NE(parsed.get("a"), nullptr);
    EXPECT_EQ(parsed.get("a")->items().size(), 2u);
    EXPECT_EQ(parsed.get("a")->items()[0].asU64(), 1u);
}

TEST(TriageJson, MalformedInputIsRejectedWithPosition)
{
    triage::JsonValue out;
    std::string err;
    EXPECT_FALSE(triage::JsonValue::parse("{\"a\": }", &out, &err));
    EXPECT_NE(err.find("offset"), std::string::npos);
    EXPECT_FALSE(triage::JsonValue::parse("[1, 2", &out, &err));
    EXPECT_FALSE(triage::JsonValue::parse("{} trailing", &out, &err));
}

TEST(TriageRepro, SpecSurvivesSaveAndLoad)
{
    triage::ReproSpec spec;
    spec.program.kernel = "parserish";
    spec.program.params.iterations = 150;
    spec.program.params.seed = 5;
    spec.programHash = 0xdeadbeefcafef00dULL;
    spec.config = sim::Configs::storeSetsDsre();
    spec.config.rngSeed = 5;
    spec.config.chaos =
        chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
    spec.config.chaos.filterSchedule = true;
    spec.config.chaos.allowedEvents = {3, 17, 99};
    spec.config.wallDeadlineMs = 1234;
    spec.maxCycles = 777'777;
    spec.error.reason = chaos::SimError::Reason::InvariantViolation;
    spec.error.invariant = "value-identity-squash";
    spec.error.message = "node 7 re-sent an identical (value, state)";
    spec.error.cycle = 4242;
    spec.error.seq = 12;
    spec.error.node = 7;
    spec.error.trace = {"cycle 1 deliver", "cycle 2 send"};
    spec.halted = false;
    spec.archMatch = false;
    spec.retries = 2;
    chaos::FaultEvent ev;
    ev.ordinal = 9;
    ev.site = chaos::FaultEvent::Site::Spurious;
    ev.magnitude = 0;
    spec.schedule.push_back(ev);

    TempDir dir("roundtrip");
    std::string path = dir.str() + "/spec.repro.json";
    std::string err;
    ASSERT_TRUE(triage::save(spec, path, &err)) << err;

    triage::ReproSpec back;
    ASSERT_TRUE(triage::load(path, &back, &err)) << err;
    EXPECT_EQ(back.program.kernel, "parserish");
    EXPECT_EQ(back.program.params.iterations, 150u);
    EXPECT_EQ(back.program.params.seed, 5u);
    EXPECT_EQ(back.programHash, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(back.config.policy, pred::DepPolicy::StoreSets);
    EXPECT_EQ(back.config.lsq.recovery, lsq::Recovery::Dsre);
    EXPECT_EQ(back.config.rngSeed, 5u);
    EXPECT_EQ(back.config.chaos.profile, chaos::Profile::Lsq);
    EXPECT_TRUE(back.config.chaos.filterSchedule);
    EXPECT_EQ(back.config.chaos.allowedEvents,
              (std::vector<std::uint64_t>{3, 17, 99}));
    EXPECT_EQ(back.config.wallDeadlineMs, 1234u);
    EXPECT_EQ(back.maxCycles, 777'777u);
    EXPECT_EQ(back.error.reason,
              chaos::SimError::Reason::InvariantViolation);
    EXPECT_EQ(back.error.invariant, "value-identity-squash");
    EXPECT_EQ(back.error.cycle, 4242u);
    EXPECT_EQ(back.error.node, 7u);
    EXPECT_EQ(back.error.trace.size(), 2u);
    EXPECT_EQ(back.retries, 2u);
    ASSERT_EQ(back.schedule.size(), 1u);
    EXPECT_EQ(back.schedule[0], ev);
}

TEST(TriageRepro, ProgramHashTracksContent)
{
    wl::KernelParams kp;
    kp.iterations = 50;
    std::uint64_t a = triage::programHash(wl::build("gzipish", kp));
    std::uint64_t b = triage::programHash(wl::build("gzipish", kp));
    EXPECT_EQ(a, b);
    kp.seed = 2;
    std::uint64_t c = triage::programHash(wl::build("gzipish", kp));
    EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------
// The config wire format. configToJson's compact bytes feed
// super::cellHash, which keys journals, resume and fabric audits, so
// the bytes are pinned against tests/golden/config_wire.txt (one
// `<label> <cellHash hex> <configToJson compact>` line per config).
// ---------------------------------------------------------------------

/** The config a golden-file label names. */
core::MachineConfig
goldenConfig(const std::string &label)
{
    if (label != "dsre-heavy-seed7")
        return sim::Configs::byName(label);
    core::MachineConfig cfg = sim::Configs::dsre();
    cfg.rngSeed = 7;
    cfg.chaos = chaos::ChaosParams::byProfile(chaos::Profile::Heavy, 7);
    cfg.chaos.mutation = chaos::Mutation::SkipSquash;
    cfg.chaos.mutationNode = 5;
    cfg.chaos.filterSchedule = true;
    cfg.chaos.allowedEvents = {3, 5, 8};
    return cfg;
}

TEST(ConfigWire, BytesAndCellHashMatchPinnedGolden)
{
    std::ifstream in(EDGE_TEST_GOLDEN_DIR "/config_wire.txt");
    ASSERT_TRUE(in) << "missing golden file";
    std::set<std::string> labels;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string label, hash, json;
        fields >> label >> hash >> json;
        labels.insert(label);
        SCOPED_TRACE(label);
        super::CellSpec cell;
        cell.program.kernel = "mcfish";
        cell.programHash = 0x0123456789abcdefULL;
        cell.config = goldenConfig(label);
        EXPECT_EQ(triage::configToJson(cell.config).dumpCompact(), json);
        char want[17];
        std::snprintf(want, sizeof want, "%016llx",
                      static_cast<unsigned long long>(
                          super::cellHash(cell)));
        EXPECT_EQ(hash, want);
    }
    std::set<std::string> expected(sim::Configs::allNames().begin(),
                                   sim::Configs::allNames().end());
    expected.insert("dsre-heavy-seed7");
    EXPECT_EQ(labels, expected);
}

/** Numeric JSON leaves in document order (array items included). */
void
numericLeaves(const triage::JsonValue &v, std::vector<std::uint64_t> *out)
{
    if (v.type() == triage::JsonValue::Type::Number)
        out->push_back(v.asU64());
    for (const auto &kv : v.members())
        numericLeaves(kv.second, out);
    for (const triage::JsonValue &e : v.items())
        numericLeaves(e, out);
}

TEST(ConfigWire, EveryFieldRoundTripsUnderItsOwnKey)
{
    // Every numeric field gets the next value of a counter, assigned
    // here by member name in JSON emission order; a table row bound
    // to the wrong member breaks the ascending run below.
    core::MachineConfig c;
    std::uint64_t n = 100;
    auto next = [&n] { return static_cast<unsigned>(n++); };
    c.policy = pred::DepPolicy::Oracle;
    c.checkCommittedPath = false;
    c.rngSeed = next();
    c.checkInvariants = true;
    c.traceDepth = next();
    c.wallDeadlineMs = next();
    c.core.rows = next();
    c.core.cols = next();
    c.core.slotsPerNode = next();
    c.core.numFrames = next();
    c.core.hopLatency = next();
    c.core.fetchWidth = next();
    c.core.regReadLatency = next();
    c.core.commitPortsPerNode = next();
    c.core.commitWaveUsesAlu = true;
    c.core.squashIdenticalValues = false;
    c.core.latIntAlu = next();
    c.core.latIntMul = next();
    c.core.latIntDiv = next();
    c.core.latFpAlu = next();
    c.core.latFpMul = next();
    c.core.latFpDiv = next();
    c.core.latCtrl = next();
    c.core.latMemAddr = next();
    c.core.watchdogCycles = next();
    c.mem.numDBanks = next();
    c.mem.l1dSizeBytes = next();
    c.mem.l1dAssoc = next();
    c.mem.l1dHitLatency = next();
    c.mem.l1dMshrs = next();
    c.mem.l1iSizeBytes = next();
    c.mem.l1iAssoc = next();
    c.mem.l1iHitLatency = next();
    c.mem.l2SizeBytes = next();
    c.mem.l2Assoc = next();
    c.mem.l2HitLatency = next();
    c.mem.l2Mshrs = next();
    c.mem.l2Banks = next();
    c.mem.lineBytes = next();
    c.mem.dramLatency = next();
    c.mem.dramCyclesPerLine = next();
    c.lsq.recovery = lsq::Recovery::Flush;
    c.lsq.lsqLatency = next();
    c.lsq.addrBasedViolations = false;
    c.lsq.maxResendsPerLoad = next();
    c.lsq.chargeUpgradePorts = true;
    c.lsq.valuePredictMisses = true;
    c.lsq.vpLatencyThreshold = next();
    c.lsq.vpTableSize = next();
    c.nbp.tableSize = next();
    c.nbp.historyBits = next();
    c.chaos.seed = next();
    c.chaos.profile = chaos::Profile::Mem;
    c.chaos.hopDelayPermille = next();
    c.chaos.hopDelayMax = next();
    c.chaos.duplicatePermille = next();
    c.chaos.duplicateSkewMax = next();
    c.chaos.memJitterPermille = next();
    c.chaos.memJitterMax = next();
    c.chaos.storeDelayPermille = next();
    c.chaos.storeDelayMax = next();
    c.chaos.spuriousPermille = next();
    c.chaos.mutation = chaos::Mutation::DropUpgrade;
    c.chaos.mutationNode = next();
    c.chaos.filterSchedule = true;
    c.chaos.allowedEvents = {next(), next()};

    const triage::JsonValue doc = triage::configToJson(c);
    std::vector<std::uint64_t> leaves;
    numericLeaves(doc, &leaves);
    ASSERT_EQ(leaves.size(), n - 100);
    for (std::size_t i = 0; i < leaves.size(); ++i)
        EXPECT_EQ(leaves[i], 100 + i) << "numeric leaf " << i;

    const triage::JsonValue *core_o = doc.get("core");
    const triage::JsonValue *lsq_o = doc.get("lsq");
    const triage::JsonValue *chaos_o = doc.get("chaos");
    ASSERT_TRUE(core_o && lsq_o && chaos_o);
    EXPECT_EQ(doc.getString("policy"), "oracle");
    EXPECT_FALSE(doc.getBool("check_committed_path", true));
    EXPECT_TRUE(doc.getBool("check_invariants"));
    EXPECT_TRUE(core_o->getBool("commit_wave_uses_alu"));
    EXPECT_FALSE(core_o->getBool("squash_identical_values", true));
    EXPECT_EQ(lsq_o->getString("recovery"), "flush");
    EXPECT_FALSE(lsq_o->getBool("addr_based_violations", true));
    EXPECT_TRUE(lsq_o->getBool("charge_upgrade_ports"));
    EXPECT_TRUE(lsq_o->getBool("value_predict_misses"));
    EXPECT_EQ(chaos_o->getString("profile"), "mem");
    EXPECT_EQ(chaos_o->getString("mutation"), "drop-upgrade");
    EXPECT_TRUE(chaos_o->getBool("filter_schedule"));

    core::MachineConfig back;
    std::string err;
    ASSERT_TRUE(triage::configFromJson(doc, &back, &err)) << err;
    EXPECT_EQ(triage::configToJson(back).dumpCompact(), doc.dumpCompact());
}

/** configFromJson on one JSON document; the error ("" on success). */
std::string
configError(const std::string &json)
{
    triage::JsonValue doc;
    std::string err;
    EXPECT_TRUE(triage::JsonValue::parse(json, &doc, &err)) << err;
    core::MachineConfig cfg;
    return triage::configFromJson(doc, &cfg, &err) ? "" : err;
}

TEST(ConfigWire, UnknownNamesAreErrorsNotFatal)
{
    EXPECT_NE(configError(R"({"policy":"bogus"})").find("policy"),
              std::string::npos);
    EXPECT_NE(
        configError(R"({"lsq":{"recovery":"bogus"}})").find("lsq.recovery"),
        std::string::npos);
    EXPECT_NE(configError(R"({"core":{"rows":"4"}})").find("core.rows"),
              std::string::npos);
    EXPECT_NE(configError(R"({"core":{"rows":4294967296}})")
                  .find("core.rows: expected an integer"),
              std::string::npos);
    EXPECT_EQ(configError(R"({"core":5})"), "config: core: expected an object");
    // Absent keys keep their value: a pre-engine repro still loads.
    EXPECT_EQ(configError(R"({"policy":"store-sets","core":{}})"), "");

    triage::JsonValue result = triage::resultToJson(sim::RunResult{});
    triage::JsonValue error = *result.get("error");
    error.set("reason", triage::JsonValue::str("bogus"));
    result.set("error", std::move(error));
    sim::RunResult r;
    std::string err;
    EXPECT_FALSE(triage::resultFromJson(result, &r, &err));
    EXPECT_NE(err.find("reason: unknown name 'bogus'"), std::string::npos)
        << err;

    // A wrongly typed or signed RunResult field is an error naming its
    // path, not a zero or a wrapped value.
    const std::pair<const char *, const char *> badResults[] = {
        {R"({"cycles":"abc","error":{"reason":"none"},"halted":"yes",)"
         R"("counters":"x"})",
         "cycles: expected an integer in [0, "},
        {R"({"cycles":-1,"error":{"reason":"none"}})",
         "cycles: expected an integer in [0, "},
        {R"({"cycles":1,"error":{"reason":"none","cycle":"x"}})",
         "error.cycle: expected an integer in [0, "},
        {R"({"cycles":1,"error":{},"halted":"yes"})",
         "halted: expected true or false"},
        {R"({"cycles":1,"error":{},"counters":[["lsq.loads","3"]]})",
         "counters[0][1]: expected an integer in [0, "},
        {R"({"cycles":1,"error":{},"histograms":[{"name":7}]})",
         "histograms[0].name: expected a string"},
    };
    for (const auto &[json, want] : badResults) {
        triage::JsonValue doc;
        ASSERT_TRUE(triage::JsonValue::parse(json, &doc, &err)) << err;
        err.clear();
        EXPECT_FALSE(triage::resultFromJson(doc, &r, &err)) << json;
        EXPECT_EQ(err.rfind(want, 0), 0u) << json << " -> " << err;
    }

    // A stale per-counter key of an older build is ignored: `counters`
    // is the one copy, so a journal written then still loads.
    triage::JsonValue stale;
    ASSERT_TRUE(triage::JsonValue::parse(
        R"({"cycles":1,"error":{"reason":"none"},)"
        R"("counters":[["lsq.violations",3]],"violations":12})",
        &stale, &err));
    sim::RunResult loaded;
    ASSERT_TRUE(triage::resultFromJson(stale, &loaded, &err)) << err;
    EXPECT_EQ(loaded.counter("lsq.violations"), 3u);

    // Campaign submissions decode through the same tables, and the
    // program check runs at admission.
    sim::ChaosSweepParams params;
    params.seeds = {1};
    params.configs = {"dsre"};
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    triage::JsonValue sweep = serve::sweepSubmission(params, ref);
    triage::JsonValue p = *sweep.get("params");
    p.set("max_cycles", triage::JsonValue::str("abc"));
    sweep.set("params", std::move(p));
    sim::ChaosSweepParams gotParams;
    triage::ProgramRef gotRef;
    EXPECT_FALSE(
        serve::sweepSubmissionFromJson(sweep, &gotParams, &gotRef, &err));
    EXPECT_EQ(err.rfind("params.max_cycles: expected an integer", 0), 0u)
        << err;

    triage::JsonValue fuzz = serve::fuzzSubmission(fuzz::FuzzOptions{});
    triage::JsonValue gen = *fuzz.get("gen");
    gen.set("fuel", triage::JsonValue::i64(-1));
    fuzz.set("gen", std::move(gen));
    fuzz::FuzzOptions gotOpts;
    EXPECT_FALSE(serve::fuzzSubmissionFromJson(fuzz, &gotOpts, &err));
    EXPECT_EQ(err.rfind("gen.fuel: expected an integer", 0), 0u) << err;

    wl::KernelParams kp;
    kp.iterations = 10;
    sweep = serve::sweepSubmission(
        params, triage::embeddedRef("bad", wl::build("parserish", kp)));
    ASSERT_TRUE(
        serve::sweepSubmissionFromJson(sweep, &gotParams, &gotRef, &err))
        << err;
    triage::JsonValue prog = *sweep.get("program");
    triage::JsonValue body = *prog.get("embedded");
    body.set("entry", triage::JsonValue::u64(9999));
    prog.set("embedded", std::move(body));
    sweep.set("program", std::move(prog));
    EXPECT_FALSE(
        serve::sweepSubmissionFromJson(sweep, &gotParams, &gotRef, &err));
    EXPECT_NE(err.find("program.embedded: invalid program: "),
              std::string::npos)
        << err;
}

TEST(ConfigWire, RetiredEngineKeyIsIgnored)
{
    // Builds that had a second cycle loop wrote "engine" into every
    // config, builds that had a second hang detector wrote its two
    // core.livelock_* knobs, and older builds wrote the never-read
    // core.reg_ports_per_bank; the decoder skips keys it does not
    // know, so such a config still loads and runs to the same result.
    triage::JsonValue doc = triage::configToJson(sim::Configs::dsre());
    triage::JsonValue old = doc;
    old.set("engine", triage::JsonValue::str("tick"));
    triage::JsonValue core = *old.get("core");
    core.set("livelock_interval", triage::JsonValue::u64(25000));
    core.set("livelock_repeats", triage::JsonValue::u64(4));
    core.set("reg_ports_per_bank", triage::JsonValue::u64(2));
    old.set("core", std::move(core));
    core::MachineConfig a, b;
    std::string err;
    ASSERT_TRUE(triage::configFromJson(doc, &a, &err)) << err;
    ASSERT_TRUE(triage::configFromJson(old, &b, &err)) << err;
    EXPECT_EQ(triage::configToJson(b).dumpCompact(), doc.dumpCompact());

    wl::KernelParams kp;
    kp.iterations = 60;
    const isa::Program prog = wl::build("parserish", kp);
    std::vector<sim::RunResult> r =
        sim::RunPool(2).runAll({{&prog, a}, {&prog, b}});
    ASSERT_EQ(r.size(), 2u);
    EXPECT_TRUE(r[0].halted && r[0].archMatch);
    EXPECT_EQ(triage::resultToJson(r[0]).dumpCompact(),
              triage::resultToJson(r[1]).dumpCompact());
}

TEST(ConfigWire, ReproWithUnknownNameFailsToLoad)
{
    triage::ReproSpec spec;
    spec.program.kernel = "parserish";
    triage::JsonValue doc = triage::toJson(spec);
    triage::JsonValue cfg = *doc.get("config");
    cfg.set("policy", triage::JsonValue::str("bogus"));
    doc.set("config", std::move(cfg));
    TempDir dir("unknown-name");
    const std::string path = dir.str() + "/bad.repro.json";
    std::string err;
    ASSERT_TRUE(triage::writeFileDurable(path, doc.dump(), &err)) << err;
    triage::ReproSpec back;
    EXPECT_FALSE(triage::load(path, &back, &err));
    EXPECT_NE(err.find("unknown name 'bogus'"), std::string::npos) << err;
}

TEST(TriageRepro, UnknownKernelIsAnErrorNotAnExit)
{
    // The name reaches the kernel builder from a file on disk: every
    // layer must answer with an error the caller can report.
    triage::ReproSpec spec;
    spec.program.kernel = "bogus";
    TempDir dir("unknown-kernel");
    const std::string path = dir.str() + "/bogus.repro.json";
    std::string err;
    ASSERT_TRUE(triage::writeFileDurable(
        path, triage::toJson(spec).dump(), &err))
        << err;
    triage::ReproSpec back;
    EXPECT_FALSE(triage::load(path, &back, &err));
    EXPECT_NE(err.find("unknown kernel 'bogus'"), std::string::npos)
        << err;

    err.clear();
    EXPECT_FALSE(triage::buildProgram(spec.program, &err).has_value());
    EXPECT_EQ(err, "unknown kernel 'bogus'");

    sim::RunResult r = triage::replay(spec);
    EXPECT_EQ(r.error.reason, chaos::SimError::Reason::WorkerProtocol);
    EXPECT_NE(r.error.message.find("unknown kernel 'bogus'"),
              std::string::npos)
        << r.error.message;
}

TEST(ConfigWire, SetOverridesAddressFieldsByJsonPath)
{
    core::MachineConfig cfg = sim::Configs::dsre();
    std::string err;
    ASSERT_TRUE(triage::applyConfigOverride(&cfg, "core.num_frames", "16",
                                            &err))
        << err;
    ASSERT_TRUE(triage::applyConfigOverride(&cfg, "rng_seed", "5", &err))
        << err;
    ASSERT_TRUE(
        triage::applyConfigOverride(&cfg, "lsq.recovery", "flush", &err))
        << err;
    EXPECT_EQ(cfg.core.numFrames, 16u);
    EXPECT_EQ(cfg.rngSeed, 5u);
    EXPECT_EQ(cfg.lsq.recovery, lsq::Recovery::Flush);
    EXPECT_EQ(cfg.core.hopLatency, 1u) << "siblings keep their value";

    EXPECT_FALSE(triage::applyConfigOverride(&cfg, "bogus", "1", &err));
    EXPECT_NE(err.find("unknown --set key"), std::string::npos) << err;
    EXPECT_FALSE(triage::applyConfigOverride(&cfg, "core", "1", &err))
        << "a nested struct is not a settable leaf";
    EXPECT_FALSE(
        triage::applyConfigOverride(&cfg, "core.num_frames", "x", &err));
    EXPECT_EQ(cfg.core.numFrames, 16u);

    // Every listed leaf is settable to its own default.
    for (const triage::ConfigKey &k : triage::configKeys()) {
        if (!k.value.empty()) {
            EXPECT_TRUE(
                triage::applyConfigOverride(&cfg, k.path, k.value, &err))
                << k.path << ": " << err;
        }
    }
}

// ---------------------------------------------------------------------
// Exit-code and transiency mapping (satellite a).
// ---------------------------------------------------------------------

TEST(TriageExitCodes, DistinctPerReasonAndDocumented)
{
    using Reason = chaos::SimError::Reason;
    EXPECT_EQ(chaos::exitCodeFor(Reason::None), 0);
    EXPECT_EQ(chaos::exitCodeFor(Reason::Watchdog), 10);
    EXPECT_EQ(chaos::exitCodeFor(Reason::InvariantViolation), 11);
    EXPECT_EQ(chaos::exitCodeFor(Reason::ProtocolPanic), 12);
    EXPECT_EQ(chaos::exitCodeFor(Reason::HostDeadline), 14);

    std::set<int> codes;
    for (Reason r : {Reason::None, Reason::Watchdog,
                     Reason::InvariantViolation, Reason::ProtocolPanic,
                     Reason::HostDeadline}) {
        codes.insert(chaos::exitCodeFor(r));
        EXPECT_EQ(enumLookup<Reason>(enumName(r)), r);
    }
    EXPECT_EQ(codes.size(), 5u);

    EXPECT_TRUE(chaos::isTransient(Reason::HostDeadline));
    for (Reason r : {Reason::None, Reason::Watchdog,
                     Reason::InvariantViolation, Reason::ProtocolPanic})
        EXPECT_FALSE(chaos::isTransient(r)) << enumName(r);
}

// ---------------------------------------------------------------------
// ddmin on a synthetic predicate: 5 planted events, failure iff
// {1, 3} is a subset — must converge to exactly {1, 3}.
// ---------------------------------------------------------------------

TEST(TriageMinimize, SyntheticPredicateConvergesToPlantedPair)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 5; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        ev.site = chaos::FaultEvent::Site::HopDelay;
        ev.magnitude = i + 1;
        schedule.push_back(ev);
    }
    triage::SubsetTest fails_with_1_and_3 =
        [](const std::vector<std::uint64_t> &subset) {
            bool has1 = false, has3 = false;
            for (std::uint64_t o : subset) {
                has1 = has1 || o == 1;
                has3 = has3 || o == 3;
            }
            return has1 && has3;
        };

    triage::MinimizeResult m =
        triage::minimizeSchedule(schedule, fails_with_1_and_3);
    EXPECT_TRUE(m.converged);
    EXPECT_EQ(m.ordinals, (std::vector<std::uint64_t>{1, 3}));
    ASSERT_EQ(m.schedule.size(), 2u);
    EXPECT_EQ(m.schedule[0].ordinal, 1u);
    EXPECT_EQ(m.schedule[1].ordinal, 3u);
    EXPECT_GT(m.testsRun, 0u);
}

TEST(TriageMinimize, ScheduleIndependentFailureMinimizesToEmpty)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 4; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        schedule.push_back(ev);
    }
    triage::SubsetTest always_fails =
        [](const std::vector<std::uint64_t> &) { return true; };
    triage::MinimizeResult m =
        triage::minimizeSchedule(schedule, always_fails);
    EXPECT_TRUE(m.converged);
    EXPECT_TRUE(m.ordinals.empty());
    // Two probes (empty set + full set) settle it.
    EXPECT_EQ(m.testsRun, 2u);
}

TEST(TriageMinimize, DeterministicAcrossThreadCounts)
{
    std::vector<chaos::FaultEvent> schedule;
    for (std::uint64_t i = 0; i < 12; ++i) {
        chaos::FaultEvent ev;
        ev.ordinal = i;
        schedule.push_back(ev);
    }
    // Failure iff at least two of {2, 5, 9} survive: several minimal
    // sets exist, so only a deterministic reduction path makes the
    // answer thread-count-independent.
    triage::SubsetTest two_of_three =
        [](const std::vector<std::uint64_t> &subset) {
            unsigned hits = 0;
            for (std::uint64_t o : subset)
                hits += (o == 2 || o == 5 || o == 9) ? 1 : 0;
            return hits >= 2;
        };
    triage::MinimizeOptions serial;
    serial.threads = 1;
    triage::MinimizeOptions wide;
    wide.threads = 8;
    triage::MinimizeResult a =
        triage::minimizeSchedule(schedule, two_of_three, serial);
    triage::MinimizeResult b =
        triage::minimizeSchedule(schedule, two_of_three, wide);
    EXPECT_TRUE(a.converged);
    EXPECT_EQ(a.ordinals, b.ordinals);
    EXPECT_EQ(a.ordinals.size(), 2u);
}

// ---------------------------------------------------------------------
// Retry policy: transient host failures are retried, deterministic
// failures never are.
// ---------------------------------------------------------------------

TEST(TriageRetry, HostDeadlineIsRetriedToExhaustion)
{
    // A 0-cycle... rather, a 1 ms wall deadline cannot complete the
    // kernel, so every attempt fails with HostDeadline and the policy
    // runs out of attempts.
    wl::KernelParams kp;
    kp.iterations = 2000;
    isa::Program prog = wl::build("mcfish", kp);
    sim::RunJob job;
    job.program = &prog;
    job.config = sim::Configs::dsre();
    job.config.wallDeadlineMs = 1;

    sim::RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.backoffMs = 1;
    sim::RunPool pool(2);
    std::vector<sim::RunResult> results = pool.runAll({job}, retry);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].error.reason,
              chaos::SimError::Reason::HostDeadline);
    EXPECT_EQ(results[0].retries, 2u);
}

TEST(TriageRetry, CleanRunHasZeroRetries)
{
    wl::KernelParams kp;
    kp.iterations = 60;
    isa::Program prog = wl::build("gzipish", kp);
    sim::RunJob job;
    job.program = &prog;
    job.config = sim::Configs::dsre();
    sim::RunPool pool(2);
    std::vector<sim::RunResult> results = pool.runAll({job});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_TRUE(results[0].error.ok());
    EXPECT_EQ(results[0].retries, 0u);
}

#ifdef EDGE_MUTATIONS

/** The planted deterministic failure every triage test drives:
 *  SkipSquash under the lsq chaos profile at seed 5, which the
 *  invariant checker reports as value-identity-squash. */
sim::ChaosSweepParams
plantedSweep(unsigned threads)
{
    sim::ChaosSweepParams sp;
    sp.seeds = {5};
    sp.configs = {"dsre"};
    sp.profile = chaos::Profile::Lsq;
    sp.checkInvariants = true;
    sp.threads = threads;
    sp.mutation = chaos::Mutation::SkipSquash;
    sp.mutationNode = ~0u;
    return sp;
}

triage::ProgramRef
plantedProgram()
{
    triage::ProgramRef ref;
    ref.kernel = "parserish";
    ref.params.iterations = 150;
    ref.params.seed = 1;
    return ref;
}

TEST(TriageRetry, DeterministicInvariantFailureIsNeverRetried)
{
    triage::ProgramRef ref = plantedProgram();
    isa::Program prog = triage::buildProgram(ref).value();
    sim::RunJob job;
    job.program = &prog;
    job.config = sim::Configs::dsre();
    job.config.rngSeed = 5;
    job.config.chaos =
        chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
    job.config.chaos.mutation = chaos::Mutation::SkipSquash;
    job.config.chaos.mutationNode = ~0u;
    job.config.checkInvariants = true;

    sim::RetryPolicy retry;
    retry.maxAttempts = 5;
    retry.backoffMs = 0;
    sim::RunPool pool(2);
    std::vector<sim::RunResult> results = pool.runAll({job}, retry);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].error.reason,
              chaos::SimError::Reason::InvariantViolation);
    EXPECT_EQ(results[0].retries, 0u);
}

// ---------------------------------------------------------------------
// The acceptance flow: a planted mutation failure captured from a
// -j 8 sweep replays bit-identically at -j 1 (same error kind, same
// invariant rule, same failure cycle).
// ---------------------------------------------------------------------

TEST(TriageReplay, CapturedParallelSweepFailureReplaysBitIdentically)
{
    triage::ProgramRef ref = plantedProgram();
    isa::Program prog = triage::buildProgram(ref).value();
    sim::ChaosSweepParams sp = plantedSweep(/*threads=*/8);
    sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
    ASSERT_FALSE(rep.allConverged());

    TempDir dir("replay");
    std::size_t written = triage::captureSweepFailures(
        rep, ref, sp.maxCycles, dir.str());
    ASSERT_EQ(written, rep.failures);

    for (const sim::ChaosSweepOutcome &o : rep.runs) {
        if (o.converged())
            continue;
        ASSERT_FALSE(o.reproPath.empty());
        EXPECT_NE(rep.summary().find(o.reproPath), std::string::npos)
            << "summary must print the replay command";

        triage::ReproSpec spec;
        std::string err;
        ASSERT_TRUE(triage::load(o.reproPath, &spec, &err)) << err;
        EXPECT_EQ(spec.error.reason,
                  chaos::SimError::Reason::InvariantViolation);
        EXPECT_EQ(spec.error.invariant, "value-identity-squash");
        EXPECT_FALSE(spec.schedule.empty())
            << "the fault schedule is the minimizer's universe";

        // The serial replay IS the -j 1 leg: one run, one thread.
        sim::RunResult replayed = triage::replay(spec);
        EXPECT_EQ(replayed.error.reason, o.result.error.reason);
        EXPECT_EQ(replayed.error.invariant, o.result.error.invariant);
        EXPECT_EQ(replayed.error.cycle, o.result.error.cycle);
        EXPECT_TRUE(triage::sameSignature(spec, replayed));
    }
}

// ---------------------------------------------------------------------
// End-to-end minimization of the real planted failure: the schedule
// must shrink to <= 2 events that still fail with the same invariant,
// and masking everything must make the run pass.
// ---------------------------------------------------------------------

TEST(TriageMinimize, RealFailureScheduleShrinksToAtMostTwoEvents)
{
    triage::ProgramRef ref = plantedProgram();
    isa::Program prog = triage::buildProgram(ref).value();
    sim::ChaosSweepParams sp = plantedSweep(/*threads=*/4);
    sim::ChaosSweepReport rep = sim::chaosSweep(prog, sp);
    ASSERT_FALSE(rep.allConverged());

    TempDir dir("minimize");
    triage::captureSweepFailures(rep, ref, sp.maxCycles, dir.str());
    const sim::ChaosSweepOutcome *failing = nullptr;
    for (const sim::ChaosSweepOutcome &o : rep.runs)
        if (!o.converged())
            failing = &o;
    ASSERT_NE(failing, nullptr);

    triage::ReproSpec spec;
    std::string err;
    ASSERT_TRUE(triage::load(failing->reproPath, &spec, &err)) << err;
    ASSERT_GE(spec.schedule.size(), 5u)
        << "the planted failure should offer a non-trivial schedule";

    triage::MinimizeOptions mo;
    mo.threads = 4;
    triage::MinimizeResult m = triage::minimizeRepro(spec, mo);
    EXPECT_TRUE(m.converged);
    EXPECT_LE(m.schedule.size(), 2u);
    EXPECT_GE(m.schedule.size(), 1u)
        << "SkipSquash only fires on injected spurious waves, so an "
           "empty schedule must pass";

    // The minimized schedule still reproduces the failure kind...
    triage::ReproSpec minimized = triage::applySchedule(spec, m);
    sim::RunResult with_min = triage::replay(minimized);
    EXPECT_TRUE(triage::sameFailureKind(spec, with_min));

    // ...and the empty schedule does not (the faults were necessary).
    triage::ReproSpec none = spec;
    none.config.chaos.filterSchedule = true;
    none.config.chaos.allowedEvents.clear();
    sim::RunResult with_none = triage::replay(none);
    EXPECT_FALSE(triage::sameFailureKind(spec, with_none));
}

// ---------------------------------------------------------------------
// Quarantine: a grid with one deterministically failing cell reports
// it and keeps every other cell's result (satellite f).
// ---------------------------------------------------------------------

TEST(TriageQuarantine, FailingCellDoesNotPoisonTheGrid)
{
    bench::RunSpec bad;
    bad.kernel = "parserish";
    bad.config = "dsre";
    bad.iterations = 150;
    bad.seed = 1;
    bad.tweak = [](core::MachineConfig &cfg) {
        cfg.rngSeed = 5;
        cfg.chaos =
            chaos::ChaosParams::byProfile(chaos::Profile::Lsq, 5);
        cfg.chaos.mutation = chaos::Mutation::SkipSquash;
        cfg.chaos.mutationNode = ~0u;
        cfg.checkInvariants = true;
    };
    bench::RunSpec good;
    good.kernel = "gzipish";
    good.config = "dsre";
    good.iterations = 60;

    std::vector<bench::RunRow> rows =
        bench::runSpecs({bad, good}, /*threads=*/4);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_FALSE(rows[0].ok());
    EXPECT_TRUE(rows[0].quarantined());
    EXPECT_FALSE(rows[0].fatalTransient());
    EXPECT_TRUE(rows[1].ok()) << rows[1].failure();

    // finishBench captures the repro, reports the failure, and exits
    // nonzero — without losing the good cell.
    TempDir dir("quarantine");
    bench::BenchArgs args;
    args.start = std::chrono::steady_clock::now();
    args.reproDir = dir.str();
    args.jsonPath = dir.str() + "/bench.json";
    EXPECT_EQ(bench::finishBench("test_triage", args, rows), 1);
    EXPECT_FALSE(rows[0].reproPath.empty());
    EXPECT_TRUE(std::filesystem::exists(rows[0].reproPath));
    EXPECT_TRUE(rows[1].reproPath.empty());

    // The JSON report carries the repro path and the quarantine
    // tally.
    std::ifstream in(args.jsonPath);
    std::stringstream buf;
    buf << in.rdbuf();
    triage::JsonValue json;
    std::string err;
    ASSERT_TRUE(triage::JsonValue::parse(buf.str(), &json, &err))
        << err;
    EXPECT_EQ(json.getU64("quarantined"), 1u);
    EXPECT_EQ(json.getU64("fatal"), 0u);
    const triage::JsonValue *cells = json.get("cells");
    ASSERT_NE(cells, nullptr);
    ASSERT_EQ(cells->items().size(), 2u);
    EXPECT_EQ(cells->items()[0].getString("repro"),
              rows[0].reproPath);
    EXPECT_FALSE(cells->items()[0].getBool("ok"));
    EXPECT_TRUE(cells->items()[1].getBool("ok"));

    // The captured repro replays to the same deterministic failure.
    triage::ReproSpec spec;
    ASSERT_TRUE(triage::load(rows[0].reproPath, &spec, &err)) << err;
    sim::RunResult replayed = triage::replay(spec);
    EXPECT_TRUE(triage::sameSignature(spec, replayed));
}

#endif // EDGE_MUTATIONS

} // namespace
} // namespace edge
