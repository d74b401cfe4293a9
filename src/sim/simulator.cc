#include "sim/simulator.hh"

#include "common/logging.hh"

namespace edge::sim {

namespace {

core::MachineConfig
baseConfig()
{
    core::MachineConfig cfg;
    // TRIPS-prototype-like defaults already live in the param
    // structs; nothing machine-specific to override here.
    return cfg;
}

/** The one list of mechanisms, in presentation order. */
constexpr struct
{
    const char *name;
    core::MachineConfig (*make)();
} kMechanisms[] = {
    {"conservative", &Configs::conservative},
    {"blind-flush", &Configs::blindFlush},
    {"storesets-flush", &Configs::storeSetsFlush},
    {"dsre", &Configs::dsre},
    {"storesets-dsre", &Configs::storeSetsDsre},
    {"dsre-vp", &Configs::dsreVp},
    {"oracle", &Configs::oracle},
};

} // namespace

core::MachineConfig
Configs::conservative()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::Conservative;
    cfg.lsq.recovery = lsq::Recovery::Flush;
    return cfg;
}

core::MachineConfig
Configs::blindFlush()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::Blind;
    cfg.lsq.recovery = lsq::Recovery::Flush;
    return cfg;
}

core::MachineConfig
Configs::storeSetsFlush()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::StoreSets;
    cfg.lsq.recovery = lsq::Recovery::Flush;
    return cfg;
}

core::MachineConfig
Configs::dsre()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::Blind;
    cfg.lsq.recovery = lsq::Recovery::Dsre;
    return cfg;
}

core::MachineConfig
Configs::storeSetsDsre()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::StoreSets;
    cfg.lsq.recovery = lsq::Recovery::Dsre;
    return cfg;
}

core::MachineConfig
Configs::oracle()
{
    core::MachineConfig cfg = baseConfig();
    cfg.policy = pred::DepPolicy::Oracle;
    cfg.lsq.recovery = lsq::Recovery::Flush;
    return cfg;
}

core::MachineConfig
Configs::dsreVp()
{
    core::MachineConfig cfg = dsre();
    cfg.lsq.valuePredictMisses = true;
    return cfg;
}

std::optional<core::MachineConfig>
Configs::lookup(const std::string &name)
{
    for (const auto &m : kMechanisms)
        if (name == m.name)
            return m.make();
    return std::nullopt;
}

core::MachineConfig
Configs::byName(const std::string &name)
{
    std::optional<core::MachineConfig> cfg = lookup(name);
    fatal_if(!cfg, "unknown machine configuration '%s'", name.c_str());
    return *cfg;
}

const std::vector<std::string> &
Configs::allNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const auto &m : kMechanisms)
            v.emplace_back(m.name);
        return v;
    }();
    return names;
}

Simulator::Simulator(isa::Program program, core::MachineConfig config,
                     std::uint64_t ref_max_blocks)
    : _prog(std::move(program)),
      _cfg(config),
      _refMaxBlocks(ref_max_blocks)
{
    std::string why;
    fatal_if(!_prog.validate(&why), "Simulator: invalid program: %s",
             why.c_str());
}

void
Simulator::ensureReference()
{
    if (_refDone)
        return;
    _ref = std::make_unique<compiler::RefExecutor>(_prog);
    std::vector<compiler::BlockTrace> trace;
    compiler::RefExecutor::Result r = _ref->run(_refMaxBlocks, &trace);
    fatal_if(!r.halted,
             "reference execution of %s hit the %llu-block budget; "
             "the program may not terminate",
             _prog.name().c_str(),
             static_cast<unsigned long long>(_refMaxBlocks));
    _refBlocks = r.dynBlocks;
    _refInsts = r.dynInsts;
    _oracleDb = std::make_unique<pred::OracleDb>(trace);
    // Decode/validate/place once; every Processor (across run(),
    // runShared() and all sweep configs with this geometry) shares
    // the image read-only. Warm the default geometry's layout so
    // concurrent first runs never contend on the build.
    _image = std::make_unique<core::ProgramImage>(_prog);
    _image->layout({_cfg.core.rows, _cfg.core.cols,
                        _cfg.core.slotsPerNode});
    _refDone = true;
}

std::uint64_t
Simulator::refDynInsts()
{
    ensureReference();
    return _refInsts;
}

std::uint64_t
Simulator::refDynBlocks()
{
    ensureReference();
    return _refBlocks;
}

const pred::OracleDb &
Simulator::oracleDb()
{
    ensureReference();
    return *_oracleDb;
}

RunResult
Simulator::run(Cycle max_cycles)
{
    return run(_cfg, max_cycles);
}

RunResult
Simulator::run(const core::MachineConfig &config, Cycle max_cycles)
{
    ensureReference();
    _stats = std::make_unique<StatSet>(_prog.name());
    return runWith(config, max_cycles, *_stats);
}

RunResult
Simulator::runShared(const core::MachineConfig &config,
                     Cycle max_cycles) const
{
    panic_if(!_refDone,
             "Simulator::runShared before prepare(): the reference "
             "execution must exist before concurrent runs");
    StatSet stats(_prog.name());
    return runWith(config, max_cycles, stats);
}

RunResult
Simulator::runWith(const core::MachineConfig &config, Cycle max_cycles,
                   StatSet &stats) const
{
    core::MachineConfig cfg = config;
    // One run-level seed drives everything: an unset chaos seed
    // derives from the run seed, so `--seed` alone replays a chaotic
    // run exactly.
    if (cfg.chaos.enabled() && cfg.chaos.seed == 0)
        cfg.chaos.seed = cfg.rngSeed;

    core::Processor proc(cfg, _prog, _oracleDb.get(), stats,
                         _image.get());
    core::Processor::Result r = proc.run(max_cycles);

    RunResult out;
    out.cycles = r.cycles;
    out.committedBlocks = r.committedBlocks;
    out.committedInsts = r.committedInsts;
    out.halted = r.halted;
    out.error = r.error;
    out.rngSeed = cfg.rngSeed;
    if (proc.chaosEngine()) {
        out.chaosSeed = proc.chaosEngine()->params().seed;
        out.injections = proc.chaosEngine()->counts();
        out.chaosEvents = proc.chaosEngine()->events();
    }
    if (proc.checker())
        out.invariantChecks = proc.checker()->checksRun();

    for (const std::string &name : stats.counterNames())
        out.counters.emplace_back(name, stats.counterValue(name));
    for (const std::string &name : stats.histogramNames())
        out.histograms.emplace_back(name, stats.histogramRef(name));

    // Golden-model verification: committed register and memory state
    // must match the functional reference exactly.
    bool regs_match = true;
    for (unsigned i = 0; i < isa::kNumArchRegs; ++i)
        regs_match = regs_match &&
                     proc.archRegs()[i] == _ref->regs()[i];
    bool mem_match = proc.memory().equals(_ref->memory());
    bool counts_match = r.halted &&
                        r.committedBlocks == _refBlocks &&
                        r.committedInsts == _refInsts;
    out.archMatch = regs_match && mem_match && counts_match;
    return out;
}

} // namespace edge::sim
