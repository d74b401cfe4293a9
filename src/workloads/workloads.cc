#include "workloads/workloads.hh"

#include <stdexcept>

namespace edge::wl {

const std::vector<KernelInfo> &
kernels()
{
    static const std::vector<KernelInfo> list = {
        {"gzipish", "164.gzip",
         "LZ hash-table probe/update; data-dependent short-distance "
         "store-to-load aliases"},
        {"bzip2ish", "256.bzip2",
         "byte-frequency counting; read-modify-write chains through "
         "memory with skewed symbol reuse"},
        {"mcfish", "181.mcf",
         "pointer chasing over arcs; stores almost never alias the "
         "chase loads"},
        {"parserish", "197.parser",
         "expression-stack spill/fill with biased two-way control"},
        {"twolfish", "300.twolf",
         "random cell swaps; birthday-rare cross-block aliases"},
        {"vortexish", "255.vortex",
         "object record copies with occasional region overlap"},
        {"vprish", "175.vpr",
         "indirect net lookup with read-modify-write updates"},
        {"artish", "179.art",
         "streaming FP dot products; effectively alias-free"},
        {"equakeish", "183.equake",
         "sparse matrix-vector FP gather; indirection, few aliases"},
        {"ammpish", "188.ammp",
         "indexed FP position updates; data-dependent RMW aliases"},
        {"craftyish", "186.crafty",
         "bitboard hashing into a transposition-table probe/update "
         "with replace-if-better stores"},
        {"gapish", "254.gap",
         "wrapping bump allocator; fixed-distance arena aliases"},
        {"swimish", "171.swim",
         "in-place FP stencil; deterministic one-block-distance "
         "store-to-load dependence"},
        {"gccish", "176.gcc",
         "IR-node ring walk with classified rewrites; pointer "
         "chasing plus sparse conditional stores"},
    };
    return list;
}

std::vector<std::string>
kernelNames()
{
    std::vector<std::string> names;
    for (const KernelInfo &k : kernels())
        names.push_back(k.name);
    return names;
}

bool
exists(const std::string &name)
{
    for (const KernelInfo &k : kernels())
        if (k.name == name)
            return true;
    return false;
}

std::optional<isa::Program>
tryBuild(const std::string &name, const KernelParams &params)
{
    if (name == "gzipish")
        return buildGzipish(params);
    if (name == "bzip2ish")
        return buildBzip2ish(params);
    if (name == "mcfish")
        return buildMcfish(params);
    if (name == "parserish")
        return buildParserish(params);
    if (name == "twolfish")
        return buildTwolfish(params);
    if (name == "vortexish")
        return buildVortexish(params);
    if (name == "vprish")
        return buildVprish(params);
    if (name == "artish")
        return buildArtish(params);
    if (name == "equakeish")
        return buildEquakeish(params);
    if (name == "ammpish")
        return buildAmmpish(params);
    if (name == "craftyish")
        return buildCraftyish(params);
    if (name == "gapish")
        return buildGapish(params);
    if (name == "swimish")
        return buildSwimish(params);
    if (name == "gccish")
        return buildGccish(params);
    return std::nullopt;
}

isa::Program
build(const std::string &name, const KernelParams &params)
{
    std::optional<isa::Program> prog = tryBuild(name, params);
    if (!prog)
        throw std::invalid_argument("unknown kernel '" + name + "'");
    return std::move(*prog);
}

} // namespace edge::wl
