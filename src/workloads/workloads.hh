/**
 * @file
 * The workload suite: ten synthetic kernels, each modelled on the
 * memory behaviour of a SPEC CPU2000 program evaluated by the TRIPS
 * papers (the real benchmarks and their Alpha toolchain are not
 * redistributable — see DESIGN.md for the substitution argument).
 * The kernels deliberately span the load/store aliasing axes that
 * determine DSRE's benefit:
 *
 *  - how often loads alias older in-flight stores,
 *  - at what block distance the conflicting store sits,
 *  - how large the dependent slice behind a misspeculated load is,
 *  - how predictable the aliasing is (static vs data-dependent).
 */

#ifndef EDGE_WORKLOADS_WORKLOADS_HH
#define EDGE_WORKLOADS_WORKLOADS_HH

#include <optional>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace edge::wl {

struct KernelParams
{
    /** Main loop trip count (dynamic blocks scale with this). */
    std::uint64_t iterations = 2000;
    /** Seed for the deterministic input generators. */
    std::uint64_t seed = 1;
};

struct KernelInfo
{
    std::string name;
    std::string specAnalog;   ///< the SPEC CPU2000 program modelled
    std::string description;  ///< memory behaviour in one line
};

/** All kernels, in presentation order. */
const std::vector<KernelInfo> &kernels();

/** Names only, presentation order. */
std::vector<std::string> kernelNames();

/** Is `name` a kernel build() accepts? */
bool exists(const std::string &name);

/**
 * Build the named kernel; std::nullopt when `name` is not a kernel.
 * The entry point for names that come from files, clients or agents.
 */
std::optional<isa::Program> tryBuild(const std::string &name,
                                     const KernelParams &params = {});

/**
 * Build a kernel whose name the caller has already checked (a fixed
 * table, or exists()). Throws std::invalid_argument on an unknown
 * name.
 */
isa::Program build(const std::string &name,
                   const KernelParams &params = {});

// Individual builders (one translation unit each).
isa::Program buildGzipish(const KernelParams &params);
isa::Program buildBzip2ish(const KernelParams &params);
isa::Program buildMcfish(const KernelParams &params);
isa::Program buildParserish(const KernelParams &params);
isa::Program buildTwolfish(const KernelParams &params);
isa::Program buildVortexish(const KernelParams &params);
isa::Program buildVprish(const KernelParams &params);
isa::Program buildArtish(const KernelParams &params);
isa::Program buildEquakeish(const KernelParams &params);
isa::Program buildAmmpish(const KernelParams &params);
isa::Program buildCraftyish(const KernelParams &params);
isa::Program buildGapish(const KernelParams &params);
isa::Program buildSwimish(const KernelParams &params);
isa::Program buildGccish(const KernelParams &params);

} // namespace edge::wl

#endif // EDGE_WORKLOADS_WORKLOADS_HH
