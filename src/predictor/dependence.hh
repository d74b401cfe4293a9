/**
 * @file
 * Load/store dependence speculation policies. The LSQ consults the
 * active policy whenever a load's address becomes ready: may the
 * load issue now, or must it wait for (some of) the older in-flight
 * stores whose addresses are still unknown?
 *
 * Policies:
 *  - Blind:        always issue (maximum speculation);
 *  - Conservative: wait until every older store has resolved
 *                  (no speculation, no violations);
 *  - StoreSets:    Chrysos & Emer's store-set predictor — "the best
 *                  dependence predictor proposed to date" the paper
 *                  compares DSRE against;
 *  - Oracle:       the paper's perfect oracle, which issues each
 *                  load as early as is provably safe.
 */

#ifndef EDGE_PREDICTOR_DEPENDENCE_HH
#define EDGE_PREDICTOR_DEPENDENCE_HH

#include <memory>
#include <string>
#include <vector>

#include "common/enum_names.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace edge::pred {

class OracleDb;

/** Which dependence policy the machine runs. */
enum class DepPolicy
{
    Blind,
    Conservative,
    StoreSets,
    Oracle,
};

inline constexpr EnumName<DepPolicy> kDepPolicyNames[] = {
    {DepPolicy::Blind, "blind"},
    {DepPolicy::Conservative, "conservative"},
    {DepPolicy::StoreSets, "store-sets"},
    {DepPolicy::Oracle, "oracle"},
};
constexpr auto &enumNames(DepPolicy) { return kDepPolicyNames; }
static_assert(enumTableCovers(kDepPolicyNames, DepPolicy::Oracle));

/** An older in-flight store whose address is not yet known. */
struct UnresolvedStore
{
    DynBlockSeq seq = 0;       ///< dynamic block instance
    std::uint64_t archIdx = 0; ///< architectural block index
    BlockId block = 0;
    Lsid lsid = 0;
};

/** A specific older store instance a load was told to respect. */
struct CapturedDep
{
    bool valid = false;
    DynBlockSeq seq = 0;
    Lsid lsid = 0;
};

/** Everything the policy may inspect about a ready load. */
struct LoadQuery
{
    DynBlockSeq seq = 0;
    std::uint64_t archIdx = 0;
    BlockId block = 0;
    Lsid lsid = 0;
    Addr addr = 0;
    unsigned bytes = 0;
    /** Older stores with unknown addresses, oldest first. */
    const std::vector<UnresolvedStore> *olderUnresolved = nullptr;
    /** Dependence captured at map time (store-set style). */
    CapturedDep dep;
};

class DependencePredictor
{
  public:
    virtual ~DependencePredictor() = default;

    /** True if the load must keep waiting; re-queried on changes. */
    virtual bool loadMustWait(const LoadQuery &query) = 0;

    /** A store entered the window (block mapped). */
    virtual void
    onStoreMapped(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
    }

    /**
     * A load entered the window. Store-set style predictors read
     * the last-fetched-store table *here* (fetch order), returning
     * the specific older store instance the load must respect.
     */
    virtual CapturedDep
    onLoadMapped(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
        return {};
    }

    /** A store's address (and data) became known. */
    virtual void
    onStoreResolved(DynBlockSeq seq, BlockId block, Lsid lsid)
    {
    }

    /** A dependence violation was detected; train the predictor. */
    virtual void
    onViolation(BlockId load_block, Lsid load_lsid, BlockId store_block,
                Lsid store_lsid)
    {
    }

    /** Blocks with seq >= from_seq were squashed. */
    virtual void
    onFlush(DynBlockSeq from_seq)
    {
    }

    /** The policy this predictor implements (its name is
     *  enumName(policy())). */
    virtual DepPolicy policy() const = 0;
};

/**
 * Factory.
 * @param oracle required (non-null) only for DepPolicy::Oracle
 */
std::unique_ptr<DependencePredictor>
makeDependencePredictor(DepPolicy policy, const OracleDb *oracle,
                        StatSet &stats);

} // namespace edge::pred

#endif // EDGE_PREDICTOR_DEPENDENCE_HH
