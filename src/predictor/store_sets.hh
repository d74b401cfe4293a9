/**
 * @file
 * The store-set dependence predictor of Chrysos & Emer (ISCA 1998),
 * adapted to EDGE static memory-instruction identities (block id,
 * LSID). SSIT maps a static load/store to its store-set id; LFST
 * tracks the last fetched, still-unresolved store instance of each
 * set. A load whose set has an unresolved in-flight store waits for
 * that specific store.
 *
 * Simplification vs the original: we do not enforce store-to-store
 * ordering within a set (our stores only take effect at block
 * commit, which is already in program order), and the tables are
 * cleared by explicit flush notifications rather than cyclically.
 */

#ifndef EDGE_PREDICTOR_STORE_SETS_HH
#define EDGE_PREDICTOR_STORE_SETS_HH

#include <vector>

#include "predictor/dependence.hh"

namespace edge::pred {

struct StoreSetsParams
{
    std::size_t ssitSize = 16384; ///< static-id table (power of two)
    std::size_t lfstSize = 1024;  ///< number of store-set ids
};

class StoreSetsPredictor : public DependencePredictor
{
  public:
    StoreSetsPredictor(const StoreSetsParams &params, StatSet &stats);

    bool loadMustWait(const LoadQuery &query) override;
    void onStoreMapped(DynBlockSeq seq, BlockId block,
                       Lsid lsid) override;
    CapturedDep onLoadMapped(DynBlockSeq seq, BlockId block,
                             Lsid lsid) override;
    void onStoreResolved(DynBlockSeq seq, BlockId block,
                         Lsid lsid) override;
    void onViolation(BlockId load_block, Lsid load_lsid,
                     BlockId store_block, Lsid store_lsid) override;
    void onFlush(DynBlockSeq from_seq) override;

    DepPolicy policy() const override { return DepPolicy::StoreSets; }

    /** Exposed for unit tests. */
    bool hasSet(BlockId block, Lsid lsid) const;

  private:
    static constexpr std::uint32_t kNoSet = ~std::uint32_t{0};

    struct LfstEntry
    {
        bool valid = false;
        DynBlockSeq seq = 0;
        Lsid lsid = 0;
    };

    std::size_t ssitIndex(BlockId block, Lsid lsid) const;
    std::uint32_t allocateSet();

    StoreSetsParams _p;
    std::vector<std::uint32_t> _ssit; ///< static id -> set id
    std::vector<LfstEntry> _lfst;     ///< set id -> last fetched store
    std::uint32_t _nextSet = 0;

    Counter &_waits;
    Counter &_trainings;
};

} // namespace edge::pred

#endif // EDGE_PREDICTOR_STORE_SETS_HH
