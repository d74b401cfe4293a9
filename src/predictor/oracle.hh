/**
 * @file
 * The perfect dependence oracle. Built from a functional reference
 * trace, it knows the architectural address of every memory
 * operation of every dynamic block on the committed path, so it can
 * direct each load to issue at the earliest provably safe moment:
 * wait exactly while an older in-flight store that *will* overlap is
 * still unresolved. The abstract reports DSRE reaching 82% of the
 * performance of this oracle.
 *
 * Wrong-path blocks (fetched past a mispredicted exit) do not match
 * the committed-path trace; the oracle detects the mismatch by block
 * id and answers "don't wait" — those blocks are squashed anyway, so
 * only timing noise on doomed work is affected.
 */

#ifndef EDGE_PREDICTOR_ORACLE_HH
#define EDGE_PREDICTOR_ORACLE_HH

#include <vector>

#include "compiler/ref_executor.hh"
#include "predictor/dependence.hh"

namespace edge::pred {

/** The committed-path memory behaviour of a whole run. */
class OracleDb
{
  public:
    struct MemOp
    {
        bool isStore = false;
        Addr addr = 0;
        std::uint8_t bytes = 0;
    };

    /** Build from a RefExecutor block trace. */
    explicit OracleDb(const std::vector<compiler::BlockTrace> &trace);

    std::size_t numBlocks() const { return _blocks.size(); }

    /** Static block executed at architectural index i. */
    BlockId blockAt(std::uint64_t arch_idx) const;

    /** Taken exit of the block at architectural index i. */
    unsigned exitAt(std::uint64_t arch_idx) const;

    /**
     * The memory op (block at arch_idx, lsid); nullptr when arch_idx
     * is beyond the trace or lsid out of range.
     */
    const MemOp *memOp(std::uint64_t arch_idx, Lsid lsid) const;

  private:
    struct BlockEntry
    {
        BlockId block;
        unsigned exitIndex;
        std::vector<MemOp> memOps;
    };

    std::vector<BlockEntry> _blocks;
};

class OraclePredictor : public DependencePredictor
{
  public:
    OraclePredictor(const OracleDb &db, StatSet &stats);

    bool loadMustWait(const LoadQuery &query) override;

    DepPolicy policy() const override { return DepPolicy::Oracle; }

  private:
    const OracleDb &_db;
    Counter &_waits;
    Counter &_offPath;
};

/** Do two byte ranges [a, a+an) and [b, b+bn) overlap? */
inline bool
rangesOverlap(Addr a, unsigned an, Addr b, unsigned bn)
{
    return a < b + bn && b < a + an;
}

} // namespace edge::pred

#endif // EDGE_PREDICTOR_ORACLE_HH
