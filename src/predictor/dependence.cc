#include "predictor/dependence.hh"

#include "common/logging.hh"
#include "predictor/oracle.hh"
#include "predictor/store_sets.hh"

namespace edge::pred {

namespace {

/** Always speculate: a load issues the moment its address arrives. */
class BlindPredictor : public DependencePredictor
{
  public:
    bool
    loadMustWait(const LoadQuery &query) override
    {
        return false;
    }

    DepPolicy policy() const override { return DepPolicy::Blind; }
};

/** Never speculate: wait for every older store to resolve. */
class ConservativePredictor : public DependencePredictor
{
  public:
    explicit ConservativePredictor(StatSet &stats)
        : _waits(stats.counter("conservative.waits",
                               "loads held for older stores"))
    {
    }

    bool
    loadMustWait(const LoadQuery &query) override
    {
        if (query.olderUnresolved->empty())
            return false;
        ++_waits;
        return true;
    }

    DepPolicy policy() const override { return DepPolicy::Conservative; }

  private:
    Counter &_waits;
};

} // namespace

std::unique_ptr<DependencePredictor>
makeDependencePredictor(DepPolicy policy, const OracleDb *oracle,
                        StatSet &stats)
{
    switch (policy) {
      case DepPolicy::Blind:
        return std::make_unique<BlindPredictor>();
      case DepPolicy::Conservative:
        return std::make_unique<ConservativePredictor>(stats);
      case DepPolicy::StoreSets:
        return std::make_unique<StoreSetsPredictor>(StoreSetsParams{},
                                                    stats);
      case DepPolicy::Oracle:
        fatal_if(!oracle, "oracle policy requires an OracleDb");
        return std::make_unique<OraclePredictor>(*oracle, stats);
    }
    panic("unknown dependence policy");
}

} // namespace edge::pred
