/**
 * @file
 * The branch predictor interface.
 *
 * Predictors are used sequentially: for each dynamic conditional branch
 * the driver calls predict(pc), compares with the resolved outcome, then
 * calls update(pc, taken). predict() must not change the predicted
 * state, so calling it multiple times for the same branch (as composite
 * predictors do) is safe; all state changes happen in update(). A
 * predictor may memoize the lookup predict() computed for update() to
 * reuse (TAGE, perceptron), so one predictor is used by one thread at a
 * time.
 */

#ifndef CONFSIM_PREDICTOR_BRANCH_PREDICTOR_H
#define CONFSIM_PREDICTOR_BRANCH_PREDICTOR_H

#include <cstdint>
#include <string>

#include "ckpt/serializable.h"

namespace confsim {

/**
 * Abstract conditional branch direction predictor.
 *
 * Also Serializable: every concrete predictor implements
 * saveState()/loadState() so mid-run simulation state can be
 * checkpointed and resumed bit-exactly (see src/ckpt/).
 */
class BranchPredictor : public Serializable
{
  public:
    virtual ~BranchPredictor() = default;

    /**
     * Predict the direction of the branch at @p pc.
     *
     * @return true for predicted-taken.
     */
    virtual bool predict(std::uint64_t pc) const = 0;

    /**
     * Train with the resolved outcome. Must be called exactly once per
     * dynamic branch, after predict().
     *
     * @param pc Branch address.
     * @param taken Resolved direction.
     */
    virtual void update(std::uint64_t pc, bool taken) = 0;

    /** @return total prediction-structure storage in bits. */
    virtual std::uint64_t storageBits() const = 0;

    /** @return a short human-readable identifier, e.g. "gshare-64K". */
    virtual std::string name() const = 0;

    /** Restore the initial (power-on) state. */
    virtual void reset() = 0;

    /**
     * @return true iff @p other was built with the same configuration:
     * fed the same branches from the same state, both predict and train
     * identically. The sweep engine steps such predictors once for all
     * the configurations that ride them (sim/sweep_engine.h), so a
     * family answers true only after comparing every constructor
     * parameter. The default is false: an unaudited family never
     * shares its predictor.
     */
    virtual bool
    sameDesignAs(const BranchPredictor & /*other*/) const
    {
        return false;
    }
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_BRANCH_PREDICTOR_H
