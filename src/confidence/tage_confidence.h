/**
 * @file
 * TAGE's built-in confidence signal as a ConfidenceEstimator.
 *
 * TAGE assigns confidence for free: the provider counter's distance
 * from its weak boundary says how settled the entry is, and agreement
 * between the provider and the alternate prediction corroborates it
 * (cf. scarab's weight_conf level mechanism, which likewise grades
 * predictions into confidence levels from predictor-internal state).
 *
 * The estimator reads the provider state of the TAGE predictor it is
 * paired with (pairWith(), called by the replay engine): its bucket is
 * computed from that predictor's predictDetail() for the current
 * branch, the lookup the predictor already memoized for predict(). A
 * paired estimator holds no tables of its own; update() and reset()
 * leave the predictor alone, and its checkpoint part is the
 * predictor's state, checked against the restored predictor on load.
 * A context switch therefore flushes it together with the predictor.
 *
 * An estimator that is never paired drives a private TagePredictor of
 * its geometry through the same read path, training it on branch
 * outcomes inside update(). That is how the unit tests and the
 * independent reference replay use it, and fed the same (pc, outcome)
 * stream it matches the paired reading bit for bit.
 *
 * Bucket = 2 * providerStrength + (provider agrees with alt), so
 * larger buckets mean stronger, corroborated predictions (ordered).
 */

#ifndef CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H
#define CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H

#include <memory>

#include "confidence/confidence_estimator.h"
#include "predictor/tage.h"

namespace confsim {

/** Provider-strength + provider/alt-agreement confidence. */
class TageProviderConfidence : public ConfidenceEstimator
{
  public:
    /** @param config Geometry of the TAGE predictor this grades. */
    explicit TageProviderConfidence(
        TageConfig config = TageConfig::makeDefault());

    std::uint64_t bucketOf(const BranchContext &ctx) const override;

    /** Unpaired: train the private TAGE on the branch outcome.
     *  Paired: nothing (the predictor trains itself). */
    void update(const BranchContext &ctx, bool correct,
                bool taken) override;

    std::uint64_t numBuckets() const override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** Unpaired: reset the private TAGE. Paired: nothing. */
    void reset() override;

    /**
     * Read @p predictor from now on and free the private TAGE.
     *
     * @throws Error{kConfig} unless @p predictor is a TagePredictor
     *         whose TageConfig equals this estimator's.
     */
    void pairWith(const BranchPredictor &predictor) override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    bool bucketsAreOrdered() const override { return true; }

    /** @return true once pairWith() has attached a predictor. */
    bool paired() const { return own_ == nullptr; }

    /** The breakdown bucketOf() reads for @p ctx (tests). */
    TagePrediction shadowDetail(const BranchContext &ctx) const;

  private:
    /** The private TAGE of an unpaired estimator; null once paired. */
    std::unique_ptr<TagePredictor> own_;
    /** The TAGE read: own_, or the paired predictor. */
    const TagePredictor *source_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_TAGE_CONFIDENCE_H
