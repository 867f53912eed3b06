/**
 * @file
 * Perceptron margin confidence as a ConfidenceEstimator.
 *
 * The perceptron's dot product is a graded vote: |margin| measures how
 * emphatically the weights agree on a direction, and theta is the
 * scale on which the training rule itself judges "confident enough to
 * stop learning". Quantizing |margin| against theta therefore yields
 * a natural multi-level confidence signal — level 0 is a coin-flip,
 * the top level is a margin beyond theta.
 *
 * Like TageProviderConfidence, this estimator reads the perceptron it
 * is paired with (pairWith(), called by the replay engine): its bucket
 * quantizes that predictor's marginOf() for the current branch, the
 * dot product the predictor already memoized for predict(). A paired
 * estimator holds no weights of its own; update() and reset() leave
 * the predictor alone, and its checkpoint part is the predictor's
 * state (checked against the restored predictor on load) plus the
 * level count. An estimator that is never paired drives a private
 * perceptron of its geometry through the same read path.
 *
 * Buckets are monotone in |margin| by construction (ordered):
 * bucket = min(|margin| * levels / (theta + 1), levels - 1).
 */

#ifndef CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H
#define CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H

#include <memory>

#include "confidence/confidence_estimator.h"
#include "predictor/perceptron.h"

namespace confsim {

/** |dot product| vs. theta, quantized into ordered levels. */
class PerceptronMarginConfidence : public ConfidenceEstimator
{
  public:
    /**
     * @param config Geometry of the perceptron this grades.
     * @param num_levels Confidence levels (buckets), >= 2.
     */
    explicit PerceptronMarginConfidence(
        PerceptronConfig config = PerceptronConfig::makeDefault(),
        unsigned num_levels = 8);

    std::uint64_t bucketOf(const BranchContext &ctx) const override;

    /** Unpaired: train the private perceptron on the branch outcome.
     *  Paired: nothing (the predictor trains itself). */
    void update(const BranchContext &ctx, bool correct,
                bool taken) override;

    std::uint64_t numBuckets() const override;
    std::uint64_t storageBits() const override;
    std::string name() const override;

    /** Unpaired: reset the private perceptron. Paired: nothing. */
    void reset() override;

    /**
     * Read @p predictor from now on and free the private perceptron.
     *
     * @throws Error{kConfig} unless @p predictor is a
     *         PerceptronPredictor whose PerceptronConfig equals this
     *         estimator's.
     */
    void pairWith(const BranchPredictor &predictor) override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;
    bool bucketsAreOrdered() const override { return true; }

    /** @return true once pairWith() has attached a predictor. */
    bool paired() const { return own_ == nullptr; }

    /** Quantize a margin value to its bucket (tests). */
    std::uint64_t bucketForMargin(std::int64_t margin) const;

    /** The margin bucketOf() reads for @p ctx (tests). */
    std::int64_t shadowMargin(const BranchContext &ctx) const;

  private:
    /** The private perceptron of an unpaired estimator; null once
     *  paired. */
    std::unique_ptr<PerceptronPredictor> own_;
    /** The perceptron read: own_, or the paired predictor. */
    const PerceptronPredictor *source_;
    unsigned numLevels_;
};

} // namespace confsim

#endif // CONFSIM_CONFIDENCE_PERCEPTRON_MARGIN_H
