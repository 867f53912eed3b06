#include "confidence/perceptron_margin.h"

#include "ckpt/state_io.h"
#include "util/error.h"
#include "util/status.h"

namespace confsim {

PerceptronMarginConfidence::PerceptronMarginConfidence(
    PerceptronConfig config, unsigned num_levels)
    : own_(std::make_unique<PerceptronPredictor>(config)),
      source_(own_.get()), numLevels_(num_levels)
{
    if (num_levels < 2)
        fatal("perceptron margin confidence needs >= 2 levels");
}

std::uint64_t
PerceptronMarginConfidence::bucketForMargin(std::int64_t margin) const
{
    const std::uint64_t magnitude =
        static_cast<std::uint64_t>(margin < 0 ? -margin : margin);
    const std::uint64_t theta =
        static_cast<std::uint64_t>(source_->theta());
    const std::uint64_t level = magnitude * numLevels_ / (theta + 1);
    return level >= numLevels_ ? numLevels_ - 1 : level;
}

std::uint64_t
PerceptronMarginConfidence::bucketOf(const BranchContext &ctx) const
{
    return bucketForMargin(source_->marginOf(ctx.pc));
}

void
PerceptronMarginConfidence::update(const BranchContext &ctx,
                                   bool /*correct*/, bool taken)
{
    if (own_ != nullptr)
        own_->update(ctx.pc, taken);
}

std::uint64_t
PerceptronMarginConfidence::numBuckets() const
{
    return numLevels_;
}

std::uint64_t
PerceptronMarginConfidence::storageBits() const
{
    return source_->storageBits();
}

std::string
PerceptronMarginConfidence::name() const
{
    return "perceptron-margin";
}

void
PerceptronMarginConfidence::reset()
{
    if (own_ != nullptr)
        own_->reset();
}

void
PerceptronMarginConfidence::pairWith(const BranchPredictor &predictor)
{
    const auto *perceptron =
        dynamic_cast<const PerceptronPredictor *>(&predictor);
    if (perceptron == nullptr) {
        fatal(ErrorCategory::kConfig,
              "estimator 'perceptron-margin' grades a perceptron "
              "predictor, not '" + predictor.name() + "'");
    }
    if (perceptron->config() != source_->config()) {
        fatal(ErrorCategory::kConfig,
              "estimator 'perceptron-margin' grades a perceptron of "
              "another geometry than predictor '" + predictor.name() +
                  "'");
    }
    source_ = perceptron;
    own_.reset();
}

void
PerceptronMarginConfidence::saveState(StateWriter &out) const
{
    source_->saveState(out);
    out.putU64(numLevels_);
}

void
PerceptronMarginConfidence::loadState(StateReader &in)
{
    if (own_ != nullptr) {
        own_->loadState(in);
    } else {
        // The paired predictor was restored first; its state is ours.
        StateWriter current;
        source_->saveState(current);
        in.expectBytes(current.bytes(),
                       "perceptron-margin (its predictor's state)");
    }
    in.expectU64(numLevels_, "perceptron margin levels");
}

std::int64_t
PerceptronMarginConfidence::shadowMargin(const BranchContext &ctx) const
{
    return source_->marginOf(ctx.pc);
}

} // namespace confsim
