#include "confidence/tage_confidence.h"

#include "ckpt/state_io.h"
#include "util/error.h"

namespace confsim {

TageProviderConfidence::TageProviderConfidence(TageConfig config)
    : own_(std::make_unique<TagePredictor>(std::move(config))),
      source_(own_.get())
{
}

std::uint64_t
TageProviderConfidence::bucketOf(const BranchContext &ctx) const
{
    const TagePrediction d = source_->predictDetail(ctx.pc);
    const bool agree = d.providerTaken == d.altTaken;
    return 2 * d.providerStrength + (agree ? 1 : 0);
}

void
TageProviderConfidence::update(const BranchContext &ctx, bool /*correct*/,
                               bool taken)
{
    if (own_ != nullptr)
        own_->update(ctx.pc, taken);
}

std::uint64_t
TageProviderConfidence::numBuckets() const
{
    return 2 * source_->strengthLevels();
}

std::uint64_t
TageProviderConfidence::storageBits() const
{
    return source_->storageBits();
}

std::string
TageProviderConfidence::name() const
{
    return "tage-provider";
}

void
TageProviderConfidence::reset()
{
    if (own_ != nullptr)
        own_->reset();
}

void
TageProviderConfidence::pairWith(const BranchPredictor &predictor)
{
    const auto *tage = dynamic_cast<const TagePredictor *>(&predictor);
    if (tage == nullptr) {
        fatal(ErrorCategory::kConfig,
              "estimator 'tage-provider' grades a TAGE predictor, not '" +
                  predictor.name() + "'");
    }
    if (tage->config() != source_->config()) {
        fatal(ErrorCategory::kConfig,
              "estimator 'tage-provider' grades a TAGE of another "
              "geometry than predictor '" + predictor.name() + "'");
    }
    source_ = tage;
    own_.reset();
}

void
TageProviderConfidence::saveState(StateWriter &out) const
{
    source_->saveState(out);
}

void
TageProviderConfidence::loadState(StateReader &in)
{
    if (own_ != nullptr) {
        own_->loadState(in);
        return;
    }
    // The paired predictor was restored first; its state is ours.
    StateWriter current;
    source_->saveState(current);
    in.expectBytes(current.bytes(), "tage-provider (its predictor's state)");
}

TagePrediction
TageProviderConfidence::shadowDetail(const BranchContext &ctx) const
{
    return source_->predictDetail(ctx.pc);
}

} // namespace confsim
