#include "predictor/perceptron.h"

#include <algorithm>

#include "ckpt/state_io.h"

#include "util/bits.h"
#include "util/error.h"
#include "util/status.h"

namespace confsim {

PerceptronConfig
PerceptronConfig::makeSmall()
{
    PerceptronConfig c;
    c.numRows = std::size_t{1} << 7;
    c.historyBits = 12;
    return c;
}

PerceptronPredictor::PerceptronPredictor(PerceptronConfig config)
    : config_(config),
      rowBits_(isPowerOfTwo(config.numRows) ? log2Exact(config.numRows)
                                            : 0),
      rowStride_(std::size_t{config.historyBits} + 1),
      theta_(config.theta()),
      history_(config.historyBits)
{
    if (!isPowerOfTwo(config_.numRows))
        fatal("perceptron row count must be a power of two");
    if (config_.historyBits < 1 || config_.historyBits > 64)
        fatal("perceptron history depth must be in [1, 64]");
    if (config_.weightBits < 2 || config_.weightBits > 16)
        fatal("perceptron weight width must be in [2, 16]");
    weightMax_ = static_cast<std::int32_t>(
                     mask(config_.weightBits - 1));
    weightMin_ = -weightMax_ - 1;
    weights_.assign(config_.numRows * rowStride_, 0);
    historySigns_.assign(config_.historyBits, -1);
}

void
PerceptronPredictor::syncHistorySigns()
{
    const std::uint64_t hist = history_.value();
    for (unsigned i = 0; i < config_.historyBits; ++i)
        historySigns_[i] = bitOf(hist, i) != 0 ? 0 : -1;
}

std::uint64_t
PerceptronPredictor::rowOf(std::uint64_t pc) const
{
    return xorFold(pc >> 2, rowBits_);
}

std::int32_t
PerceptronPredictor::weightAt(std::uint64_t row, unsigned i) const
{
    return weights_[(row & mask(rowBits_)) * rowStride_ + i];
}

std::int64_t
PerceptronPredictor::marginOf(std::uint64_t pc) const
{
    if (marginValid_ && marginPc_ == pc)
        return margin_;
    const std::int32_t *row =
        weights_.data() + static_cast<std::size_t>(rowOf(pc)) * rowStride_;
    // Weight 0 is the bias (an always-taken virtual history bit). At
    // most 65 weights of at most 16 bits each, so 32-bit partial sums
    // cannot overflow.
    std::int32_t sum = row[0];
    const std::int32_t *signs = historySigns_.data();
    for (unsigned i = 0; i < config_.historyBits; ++i)
        sum += (row[1 + i] ^ signs[i]) - signs[i];
    marginPc_ = pc;
    margin_ = sum;
    marginValid_ = true;
    return sum;
}

bool
PerceptronPredictor::predict(std::uint64_t pc) const
{
    return marginOf(pc) >= 0;
}

bool
PerceptronPredictor::wouldTrain(std::uint64_t pc, bool taken) const
{
    const std::int64_t margin = marginOf(pc);
    const bool predicted = margin >= 0;
    const std::int64_t magnitude = margin < 0 ? -margin : margin;
    return predicted != taken || magnitude <= theta_;
}

void
PerceptronPredictor::update(std::uint64_t pc, bool taken)
{
    if (wouldTrain(pc, taken)) {
        std::int32_t *row = weights_.data() +
                            static_cast<std::size_t>(rowOf(pc)) * rowStride_;
        row[0] = std::clamp(row[0] + (taken ? 1 : -1), weightMin_,
                            weightMax_);
        // Each weight moves toward agreement: +1 where the history bit
        // equals the outcome (signs equal), -1 elsewhere.
        const std::int32_t outcome = taken ? 0 : -1;
        const std::int32_t *signs = historySigns_.data();
        for (unsigned i = 0; i < config_.historyBits; ++i) {
            const std::int32_t step = 1 + 2 * (signs[i] ^ outcome);
            row[1 + i] = std::clamp(row[1 + i] + step, weightMin_,
                                    weightMax_);
        }
    }
    marginValid_ = false;
    history_.recordOutcome(taken);
    std::copy_backward(historySigns_.begin(), historySigns_.end() - 1,
                       historySigns_.end());
    historySigns_[0] = taken ? 0 : -1;
}

std::uint64_t
PerceptronPredictor::storageBits() const
{
    return static_cast<std::uint64_t>(weights_.size()) *
               config_.weightBits +
           history_.width();
}

std::string
PerceptronPredictor::name() const
{
    return "perceptron-" + std::to_string(config_.numRows) + "x" +
           std::to_string(config_.historyBits) + "h";
}

void
PerceptronPredictor::reset()
{
    weights_.assign(weights_.size(), 0);
    history_.reset();
    syncHistorySigns();
    marginValid_ = false;
}

bool
PerceptronPredictor::sameDesignAs(const BranchPredictor &other) const
{
    const auto *same = dynamic_cast<const PerceptronPredictor *>(&other);
    return same != nullptr &&
           same->config_ == config_;
}

void
PerceptronPredictor::saveState(StateWriter &out) const
{
    out.putU64(weights_.size());
    out.reserve(4 * weights_.size());
    for (const std::int32_t w : weights_)
        out.putU32(static_cast<std::uint32_t>(w));
    out.putU64(history_.value());
}

void
PerceptronPredictor::loadState(StateReader &in)
{
    marginValid_ = false;
    in.expectU64(weights_.size(), "perceptron weight count");
    // In range, a weight and a row's dot product fit 32 bits.
    for (std::int32_t &w : weights_) {
        w = static_cast<std::int32_t>(in.getU32());
        if (w < weightMin_ || w > weightMax_)
            fatal(ErrorCategory::kCheckpoint,
                  "checkpoint perceptron weight " + std::to_string(w) +
                      " is outside [" + std::to_string(weightMin_) + ", " +
                      std::to_string(weightMax_) + "]");
    }
    history_.setValue(in.getU64());
    syncHistorySigns();
}

} // namespace confsim
