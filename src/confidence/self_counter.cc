#include "confidence/self_counter.h"

#include "ckpt/state_io.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

SelfCounterConfidence::SelfCounterConfidence(IndexScheme scheme,
                                             std::size_t num_entries,
                                             unsigned counter_bits)
    : scheme_(scheme), counterBits_(counter_bits)
{
    if (!isPowerOfTwo(num_entries))
        fatal("shadow counter table size must be a power of two");
    if (counter_bits < 2 || counter_bits > 6)
        fatal("shadow counter width must be in [2, 6]");
    indexBits_ = log2Exact(num_entries);
    maxValue_ = static_cast<std::uint32_t>(mask(counter_bits));
    // "Weakly taken", as for prediction counters.
    initialValue_ = (maxValue_ + 1) / 2;
    counters_.assign(num_entries, initialValue_);
}

std::uint64_t
SelfCounterConfidence::indexOf(const BranchContext &ctx) const
{
    return computeIndex(scheme_, ctx, indexBits_);
}

std::uint64_t
SelfCounterConfidence::strengthOf(std::uint32_t counter) const
{
    // Distance from the taken/not-taken boundary. For a 3-bit counter
    // (0..7, taken >= 4): values 3 and 4 have strength 0 (weak);
    // values 0 and 7 have strength 3 (strong).
    const std::uint32_t mid = (maxValue_ + 1) / 2;
    return counter >= mid ? counter - mid : mid - 1 - counter;
}

std::uint64_t
SelfCounterConfidence::bucketOf(const BranchContext &ctx) const
{
    return strengthOf(counters_[indexOf(ctx)]);
}

bool
SelfCounterConfidence::shadowPredictsTaken(const BranchContext &ctx)
    const
{
    return counters_[indexOf(ctx)] >= (maxValue_ + 1) / 2;
}

void
SelfCounterConfidence::update(const BranchContext &ctx, bool,
                              bool taken)
{
    auto &counter = counters_[indexOf(ctx)];
    if (taken) {
        if (counter < maxValue_)
            ++counter;
    } else {
        if (counter > 0)
            --counter;
    }
}

std::uint64_t
SelfCounterConfidence::numBuckets() const
{
    return (static_cast<std::uint64_t>(maxValue_) + 1) / 2;
}

std::uint64_t
SelfCounterConfidence::storageBits() const
{
    return static_cast<std::uint64_t>(counters_.size()) * counterBits_;
}

std::string
SelfCounterConfidence::name() const
{
    return std::string("selfcnt-") + toString(scheme_) + "-" +
           std::to_string(counterBits_) + "b-" +
           std::to_string(counters_.size());
}

void
SelfCounterConfidence::reset()
{
    counters_.assign(counters_.size(), initialValue_);
}


void
SelfCounterConfidence::saveState(StateWriter &out) const
{
    out.putU64(counters_.size());
    out.reserve(4 * counters_.size());
    for (const std::uint32_t counter : counters_)
        out.putU32(counter);
}

void
SelfCounterConfidence::loadState(StateReader &in)
{
    in.expectU64(counters_.size(), "self-counter CT size");
    for (std::uint32_t &counter : counters_)
        counter = in.getU32();
}

} // namespace confsim
