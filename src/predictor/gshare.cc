#include "predictor/gshare.h"

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

namespace {

SaturatingCounter
weaklyTakenCounter(unsigned counter_bits)
{
    const auto max = static_cast<std::uint32_t>(mask(counter_bits));
    return SaturatingCounter(max, (max + 1) / 2);
}

} // namespace

GsharePredictor::GsharePredictor(std::size_t num_entries,
                                 unsigned history_bits,
                                 unsigned counter_bits)
    : table_(num_entries, weaklyTakenCounter(counter_bits), counter_bits),
      history_(history_bits),
      counterBits_(counter_bits)
{
    if (history_bits > table_.indexBits())
        fatal("gshare history depth must not exceed index width");
}

GsharePredictor
GsharePredictor::makeLargePaperConfig()
{
    return GsharePredictor(std::size_t{1} << 16, 16);
}

GsharePredictor
GsharePredictor::makeSmallPaperConfig()
{
    return GsharePredictor(std::size_t{1} << 12, 12);
}

std::uint64_t
GsharePredictor::indexOf(std::uint64_t pc) const
{
    // PC bits [m+1 : 2] XOR the h-bit global history (right-aligned).
    const std::uint64_t pc_field =
        bitsOf(pc, table_.indexBits() + 1, 2);
    return pc_field ^ history_.value();
}

bool
GsharePredictor::predict(std::uint64_t pc) const
{
    return table_[indexOf(pc)].predictsTaken();
}

void
GsharePredictor::update(std::uint64_t pc, bool taken)
{
    auto &counter = table_[indexOf(pc)];
    if (taken)
        counter.increment();
    else
        counter.decrement();
    history_.recordOutcome(taken);
}

std::uint64_t
GsharePredictor::storageBits() const
{
    return table_.storageBits() + history_.width();
}

std::string
GsharePredictor::name() const
{
    return "gshare-" + std::to_string(table_.size()) + "x" +
           std::to_string(counterBits_) + "b-h" +
           std::to_string(history_.width());
}

void
GsharePredictor::reset()
{
    table_.fill(weaklyTakenCounter(counterBits_));
    history_.reset();
}

bool
GsharePredictor::sameDesignAs(const BranchPredictor &other) const
{
    const auto *same = dynamic_cast<const GsharePredictor *>(&other);
    return same != nullptr &&
           same->table_.size() == table_.size() &&
           same->history_.width() == history_.width() &&
           same->counterBits_ == counterBits_;
}


void
GsharePredictor::saveState(StateWriter &out) const
{
    saveCounterTable(out, table_);
    out.putU64(history_.value());
}

void
GsharePredictor::loadState(StateReader &in)
{
    loadCounterTable(in, table_);
    history_.setValue(in.getU64());
}

} // namespace confsim
