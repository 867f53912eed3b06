#include "confidence/associative_ct.h"

#include "ckpt/state_io.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

AssociativeCounterConfidence::AssociativeCounterConfidence(
    IndexScheme scheme, std::size_t num_sets, unsigned ways,
    unsigned tag_bits, CounterKind kind, std::uint32_t max_value)
    : scheme_(scheme), ways_(ways), tagBits_(tag_bits), kind_(kind),
      maxValue_(max_value)
{
    if (!isPowerOfTwo(num_sets))
        fatal("associative CT set count must be a power of two");
    if (ways == 0 || ways > 16)
        fatal("associative CT associativity must be in [1, 16]");
    if (tag_bits == 0 || tag_bits > 16)
        fatal("associative CT tag width must be in [1, 16]");
    if (max_value == 0 || max_value > 255)
        fatal("associative CT counter max must be in [1, 255]");
    setBits_ = log2Exact(num_sets);
    if (setBits_ + tag_bits > 32)
        fatal("associative CT set+tag width exceeds the 32-bit index");
    bitsPerCounter_ = log2Exact(ceilPowerOfTwo(
        static_cast<std::uint64_t>(max_value) + 1));
    entries_.assign(num_sets * ways, Entry{});
}

std::pair<std::uint64_t, std::uint16_t>
AssociativeCounterConfidence::locate(const BranchContext &ctx) const
{
    // Compute a wide index once; the low bits select the set and the
    // bits immediately above become the partial tag.
    const std::uint64_t wide =
        computeIndex(scheme_, ctx, setBits_ + tagBits_);
    const std::uint64_t set = wide & mask(setBits_);
    const auto tag =
        static_cast<std::uint16_t>((wide >> setBits_) & mask(tagBits_));
    return {set, tag};
}

unsigned
AssociativeCounterConfidence::findWay(std::uint64_t set,
                                      std::uint16_t tag) const
{
    const std::size_t base = set * ways_;
    for (unsigned w = 0; w < ways_; ++w) {
        const Entry &entry = entries_[base + w];
        if (entry.valid && entry.tag == tag)
            return w;
    }
    return ways_;
}

void
AssociativeCounterConfidence::touch(std::uint64_t set, unsigned way)
{
    const std::size_t base = set * ways_;
    const std::uint8_t old_age = entries_[base + way].lru;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &entry = entries_[base + w];
        if (w == way)
            entry.lru = 0;
        else if (entry.lru <= old_age && entry.lru < 255)
            ++entry.lru;
    }
}

std::uint64_t
AssociativeCounterConfidence::bucketOf(const BranchContext &ctx) const
{
    ++lookups_;
    const auto [set, tag] = locate(ctx);
    const unsigned way = findWay(set, tag);
    if (way == ways_) {
        ++tagMisses_;
        return 0; // power-on counter value for an unseen context
    }
    return entries_[set * ways_ + way].counter;
}

void
AssociativeCounterConfidence::update(const BranchContext &ctx,
                                     bool correct, bool)
{
    const auto [set, tag] = locate(ctx);
    unsigned way = findWay(set, tag);
    const std::size_t base = set * ways_;
    if (way == ways_) {
        // Allocate: evict the LRU way.
        way = 0;
        for (unsigned w = 1; w < ways_; ++w) {
            if (!entries_[base + w].valid) {
                way = w;
                break;
            }
            if (entries_[base + w].lru > entries_[base + way].lru)
                way = w;
        }
        Entry &entry = entries_[base + way];
        entry.valid = true;
        entry.tag = tag;
        entry.counter = 0;
    }

    Entry &entry = entries_[base + way];
    switch (kind_) {
      case CounterKind::Saturating:
        if (correct) {
            if (entry.counter < maxValue_)
                ++entry.counter;
        } else {
            if (entry.counter > 0)
                --entry.counter;
        }
        break;
      case CounterKind::Resetting:
        if (correct) {
            if (entry.counter < maxValue_)
                ++entry.counter;
        } else {
            entry.counter = 0;
        }
        break;
      case CounterKind::HalfReset:
        if (correct) {
            if (entry.counter < maxValue_)
                ++entry.counter;
        } else {
            entry.counter /= 2;
        }
        break;
    }
    touch(set, way);
}

std::uint64_t
AssociativeCounterConfidence::numBuckets() const
{
    return static_cast<std::uint64_t>(maxValue_) + 1;
}

std::uint64_t
AssociativeCounterConfidence::storageBits() const
{
    // Per entry: counter + tag + valid + ceil(log2(ways)) LRU bits.
    const unsigned lru_bits =
        ways_ == 1 ? 0 : log2Exact(ceilPowerOfTwo(ways_));
    return entries_.size() *
           (bitsPerCounter_ + tagBits_ + 1 + lru_bits);
}

std::string
AssociativeCounterConfidence::name() const
{
    return std::string("assoc-") + toString(scheme_) + "-" +
           toString(kind_) + std::to_string(maxValue_) + "-" +
           std::to_string(entries_.size() / ways_) + "sx" +
           std::to_string(ways_) + "w-t" + std::to_string(tagBits_);
}

void
AssociativeCounterConfidence::reset()
{
    entries_.assign(entries_.size(), Entry{});
    tagMisses_ = 0;
    lookups_ = 0;
}


void
AssociativeCounterConfidence::saveState(StateWriter &out) const
{
    out.putU64(entries_.size());
    out.reserve(5 * entries_.size());
    for (const Entry &entry : entries_) {
        out.putU16(entry.tag);
        out.putU8(entry.counter);
        out.putU8(entry.lru);
        out.putBool(entry.valid);
    }
    out.putU64(tagMisses_);
    out.putU64(lookups_);
}

void
AssociativeCounterConfidence::loadState(StateReader &in)
{
    in.expectU64(entries_.size(), "associative CT entries");
    for (Entry &entry : entries_) {
        entry.tag = in.getU16();
        entry.counter = in.getU8();
        entry.lru = in.getU8();
        entry.valid = in.getBool();
    }
    tagMisses_ = in.getU64();
    lookups_ = in.getU64();
}

} // namespace confsim
