#include "predictor/tage.h"

#include <bit>

#include "ckpt/state_helpers.h"

#include "util/bits.h"
#include "util/status.h"

namespace confsim {

namespace {

SaturatingCounter
weaklyTakenBimodal()
{
    return SaturatingCounter(3, 2);
}

} // namespace

TageConfig
TageConfig::makeSmall()
{
    TageConfig c;
    c.bimodalEntries = std::size_t{1} << 8;
    c.taggedEntries = std::size_t{1} << 7;
    c.tagBits = 7;
    c.historyLengths = {4, 9, 18};
    c.agingPeriod = 8192;
    return c;
}

TagePredictor::TagePredictor(TageConfig config)
    : config_(std::move(config)),
      indexBits_(isPowerOfTwo(config_.taggedEntries)
                     ? log2Exact(config_.taggedEntries)
                     : 0),
      indexMask_(mask(indexBits_)),
      indexTopBit_(indexBits_ == 0 ? 0 : std::uint64_t{1} << (indexBits_ - 1)),
      tagMask_(mask(config_.tagBits)),
      bimodal_(config_.bimodalEntries, weaklyTakenBimodal(), 2),
      history_(config_.historyLengths.empty()
                   ? 1
                   : config_.historyLengths.back()),
      useAltOnNa_(static_cast<std::uint32_t>(mask(config_.useAltBits)), 0),
      ctrMax_(static_cast<std::uint8_t>(mask(config_.counterBits))),
      uMax_(static_cast<std::uint8_t>(mask(config_.usefulBits)))
{
    if (config_.historyLengths.empty())
        fatal("TAGE requires at least one tagged table");
    if (!isPowerOfTwo(config_.taggedEntries))
        fatal("TAGE tagged-table size must be a power of two");
    if (config_.tagBits < 2 || config_.tagBits > 16)
        fatal("TAGE tag width must be in [2, 16]");
    if (config_.counterBits < 2 || config_.counterBits > 8)
        fatal("TAGE counter width must be in [2, 8]");
    if (config_.usefulBits < 1 || config_.usefulBits > 8)
        fatal("TAGE useful-counter width must be in [1, 8]");
    unsigned prev = 0;
    for (unsigned len : config_.historyLengths) {
        if (len <= prev || len > 64)
            fatal("TAGE history lengths must be strictly increasing "
                  "and <= 64");
        prev = len;
    }
    entries_.assign(config_.historyLengths.size() * config_.taggedEntries,
                    TageEntry{});
    for (unsigned len : config_.historyLengths) {
        TableFolds folds;
        folds.length = len;
        folds.index = FoldedHistory(len, indexBits_);
        folds.tag = FoldedHistory(len, config_.tagBits);
        folds.tagLow = FoldedHistory(len, config_.tagBits - 1);
        folds_.push_back(folds);
    }
    lookup_.probes.resize(folds_.size());
    untilAging_ = config_.agingPeriod;
}

TagePredictor::FoldedHistory::FoldedHistory(unsigned length, unsigned width)
    : widthMask(mask(width)),
      outBit(width == 0 ? 0 : std::uint64_t{1} << (length % width))
{
}

void
TagePredictor::FoldedHistory::push(std::uint64_t taken,
                                   std::uint64_t leaving)
{
    // Shift left by one and bring the new outcome in at bit 0. The
    // outcome leaving the window sat at fold position
    // (length - 1) % width, so after the shift it is at outBit: cancel
    // it there. Then rotate bit width back to bit 0. (When
    // length % width is 0 both land on bit 0, and cancel all the same;
    // a zero-width fold has no bits and stays 0.)
    value = (value << 1) | taken;
    value ^= leaving & outBit;
    value = (value & widthMask) ^
            (std::uint64_t{value > widthMask} & widthMask);
}

bool
TagePredictor::ctrTaken(std::uint8_t ctr) const
{
    return ctr >= (ctrMax_ + 1u) / 2;
}

std::uint64_t
TagePredictor::ctrStrength(std::uint8_t ctr) const
{
    const std::uint32_t mid = (ctrMax_ + 1u) / 2;
    return ctr >= mid ? ctr - mid : mid - 1u - ctr;
}

std::uint64_t
TagePredictor::strengthLevels() const
{
    return (std::uint64_t{ctrMax_} + 1) / 2;
}

std::uint64_t
TagePredictor::bimodalIndex(std::uint64_t pc) const
{
    return bitsOf(pc, bimodal_.indexBits() + 1, 2);
}

std::uint64_t
TagePredictor::shiftPcFold(std::uint64_t fold, std::uint64_t rest) const
{
    // xorFold(x >> (s + 1), w) from fold = xorFold(x >> s, w) and
    // rest = x >> s: every bit moves down one place, and the top bit
    // is the old bit 0 xor the bit of x that just left.
    return (fold >> 1) ^ ((0 - ((fold ^ rest) & 1)) & indexTopBit_);
}

std::uint64_t
TagePredictor::indexHash(std::size_t table, std::uint64_t pc_fold,
                         std::uint64_t pc_table_fold) const
{
    // pc_table_fold is xorFold(pc_field >> (table + 1), indexBits_).
    return (pc_fold ^ pc_table_fold ^ folds_[table].index.value) &
           indexMask_;
}

std::uint16_t
TagePredictor::tagHash(std::size_t table, std::uint64_t pc_fold) const
{
    // The classic double-folded tag hash: two history folds at widths
    // (bits, bits - 1) decorrelate the tag from the index fold.
    const TableFolds &folds = folds_[table];
    return static_cast<std::uint16_t>(
        (pc_fold ^ folds.tag.value ^ (folds.tagLow.value << 1)) &
        tagMask_);
}

std::uint64_t
TagePredictor::indexOf(std::size_t table, std::uint64_t pc) const
{
    const std::uint64_t pc_field = pc >> 2;
    const std::uint64_t pc_fold = xorFold(pc_field, indexBits_);
    std::uint64_t pc_table_fold = pc_fold;
    for (std::size_t t = 0; t <= table; ++t)
        pc_table_fold = shiftPcFold(pc_table_fold, pc_field >> t);
    return indexHash(table, pc_fold, pc_table_fold);
}

std::uint16_t
TagePredictor::tagOf(std::size_t table, std::uint64_t pc) const
{
    return tagHash(table, xorFold(pc >> 2, config_.tagBits));
}

const TageEntry &
TagePredictor::entryAt(std::size_t table, std::uint64_t index) const
{
    return entries_[(table << indexBits_) | (index & indexMask_)];
}

const TagePredictor::Lookup &
TagePredictor::lookup(std::uint64_t pc) const
{
    if (lookup_.valid && lookup_.pc == pc)
        return lookup_;

    const std::uint64_t pc_field = pc >> 2;
    const std::uint64_t pc_fold = xorFold(pc_field, indexBits_);
    const std::uint64_t pc_tag_fold = xorFold(pc_field, config_.tagBits);
    // Bit t of hits = table t's tag matches. The provider is the
    // longest-history hit, the alternate the next-longest.
    std::uint64_t hits = 0;
    std::uint64_t pc_table_fold = pc_fold;
    for (std::size_t table = 0; table < folds_.size(); ++table) {
        pc_table_fold = shiftPcFold(pc_table_fold, pc_field >> table);
        Probe &probe = lookup_.probes[table];
        probe.slot = (table << indexBits_) |
                     indexHash(table, pc_fold, pc_table_fold);
        probe.tag = tagHash(table, pc_tag_fold);
        hits |= std::uint64_t{entries_[probe.slot].tag == probe.tag}
                << table;
    }
    const int provider = static_cast<int>(std::bit_width(hits)) - 1;
    if (provider >= 0)
        hits ^= std::uint64_t{1} << provider;
    const int alt = static_cast<int>(std::bit_width(hits)) - 1;

    TagePrediction &d = lookup_.detail;
    d = TagePrediction{};
    lookup_.pc = pc;
    lookup_.valid = true;

    const auto &base = bimodal_[bimodalIndex(pc)];
    const bool bimodal_taken = base.predictsTaken();
    if (provider < 0) {
        // Bimodal provides; its counter strength is the confidence.
        const std::uint32_t mid = (base.max() + 1) / 2;
        d.providerCtr = base.value();
        d.providerTaken = bimodal_taken;
        d.providerStrength = base.value() >= mid ? base.value() - mid
                                                 : mid - 1 - base.value();
        d.altTaken = bimodal_taken;
        d.taken = bimodal_taken;
        return lookup_;
    }

    const TageEntry &entry =
        entries_[lookup_.probes[static_cast<std::size_t>(provider)].slot];
    d.providerTable = provider;
    d.providerCtr = entry.ctr;
    d.providerTaken = ctrTaken(entry.ctr);
    d.providerStrength = ctrStrength(entry.ctr);
    d.newlyAllocated = entry.u == 0 && d.providerStrength == 0;
    if (alt >= 0) {
        d.altTable = alt;
        d.altTaken = ctrTaken(
            entries_[lookup_.probes[static_cast<std::size_t>(alt)].slot]
                .ctr);
    } else {
        d.altTaken = bimodal_taken;
    }
    d.usedAlt = d.newlyAllocated && useAltOnNa_.predictsTaken();
    d.taken = d.usedAlt ? d.altTaken : d.providerTaken;
    return lookup_;
}

TagePrediction
TagePredictor::predictDetail(std::uint64_t pc) const
{
    return lookup(pc).detail;
}

bool
TagePredictor::predict(std::uint64_t pc) const
{
    return lookup(pc).detail.taken;
}

void
TagePredictor::update(std::uint64_t pc, bool taken)
{
    const Lookup &l = lookup(pc);
    const TagePrediction &d = l.detail;

    if (d.providerTable >= 0) {
        TageEntry &entry =
            entries_[l.probes[static_cast<std::size_t>(d.providerTable)]
                         .slot];

        // Useful counter: evidence only when provider and alternate
        // disagree — the provider was the tie-breaker.
        if (d.providerTaken != d.altTaken) {
            if (d.providerTaken == taken) {
                if (entry.u < uMax_)
                    ++entry.u;
            } else if (entry.u > 0) {
                --entry.u;
            }
        }

        // Learn whether newly allocated entries should defer to alt.
        if (d.newlyAllocated && d.providerTaken != d.altTaken) {
            if (d.altTaken == taken)
                useAltOnNa_.increment();
            else
                useAltOnNa_.decrement();
        }

        if (taken) {
            if (entry.ctr < ctrMax_)
                ++entry.ctr;
        } else if (entry.ctr > 0) {
            --entry.ctr;
        }
    } else {
        auto &base = bimodal_[bimodalIndex(pc)];
        if (taken)
            base.increment();
        else
            base.decrement();
    }

    // On a mispredict, allocate a fresh entry in a longer-history
    // table: the first candidate with u == 0, weakly initialized;
    // if all candidates are useful, decay them instead.
    const auto first = static_cast<std::size_t>(d.providerTable + 1);
    if (d.taken != taken && first < folds_.size()) {
        std::size_t victim = folds_.size();
        for (std::size_t t = first; t < folds_.size(); ++t) {
            if (entries_[l.probes[t].slot].u == 0) {
                victim = t;
                break;
            }
        }
        if (victim < folds_.size()) {
            TageEntry &entry = entries_[l.probes[victim].slot];
            entry.tag = l.probes[victim].tag;
            const auto mid = static_cast<std::uint8_t>((ctrMax_ + 1u) / 2);
            entry.ctr = taken ? mid : static_cast<std::uint8_t>(mid - 1);
            entry.u = 0;
        } else {
            for (std::size_t t = first; t < folds_.size(); ++t) {
                TageEntry &entry = entries_[l.probes[t].slot];
                if (entry.u > 0)
                    --entry.u;
            }
        }
    }
    lookup_.valid = false;

    ++updates_;
    if (config_.agingPeriod != 0 && --untilAging_ == 0) {
        untilAging_ = config_.agingPeriod;
        ageUsefulCounters();
    }

    const std::uint64_t before = history_.value();
    const std::uint64_t in = taken ? 1 : 0;
    for (TableFolds &folds : folds_) {
        // All ones iff the outcome leaving this table's window was taken.
        const std::uint64_t leaving =
            0 - ((before >> (folds.length - 1)) & 1);
        folds.index.push(in, leaving);
        folds.tag.push(in, leaving);
        folds.tagLow.push(in, leaving);
    }
    history_.recordOutcome(taken);
}

void
TagePredictor::syncDerived()
{
    for (TableFolds &folds : folds_) {
        const std::uint64_t window = history_.value() & mask(folds.length);
        folds.index.value = xorFold(window, indexBits_);
        folds.tag.value = xorFold(window, config_.tagBits);
        folds.tagLow.value = xorFold(window, config_.tagBits - 1);
    }
    lookup_.valid = false;
    if (config_.agingPeriod != 0)
        untilAging_ = config_.agingPeriod - updates_ % config_.agingPeriod;
}

void
TagePredictor::ageUsefulCounters()
{
    for (TageEntry &entry : entries_)
        entry.u = static_cast<std::uint8_t>(entry.u >> 1);
}

std::uint64_t
TagePredictor::storageBits() const
{
    const std::uint64_t per_entry =
        config_.tagBits + config_.counterBits + config_.usefulBits;
    return bimodal_.storageBits() +
           entries_.size() * per_entry +
           history_.width() + config_.useAltBits + 64;
}

std::string
TagePredictor::name() const
{
    return "tage-" + std::to_string(folds_.size()) + "x" +
           std::to_string(config_.taggedEntries) + "-h" +
           std::to_string(config_.historyLengths.back());
}

void
TagePredictor::reset()
{
    bimodal_.fill(weaklyTakenBimodal());
    entries_.assign(entries_.size(), TageEntry{});
    history_.reset();
    useAltOnNa_.set(0);
    updates_ = 0;
    syncDerived();
}

bool
TagePredictor::sameDesignAs(const BranchPredictor &other) const
{
    const auto *same = dynamic_cast<const TagePredictor *>(&other);
    return same != nullptr &&
           same->config_ == config_;
}

void
TagePredictor::saveState(StateWriter &out) const
{
    out.putU64(folds_.size());
    out.putU64(config_.taggedEntries);
    out.reserve(4 * entries_.size());
    for (const TageEntry &entry : entries_) {
        out.putU16(entry.tag);
        out.putU8(entry.ctr);
        out.putU8(entry.u);
    }
    saveCounterTable(out, bimodal_);
    out.putU64(history_.value());
    out.putU32(useAltOnNa_.value());
    out.putU64(updates_);
}

void
TagePredictor::loadState(StateReader &in)
{
    lookup_.valid = false;
    in.expectU64(folds_.size(), "TAGE table count");
    in.expectU64(config_.taggedEntries, "TAGE entries per table");
    for (TageEntry &entry : entries_) {
        entry.tag = in.getU16();
        entry.ctr = in.getU8();
        entry.u = in.getU8();
    }
    loadCounterTable(in, bimodal_);
    history_.setValue(in.getU64());
    useAltOnNa_.set(in.getU32());
    updates_ = in.getU64();
    syncDerived();
}

} // namespace confsim
