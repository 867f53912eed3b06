#include "confidence/two_level.h"

#include "ckpt/state_io.h"

#include "util/status.h"

namespace confsim {

const char *
toString(SecondLevelIndex index)
{
    switch (index) {
      case SecondLevelIndex::Cir: return "CIR";
      case SecondLevelIndex::CirXorPc: return "CIRxorPC";
      case SecondLevelIndex::CirXorBhr: return "CIRxorBHR";
      case SecondLevelIndex::CirXorPcXorBhr: return "CIRxorPCxorBHR";
    }
    panic("unknown SecondLevelIndex");
}

TwoLevelConfidence::TwoLevelConfidence(IndexScheme first_scheme,
                                       std::size_t first_entries,
                                       unsigned first_cir_bits,
                                       SecondLevelIndex second_index,
                                       unsigned second_cir_bits,
                                       CirReduction reduction,
                                       CtInit init)
    : firstScheme_(first_scheme),
      firstTable_(first_entries, first_cir_bits, init),
      secondIndex_(second_index),
      secondTable_(std::size_t{1} << first_cir_bits, second_cir_bits,
                   init),
      reduction_(reduction)
{
    if (first_cir_bits > 24)
        fatal("level-1 CIR width > 24 would need a > 16M-entry level-2 "
              "table");
    if (reduction == CirReduction::RawPattern && second_cir_bits > 24)
        fatal("raw-pattern bucket space too large; use <= 24-bit level-2 "
              "CIRs");
}

std::uint64_t
TwoLevelConfidence::secondIndexOf(const BranchContext &ctx,
                                  std::uint64_t first_cir) const
{
    const unsigned bits = secondTable_.indexBits();
    switch (secondIndex_) {
      case SecondLevelIndex::Cir:
        return first_cir;
      case SecondLevelIndex::CirXorPc:
        return first_cir ^
               computeIndex(IndexScheme::Pc, ctx, bits);
      case SecondLevelIndex::CirXorBhr:
        return first_cir ^
               computeIndex(IndexScheme::Bhr, ctx, bits);
      case SecondLevelIndex::CirXorPcXorBhr:
        return first_cir ^
               computeIndex(IndexScheme::PcXorBhr, ctx, bits);
    }
    panic("unknown SecondLevelIndex");
}

std::uint64_t
TwoLevelConfidence::bucketOf(const BranchContext &ctx) const
{
    const std::uint64_t first_cir = firstTable_.read(firstIndexOf(ctx));
    return reduceCir(reduction_,
                     secondTable_.read(secondIndexOf(ctx, first_cir)));
}

std::uint64_t
TwoLevelConfidence::observe(const BranchContext &ctx, bool correct,
                            bool)
{
    // The level-2 index comes from the PRE-update level-1 CIR (the
    // value bucketOf() sees), which update() hands back.
    const std::uint64_t first_cir =
        firstTable_.update(firstIndexOf(ctx), correct);
    return reduceCir(reduction_,
                     secondTable_.update(secondIndexOf(ctx, first_cir),
                                         correct));
}

void
TwoLevelConfidence::update(const BranchContext &ctx, bool correct,
                           bool taken)
{
    TwoLevelConfidence::observe(ctx, correct, taken);
}

std::uint64_t
TwoLevelConfidence::numBuckets() const
{
    switch (reduction_) {
      case CirReduction::RawPattern:
        return std::uint64_t{1} << secondTable_.cirBits();
      case CirReduction::OnesCount:
        return secondTable_.cirBits() + 1;
    }
    panic("unknown CirReduction");
}

std::uint64_t
TwoLevelConfidence::storageBits() const
{
    return firstTable_.storageBits() + secondTable_.storageBits();
}

std::string
TwoLevelConfidence::name() const
{
    return std::string("2lvl-") + toString(firstScheme_) + "-" +
           toString(secondIndex_) + "-" + toString(reduction_);
}

void
TwoLevelConfidence::reset()
{
    firstTable_.reset();
    secondTable_.reset();
}


void
TwoLevelConfidence::saveState(StateWriter &out) const
{
    firstTable_.saveState(out);
    secondTable_.saveState(out);
}

void
TwoLevelConfidence::loadState(StateReader &in)
{
    firstTable_.loadState(in);
    secondTable_.loadState(in);
}

} // namespace confsim
