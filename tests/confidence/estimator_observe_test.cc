/**
 * @file
 * observe() against the split bucketOf() + update() pair.
 *
 * The replay engine calls one observe() per estimator per branch; the
 * paper's order is a bucket read before the entry trains. For every
 * estimator, one instance runs through observe() and a twin through
 * bucketOf() then update() on the same context stream: the buckets
 * must agree on every branch and the saveState() bytes at the end.
 * Every family of the differential registry is covered, plus the
 * three families with a fused override (one-level CIR, one-level
 * counter, two-level) at shapes away from the paper's.
 */

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/one_level.h"
#include "confidence/two_level.h"
#include "support/family_registry.h"
#include "util/bits.h"
#include "util/rng.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 10'000;

constexpr std::array kSchemes = {
    IndexScheme::Pc,        IndexScheme::Bhr,
    IndexScheme::Gcir,      IndexScheme::PcXorBhr,
    IndexScheme::PcXorGcir, IndexScheme::BhrXorGcir,
    IndexScheme::PcXorBhrXorGcir, IndexScheme::PcConcatBhr,
};

// Index widths crossed with every other shape parameter. The widest,
// 20 bits, runs once per scheme with one setting of the rest: a
// 2^20-entry table takes ~30 ms to serialize.
constexpr std::array kIndexBits = {1u, 12u};
constexpr unsigned kWideIndexBits = 20;

using MakeEstimator = std::function<std::unique_ptr<ConfidenceEstimator>()>;

std::vector<std::uint8_t>
stateOf(const ConfidenceEstimator &estimator)
{
    StateWriter out;
    estimator.saveState(out);
    return out.take();
}

/**
 * Drive an observe() instance and a split twin over the same random
 * stream. Contexts come from a 512-PC pool and running 24-bit
 * BHR/GCIR registers, so entries alias and histories repeat the way
 * a replay's do; about one prediction in six is wrong.
 */
void
expectObserveMatchesSplit(const MakeEstimator &make)
{
    const auto fused = make();
    const auto split = make();
    Rng rng(0x0B5E47E);
    std::vector<std::uint64_t> pcs(512);
    for (auto &pc : pcs)
        pc = rng.next() & mask(32);

    BranchContext ctx;
    ctx.bhrBits = 24;
    ctx.gcirBits = 24;
    for (std::uint64_t i = 0; i < kBranches; ++i) {
        ctx.pc = pcs[rng.nextBelow(pcs.size())];
        const bool taken = rng.nextBernoulli(0.6);
        const bool correct = rng.nextBernoulli(0.83);

        const std::uint64_t expected = split->bucketOf(ctx);
        split->update(ctx, correct, taken);
        const std::uint64_t bucket = fused->observe(ctx, correct, taken);
        ASSERT_EQ(bucket, expected) << "branch " << i;

        ctx.bhr = ((ctx.bhr << 1) | (taken ? 1 : 0)) & mask(24);
        ctx.gcir = ((ctx.gcir << 1) | (correct ? 0 : 1)) & mask(24);
    }
    EXPECT_EQ(stateOf(*fused), stateOf(*split));
}

TEST(EstimatorObserveTest, EveryRegistryFamilyMatchesTheSplitCalls)
{
    for (const auto &family : estimatorFamilyRegistry()) {
        SCOPED_TRACE(family.label);
        ASSERT_EQ(family.makeEstimators().size(), 1u);
        expectObserveMatchesSplit(
            [&] { return std::move(family.makeEstimators().front()); });
    }
}

std::unique_ptr<ConfidenceEstimator>
makeCir(IndexScheme scheme, unsigned index_bits, unsigned cir_bits,
        CirReduction reduction)
{
    return std::make_unique<OneLevelCirConfidence>(
        scheme, std::size_t{1} << index_bits, cir_bits, reduction,
        CtInit::Ones);
}

TEST(EstimatorObserveTest, OneLevelCirMatchesAtEveryShape)
{
    for (const IndexScheme scheme : kSchemes) {
        for (const CirReduction reduction :
             {CirReduction::RawPattern, CirReduction::OnesCount}) {
            for (const unsigned cir_bits : {1u, 8u, 24u}) {
                for (const unsigned index_bits : kIndexBits) {
                    SCOPED_TRACE(std::string(toString(scheme)) + " " +
                                 toString(reduction) + " cir" +
                                 std::to_string(cir_bits) + " index" +
                                 std::to_string(index_bits));
                    expectObserveMatchesSplit([=] {
                        return makeCir(scheme, index_bits, cir_bits,
                                       reduction);
                    });
                }
            }
        }
        SCOPED_TRACE(std::string(toString(scheme)) + " wide index");
        expectObserveMatchesSplit([=] {
            return makeCir(scheme, kWideIndexBits, 24,
                           CirReduction::OnesCount);
        });
    }
}

std::unique_ptr<ConfidenceEstimator>
makeCounter(IndexScheme scheme, unsigned index_bits, CounterKind kind,
            std::uint32_t max_value, std::uint32_t initial_value)
{
    return std::make_unique<OneLevelCounterConfidence>(
        scheme, std::size_t{1} << index_bits, kind, max_value,
        initial_value);
}

TEST(EstimatorObserveTest, OneLevelCounterMatchesAtEveryShape)
{
    struct Range
    {
        std::uint32_t maxValue;
        std::uint32_t initialValue;
    };
    for (const IndexScheme scheme : kSchemes) {
        for (const CounterKind kind :
             {CounterKind::Saturating, CounterKind::Resetting,
              CounterKind::HalfReset}) {
            for (const Range range : {Range{1, 0}, Range{16, 0},
                                      Range{7, 7}}) {
                for (const unsigned index_bits : kIndexBits) {
                    SCOPED_TRACE(std::string(toString(scheme)) + " " +
                                 toString(kind) +
                                 std::to_string(range.maxValue) +
                                 " init" +
                                 std::to_string(range.initialValue) +
                                 " index" + std::to_string(index_bits));
                    expectObserveMatchesSplit([=] {
                        return makeCounter(scheme, index_bits, kind,
                                           range.maxValue,
                                           range.initialValue);
                    });
                }
            }
        }
        SCOPED_TRACE(std::string(toString(scheme)) + " wide index");
        expectObserveMatchesSplit([=] {
            return makeCounter(scheme, kWideIndexBits,
                               CounterKind::Resetting, 16, 0);
        });
    }
}

std::unique_ptr<ConfidenceEstimator>
makeTwoLevel(IndexScheme scheme, unsigned index_bits,
             unsigned first_cir_bits, SecondLevelIndex second,
             unsigned second_cir_bits, CirReduction reduction)
{
    return std::make_unique<TwoLevelConfidence>(
        scheme, std::size_t{1} << index_bits, first_cir_bits, second,
        second_cir_bits, reduction, CtInit::Ones);
}

TEST(EstimatorObserveTest, TwoLevelMatchesAtEveryShape)
{
    // Level-1 CIR widths stop at 16: a 24-bit level-1 CIR indexes a
    // 2^24-entry level-2 table (128 MB per instance). The 24-bit width
    // is covered at level 2, whose table size it does not set.
    struct Widths
    {
        unsigned firstCirBits;
        unsigned secondCirBits;
        CirReduction reduction;
    };
    for (const IndexScheme scheme : kSchemes) {
        for (const SecondLevelIndex second :
             {SecondLevelIndex::Cir, SecondLevelIndex::CirXorPc,
              SecondLevelIndex::CirXorBhr,
              SecondLevelIndex::CirXorPcXorBhr}) {
            for (const Widths widths :
                 {Widths{1, 24, CirReduction::RawPattern},
                  Widths{8, 8, CirReduction::OnesCount},
                  Widths{16, 1, CirReduction::RawPattern},
                  Widths{8, 24, CirReduction::OnesCount}}) {
                for (const unsigned index_bits : kIndexBits) {
                    SCOPED_TRACE(std::string(toString(scheme)) + " " +
                                 toString(second) + " l1cir" +
                                 std::to_string(widths.firstCirBits) +
                                 " l2cir" +
                                 std::to_string(widths.secondCirBits) +
                                 " " + toString(widths.reduction) +
                                 " index" + std::to_string(index_bits));
                    expectObserveMatchesSplit([=] {
                        return makeTwoLevel(scheme, index_bits,
                                            widths.firstCirBits, second,
                                            widths.secondCirBits,
                                            widths.reduction);
                    });
                }
            }
        }
        SCOPED_TRACE(std::string(toString(scheme)) + " wide index");
        expectObserveMatchesSplit([=] {
            return makeTwoLevel(scheme, kWideIndexBits, 8,
                                SecondLevelIndex::CirXorPcXorBhr, 8,
                                CirReduction::RawPattern);
        });
    }
}

} // namespace
} // namespace confsim
