/**
 * @file
 * Property tests for the perceptron predictor and its margin-based
 * confidence estimator. The load-bearing invariants: the prediction is
 * exactly the sign of the margin, training fires iff the prediction
 * was wrong or |margin| <= theta (and moves every weight by exactly
 * +/-1 toward agreement, clamped to the weight range), the confidence
 * bucket is monotone in |margin|, and the unpaired estimator's private
 * perceptron reproduces a main predictor's margins bit-for-bit.
 *
 * The speed paths are pinned against their direct definitions: the
 * cached row bits and the memoized margin against the dot product
 * spelled out here, across reset() and loadState(); predict() before
 * update() against update() alone; and the paired estimator's reading
 * against the unpaired one.
 */

#include "predictor/perceptron.h"

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/perceptron_margin.h"
#include "predictor/tage.h"
#include "util/bits.h"
#include "util/error.h"

namespace confsim {
namespace {

/** Deterministic xorshift stream for synthesizing branch activity. */
class Xorshift
{
  public:
    explicit Xorshift(std::uint64_t seed)
        : state_(seed)
    {}

    std::uint64_t
    next()
    {
        state_ ^= state_ << 13;
        state_ ^= state_ >> 7;
        state_ ^= state_ << 17;
        return state_;
    }

  private:
    std::uint64_t state_;
};

/** The margin straight from its definition: bias plus the history
 *  bits as +/-1 dotted with the row's weights. */
std::int64_t
directMargin(const PerceptronPredictor &pred, std::uint64_t pc)
{
    const std::uint64_t row =
        xorFold(pc >> 2, log2Exact(pred.config().numRows));
    std::int64_t sum = pred.weightAt(row, 0);
    for (unsigned i = 0; i < pred.config().historyBits; ++i) {
        const std::int32_t w = pred.weightAt(row, i + 1);
        sum += bitOf(pred.historyValue(), i) != 0 ? w : -w;
    }
    return sum;
}

TEST(PerceptronTest, CachedRowAndMarginMatchDirectFormula)
{
    PerceptronConfig deep = PerceptronConfig::makeSmall();
    deep.historyBits = 64;
    deep.weightBits = 16;
    for (const PerceptronConfig &config :
         {PerceptronConfig::makeSmall(), PerceptronConfig::makeDefault(),
          deep}) {
        PerceptronPredictor pred(config);
        PerceptronPredictor other(config);
        SCOPED_TRACE(pred.name());
        Xorshift rng(0x9EC50010u);
        for (int i = 0; i < 12'000; ++i) {
            const std::uint64_t r = rng.next();
            const std::uint64_t pc = ((r >> 8) & 0xFFFF) * 4;
            const bool taken = (r & 1) != 0;
            ASSERT_EQ(pred.rowOf(pc),
                      xorFold(pc >> 2, log2Exact(config.numRows)))
                << "step " << i;
            const std::int64_t want = directMargin(pred, pc);
            ASSERT_EQ(pred.marginOf(pc), want) << "step " << i;
            ASSERT_EQ(pred.predict(pc), want >= 0) << "step " << i;
            // The memoized margin answers again until the state moves.
            ASSERT_EQ(pred.marginOf(pc), want) << "step " << i;
            pred.update(pc, taken);
            other.update(((r >> 24) & 0xFFF) * 4, (r & 2) != 0);
            if (i == 4'000) {
                StateWriter out;
                other.saveState(out);
                StateReader in(out.bytes());
                pred.loadState(in);
            } else if (i == 8'000) {
                pred.reset();
            }
        }
    }
}

TEST(PerceptronTest, PredictThenUpdateEqualsUpdateAlone)
{
    PerceptronPredictor probed(PerceptronConfig::makeSmall());
    PerceptronPredictor plain(PerceptronConfig::makeSmall());
    Xorshift rng(0x9EC50011u);
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0x3FF) * 4;
        const bool taken = (r & 1) != 0;
        probed.predict(pc);
        if ((r & 0x30) == 0)
            probed.marginOf(pc + 4);
        if ((r & 0xC0) == 0)
            probed.wouldTrain(pc, !taken);
        probed.update(pc, taken);
        plain.update(pc, taken);
        if (i % 5'000 == 4'999) {
            StateWriter a;
            StateWriter b;
            probed.saveState(a);
            plain.saveState(b);
            ASSERT_EQ(a.bytes(), b.bytes()) << "step " << i;
        }
    }
}

TEST(PerceptronTest, ConfigValidationAndTheta)
{
    PerceptronConfig non_pow2 = PerceptronConfig::makeSmall();
    non_pow2.numRows = 100;
    EXPECT_THROW(PerceptronPredictor{non_pow2}, std::runtime_error);

    PerceptronConfig deep = PerceptronConfig::makeSmall();
    deep.historyBits = 65;
    EXPECT_THROW(PerceptronPredictor{deep}, std::runtime_error);

    // Jimenez's tuned threshold: floor(1.93 h + 14).
    EXPECT_EQ(PerceptronConfig::makeSmall().theta(),
              static_cast<std::int64_t>(1.93 * 12 + 14.0));
    EXPECT_EQ(PerceptronConfig::makeDefault().theta(),
              static_cast<std::int64_t>(1.93 * 24 + 14.0));
}

TEST(PerceptronTest, PredictionIsSignOfMargin)
{
    PerceptronPredictor pred(PerceptronConfig::makeSmall());
    Xorshift rng(0x9EC50001u);
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ASSERT_EQ(pred.predict(pc), pred.marginOf(pc) >= 0)
            << "step " << i;
        pred.update(pc, taken);
    }
}

TEST(PerceptronTest, TrainsIffMispredictOrMarginWithinTheta)
{
    const PerceptronConfig config = PerceptronConfig::makeSmall();
    PerceptronPredictor pred(config);
    const auto weight_max =
        static_cast<std::int32_t>((1 << (config.weightBits - 1)) - 1);
    const std::int32_t weight_min = -weight_max - 1;

    Xorshift rng(0x9EC50002u);
    int trained = 0;
    int skipped = 0;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;

        const std::int64_t margin = pred.marginOf(pc);
        const bool mispredict = (margin >= 0) != taken;
        const bool should_train =
            mispredict || std::llabs(margin) <= pred.theta();
        ASSERT_EQ(pred.wouldTrain(pc, taken), should_train)
            << "step " << i;

        const std::uint64_t row = pred.rowOf(pc);
        const std::uint64_t history = pred.historyValue();
        std::vector<std::int32_t> before;
        for (unsigned w = 0; w <= config.historyBits; ++w)
            before.push_back(pred.weightAt(row, w));

        pred.update(pc, taken);

        for (unsigned w = 0; w <= config.historyBits; ++w) {
            std::int32_t expected = before[w];
            if (should_train) {
                // Bias trains on the outcome itself; weight i trains
                // on agreement between history bit i and the outcome.
                const bool agree =
                    w == 0 ? taken
                           : (((history >> (w - 1)) & 1) != 0) == taken;
                expected += agree ? 1 : -1;
                if (expected > weight_max)
                    expected = weight_max;
                if (expected < weight_min)
                    expected = weight_min;
            }
            ASSERT_EQ(pred.weightAt(row, w), expected)
                << "weight " << w << " at step " << i
                << (should_train ? " (trained)" : " (frozen)");
        }
        (should_train ? trained : skipped) += 1;
    }
    EXPECT_GT(trained, 1000);
    EXPECT_GT(skipped, 1000)
        << "stream never exercised the confident-skip path";
}

TEST(PerceptronTest, WeightsStayClampedUnderConstantOutcome)
{
    const PerceptronConfig config = PerceptronConfig::makeSmall();
    PerceptronPredictor pred(config);
    const auto weight_max =
        static_cast<std::int32_t>((1 << (config.weightBits - 1)) - 1);
    const std::int32_t weight_min = -weight_max - 1;

    // A single always-taken branch drives its bias to saturation.
    for (int i = 0; i < 4 * weight_max; ++i)
        pred.update(0x40, true);
    const std::uint64_t row = pred.rowOf(0x40);
    for (unsigned w = 0; w <= config.historyBits; ++w) {
        ASSERT_LE(pred.weightAt(row, w), weight_max);
        ASSERT_GE(pred.weightAt(row, w), weight_min);
    }
    EXPECT_TRUE(pred.predict(0x40));
    EXPECT_GT(pred.marginOf(0x40), pred.theta())
        << "saturated weights should clear the training threshold";
}

TEST(PerceptronTest, LoadStateRejectsMismatchedGeometry)
{
    PerceptronPredictor small(PerceptronConfig::makeSmall());
    StateWriter out;
    small.saveState(out);

    PerceptronPredictor large(PerceptronConfig::makeDefault());
    StateReader in(out.bytes());
    EXPECT_THROW(large.loadState(in), std::runtime_error);
}

TEST(PerceptronTest, LoadStateRejectsOutOfRangeWeight)
{
    PerceptronPredictor pred(PerceptronConfig::makeSmall());
    StateWriter out;
    pred.saveState(out);
    std::vector<std::uint8_t> bytes = out.bytes();
    // The first weight follows the u64 weight count; make it 2^31 - 1.
    bytes[8] = 0xFF;
    bytes[9] = 0xFF;
    bytes[10] = 0xFF;
    bytes[11] = 0x7F;
    StateReader in(bytes);
    try {
        pred.loadState(in);
        FAIL() << "an out-of-range weight was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint);
    }
}

TEST(PerceptronMarginConfidenceTest, BucketIsMonotoneInMargin)
{
    const PerceptronConfig config = PerceptronConfig::makeSmall();
    PerceptronMarginConfidence conf(config, 8);
    EXPECT_EQ(conf.numBuckets(), 8u);
    EXPECT_TRUE(conf.bucketsAreOrdered());

    const std::int64_t theta = config.theta();
    std::uint64_t prev = 0;
    for (std::int64_t m = 0; m <= theta + 16; ++m) {
        const std::uint64_t bucket = conf.bucketForMargin(m);
        ASSERT_GE(bucket, prev) << "bucket fell at |margin| = " << m;
        ASSERT_LT(bucket, conf.numBuckets());
        // Sign never matters: confidence is the magnitude.
        ASSERT_EQ(conf.bucketForMargin(-m), bucket);
        prev = bucket;
    }
    EXPECT_EQ(conf.bucketForMargin(0), 0u);
    EXPECT_EQ(conf.bucketForMargin(theta + 1), conf.numBuckets() - 1);
    EXPECT_EQ(prev, conf.numBuckets() - 1)
        << "the top bucket is unreachable";
}

TEST(PerceptronMarginConfidenceTest, RejectsDegenerateLevelCount)
{
    EXPECT_THROW(
        PerceptronMarginConfidence(PerceptronConfig::makeSmall(), 1),
        std::runtime_error);
}

TEST(PerceptronMarginConfidenceTest, ShadowTracksMainPredictorBitExactly)
{
    PerceptronPredictor main(PerceptronConfig::makeSmall());
    PerceptronMarginConfidence conf(PerceptronConfig::makeSmall(), 8);

    Xorshift rng(0x9EC50003u);
    BranchContext ctx;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ctx.pc = pc;

        const std::int64_t margin = main.marginOf(pc);
        ASSERT_EQ(conf.shadowMargin(ctx), margin) << "step " << i;
        ASSERT_EQ(conf.bucketOf(ctx), conf.bucketForMargin(margin))
            << "step " << i;

        const bool correct = main.predict(pc) == taken;
        conf.update(ctx, correct, taken);
        main.update(pc, taken);
    }
}

TEST(PerceptronMarginConfidenceTest, PairedReadsMatchUnpaired)
{
    PerceptronPredictor main(PerceptronConfig::makeSmall());
    PerceptronMarginConfidence paired(PerceptronConfig::makeSmall(), 8);
    PerceptronMarginConfidence unpaired(PerceptronConfig::makeSmall(), 8);
    paired.pairWith(main);
    ASSERT_TRUE(paired.paired());
    ASSERT_FALSE(unpaired.paired());

    Xorshift rng(0x9EC50012u);
    BranchContext ctx;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        ctx.pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        const bool correct = main.predict(ctx.pc) == taken;
        ASSERT_EQ(paired.bucketOf(ctx), unpaired.bucketOf(ctx))
            << "step " << i;

        StateWriter before;
        main.saveState(before);
        paired.update(ctx, correct, taken);
        if (i % 10'000 == 0)
            paired.reset();
        StateWriter after;
        main.saveState(after);
        ASSERT_EQ(before.bytes(), after.bytes())
            << "the paired estimator wrote to its predictor at step " << i;

        unpaired.update(ctx, correct, taken);
        main.update(ctx.pc, taken);
    }
    StateWriter a;
    StateWriter b;
    paired.saveState(a);
    unpaired.saveState(b);
    EXPECT_EQ(a.bytes(), b.bytes());
    EXPECT_EQ(paired.storageBits(), unpaired.storageBits());
}

TEST(PerceptronMarginConfidenceTest, PairWithRejectsAnotherFamilyOrGeometry)
{
    const auto expectConfigError = [](const BranchPredictor &predictor) {
        PerceptronMarginConfidence conf(PerceptronConfig::makeSmall(), 8);
        try {
            conf.pairWith(predictor);
            ADD_FAILURE() << "paired with " << predictor.name();
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kConfig);
        }
        EXPECT_FALSE(conf.paired());
    };
    expectConfigError(TagePredictor(TageConfig::makeSmall()));
    expectConfigError(PerceptronPredictor(PerceptronConfig::makeDefault()));
    PerceptronConfig narrow = PerceptronConfig::makeSmall();
    narrow.weightBits = 6;
    expectConfigError(PerceptronPredictor(narrow));
}

TEST(PerceptronMarginConfidenceTest, PairedLoadStateChecksThePredictorBytes)
{
    PerceptronPredictor main(PerceptronConfig::makeSmall());
    PerceptronMarginConfidence conf(PerceptronConfig::makeSmall(), 8);
    conf.pairWith(main);
    Xorshift rng(0x9EC50013u);
    for (int i = 0; i < 5'000; ++i) {
        const std::uint64_t r = rng.next();
        main.update(((r >> 8) & 0xFF) * 4, (r & 1) != 0);
    }
    StateWriter out;
    conf.saveState(out);
    {
        StateReader in(out.bytes());
        conf.loadState(in);
        EXPECT_TRUE(in.atEnd());
    }
    std::vector<std::uint8_t> corrupt = out.bytes();
    corrupt[corrupt.size() / 3] ^= 0x80;
    StateReader in(corrupt);
    try {
        conf.loadState(in);
        FAIL() << "a corrupt estimator part was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint);
    }
}

} // namespace
} // namespace confsim
