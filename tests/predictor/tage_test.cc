/**
 * @file
 * Property tests for the TAGE predictor and its provider-confidence
 * estimator. The white-box invariants here are the ones the paper-wall
 * relies on: useful counters move only on provider-vs-alternate
 * disagreement outcomes, periodic aging halves every useful counter,
 * allocation on a mispredict claims the first u == 0 candidate (or
 * decays all candidates when none is free), and the unpaired
 * TageProviderConfidence (driving its private TAGE) stays
 * bit-identical to a main predictor fed the same outcome stream.
 *
 * The speed paths are pinned against their direct definitions: the
 * folded-history registers behind indexOf()/tagOf() against
 * xorFold(history & mask(length), width) across reset(), loadState()
 * and aging; the memoized lookup against update() alone; and the
 * paired estimator's reading against the unpaired one.
 */

#include "predictor/tage.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/state_io.h"
#include "confidence/tage_confidence.h"
#include "predictor/gshare.h"
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

/** makeSmall with aging disabled so u deltas are fully attributable. */
TageConfig
noAgingConfig()
{
    TageConfig config = TageConfig::makeSmall();
    config.agingPeriod = 0;
    return config;
}

/** Geometries that exercise every fold width corner: the reference
 *  ones, a 64-bit history, 2-bit tags, and a one-entry table whose
 *  index has no bits at all. */
std::vector<TageConfig>
foldGeometries()
{
    TageConfig wide = TageConfig::makeSmall();
    wide.taggedEntries = std::size_t{1} << 5;
    wide.tagBits = 2;
    wide.historyLengths = {1, 5, 7, 33, 64};
    wide.agingPeriod = 1000;
    TageConfig single = TageConfig::makeSmall();
    single.taggedEntries = 1;
    single.tagBits = 16;
    single.historyLengths = {3, 16, 17};
    single.agingPeriod = 777;
    TageConfig small = TageConfig::makeSmall();
    small.agingPeriod = 1500;
    TageConfig large = TageConfig::makeDefault();
    large.agingPeriod = 2048;
    return {small, large, wide, single};
}

/** The index hash straight from its definition. */
std::uint64_t
directIndex(const TagePredictor &pred, std::size_t table, std::uint64_t pc)
{
    const unsigned bits = log2Exact(pred.config().taggedEntries);
    const std::uint64_t hist =
        pred.historyValue() & mask(pred.config().historyLengths[table]);
    return (xorFold(pc >> 2, bits) ^ xorFold((pc >> 2) >> (table + 1), bits) ^
            xorFold(hist, bits)) &
           mask(bits);
}

/** The double-folded tag hash straight from its definition. */
std::uint16_t
directTag(const TagePredictor &pred, std::size_t table, std::uint64_t pc)
{
    const unsigned bits = pred.config().tagBits;
    const std::uint64_t hist =
        pred.historyValue() & mask(pred.config().historyLengths[table]);
    return static_cast<std::uint16_t>(
        (xorFold(pc >> 2, bits) ^ xorFold(hist, bits) ^
         (xorFold(hist, bits - 1) << 1)) &
        mask(bits));
}

/** Check every table's hashes, and the provider/alt the memoized
 *  lookup found, against the direct definitions. */
void
expectHashesMatchFormula(const TagePredictor &pred, std::uint64_t pc,
                         int step)
{
    int provider = -1;
    int alt = -1;
    for (std::size_t t = pred.numTables(); t-- > 0;) {
        const std::uint64_t index = directIndex(pred, t, pc);
        const std::uint16_t tag = directTag(pred, t, pc);
        ASSERT_EQ(pred.indexOf(t, pc), index)
            << "table " << t << " step " << step;
        ASSERT_EQ(pred.tagOf(t, pc), tag) << "table " << t << " step " << step;
        if (pred.entryAt(t, index).tag == tag) {
            if (provider < 0)
                provider = static_cast<int>(t);
            else if (alt < 0)
                alt = static_cast<int>(t);
        }
    }
    const TagePrediction d = pred.predictDetail(pc);
    ASSERT_EQ(d.providerTable, provider) << "step " << step;
    ASSERT_EQ(d.altTable, alt) << "step " << step;
}

TEST(TageTest, FoldedRegistersMatchDirectFormula)
{
    for (const TageConfig &config : foldGeometries()) {
        TagePredictor pred(config);
        SCOPED_TRACE(pred.name());
        TagePredictor other(config);
        Xorshift rng(0x7A6E0010u);
        std::uint64_t agings = 0;
        for (int i = 0; i < 12'000; ++i) {
            const std::uint64_t r = rng.next();
            const std::uint64_t pc = ((r >> 8) & 0xFFFF) * 4;
            const bool taken = (r & 1) != 0;
            expectHashesMatchFormula(pred, pc, i);
            if (HasFatalFailure())
                return;
            pred.update(pc, taken);
            agings += config.agingPeriod != 0 &&
                      pred.updateCount() % config.agingPeriod == 0;
            other.update(((r >> 24) & 0xFFF) * 4, (r & 2) != 0);

            if (i == 4'000) {
                // Registers rebuilt from a restored history...
                StateWriter out;
                other.saveState(out);
                StateReader in(out.bytes());
                pred.loadState(in);
                ASSERT_EQ(pred.historyValue(), other.historyValue());
            } else if (i == 8'000) {
                // ...and from a cleared one.
                pred.reset();
            }
        }
        EXPECT_GT(agings, 0u) << "the stream never crossed an aging";
    }
}

TEST(TageTest, PredictThenUpdateEqualsUpdateAlone)
{
    for (const TageConfig &config : foldGeometries()) {
        TagePredictor probed(config);
        TagePredictor plain(config);
        SCOPED_TRACE(plain.name());
        Xorshift rng(0x7A6E0011u);
        for (int i = 0; i < 20'000; ++i) {
            const std::uint64_t r = rng.next();
            const std::uint64_t pc = ((r >> 8) & 0x3FF) * 4;
            const bool taken = (r & 1) != 0;
            // Memoize this pc's lookup, sometimes another pc's on top.
            probed.predict(pc);
            if ((r & 0x30) == 0)
                probed.predictDetail(pc + 4);
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
}

TEST(TageTest, ConfigValidation)
{
    TageConfig no_tables = TageConfig::makeSmall();
    no_tables.historyLengths.clear();
    EXPECT_THROW(TagePredictor{no_tables}, std::runtime_error);

    TageConfig non_pow2 = TageConfig::makeSmall();
    non_pow2.taggedEntries = 100;
    EXPECT_THROW(TagePredictor{non_pow2}, std::runtime_error);

    TageConfig wide_tag = TageConfig::makeSmall();
    wide_tag.tagBits = 17;
    EXPECT_THROW(TagePredictor{wide_tag}, std::runtime_error);

    TageConfig non_increasing = TageConfig::makeSmall();
    non_increasing.historyLengths = {4, 4, 18};
    EXPECT_THROW(TagePredictor{non_increasing}, std::runtime_error);

    TageConfig too_deep = TageConfig::makeSmall();
    too_deep.historyLengths = {4, 9, 65};
    EXPECT_THROW(TagePredictor{too_deep}, std::runtime_error);
}

TEST(TageTest, NameAndStorageReflectGeometry)
{
    TagePredictor pred(TageConfig::makeSmall());
    EXPECT_EQ(pred.name(), "tage-3x128-h18");
    EXPECT_EQ(pred.numTables(), 3u);
    // 3-bit counters (values 0..7, midpoint 4) distinguish 4
    // strength levels per direction.
    EXPECT_EQ(pred.strengthLevels(), 4u);
    EXPECT_GT(pred.storageBits(), 0u);
}

TEST(TageTest, UsefulCounterMovesOnlyOnProviderAltDisagreement)
{
    TagePredictor pred(noAgingConfig());
    const std::uint8_t u_max = 3; // 2-bit useful counters

    Xorshift rng(0x7A6E0001u);
    int disagreements = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
        const bool taken = (r & 1) != 0;

        const TagePrediction d = pred.predictDetail(pc);
        if (d.providerTable < 0) {
            pred.update(pc, taken);
            continue;
        }
        const auto table = static_cast<std::size_t>(d.providerTable);
        const std::uint64_t index = pred.indexOf(table, pc);
        const std::uint8_t u_before = pred.entryAt(table, index).u;

        pred.update(pc, taken);
        const std::uint8_t u_after = pred.entryAt(table, index).u;

        if (d.providerTaken == d.altTaken) {
            // Agreement carries no evidence about the provider's worth.
            // Allocation/decay can only touch *longer* tables, so the
            // provider entry's u must be untouched.
            ASSERT_EQ(u_after, u_before)
                << "u moved without provider/alt disagreement at step "
                << i;
        } else {
            ++disagreements;
            const std::uint8_t expected =
                d.providerTaken == taken
                    ? static_cast<std::uint8_t>(
                          u_before < u_max ? u_before + 1 : u_max)
                    : static_cast<std::uint8_t>(
                          u_before > 0 ? u_before - 1 : 0);
            ASSERT_EQ(u_after, expected)
                << "wrong u delta on disagreement at step " << i;
        }
    }
    EXPECT_GT(disagreements, 100)
        << "stream never exercised the disagreement path";
}

TEST(TageTest, PeriodicAgingHalvesUsefulCounters)
{
    TageConfig config = TageConfig::makeSmall();
    config.agingPeriod = 4096;
    TagePredictor pred(config);

    Xorshift rng(0x7A6E0002u);
    // Stop one update short of the aging boundary.
    while (pred.updateCount() < config.agingPeriod - 1) {
        const std::uint64_t r = rng.next();
        pred.update(((r >> 8) & 0x3F) * 4, (r & 1) != 0);
    }

    // The final update may itself move u at the entries it touches
    // (provider entry, allocation candidates at this pc's indices), so
    // check the halving on every entry it cannot reach.
    const std::uint64_t r = rng.next();
    const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
    const bool taken = (r & 1) != 0;
    std::vector<std::vector<std::uint8_t>> before(pred.numTables());
    std::vector<std::uint64_t> touched(pred.numTables());
    std::uint64_t nonzero = 0;
    for (std::size_t t = 0; t < pred.numTables(); ++t) {
        touched[t] = pred.indexOf(t, pc);
        for (std::uint64_t e = 0; e < config.taggedEntries; ++e) {
            before[t].push_back(pred.entryAt(t, e).u);
            if (pred.entryAt(t, e).u != 0)
                ++nonzero;
        }
    }
    ASSERT_GT(nonzero, 0u) << "training left no useful counters set";

    pred.update(pc, taken);
    ASSERT_EQ(pred.updateCount(), config.agingPeriod);
    for (std::size_t t = 0; t < pred.numTables(); ++t) {
        for (std::uint64_t e = 0; e < config.taggedEntries; ++e) {
            if (e == touched[t])
                continue;
            ASSERT_EQ(pred.entryAt(t, e).u,
                      static_cast<std::uint8_t>(before[t][e] >> 1))
                << "table " << t << " entry " << e
                << " was not halved at the aging boundary";
        }
    }
}

TEST(TageTest, MispredictAllocatesFirstFreeCandidateOrDecaysAll)
{
    TagePredictor pred(noAgingConfig());
    const std::uint8_t ctr_mid = 4; // 3-bit counter midpoint

    Xorshift rng(0x7A6E0003u);
    int allocations = 0;
    int decays = 0;
    for (int i = 0; i < 200'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0x3F) * 4;
        const bool taken = (r & 1) != 0;

        const TagePrediction d = pred.predictDetail(pc);
        const auto first =
            static_cast<std::size_t>(d.providerTable + 1);
        const bool mispredicted = d.taken != taken;
        if (!mispredicted || first >= pred.numTables()) {
            pred.update(pc, taken);
            continue;
        }

        struct Candidate
        {
            std::uint64_t index;
            std::uint16_t tag;
            TageEntry before;
        };
        std::vector<Candidate> candidates;
        int victim = -1;
        for (std::size_t t = first; t < pred.numTables(); ++t) {
            Candidate c;
            c.index = pred.indexOf(t, pc);
            c.tag = pred.tagOf(t, pc);
            c.before = pred.entryAt(t, c.index);
            if (victim < 0 && c.before.u == 0)
                victim = static_cast<int>(t - first);
            candidates.push_back(c);
        }

        pred.update(pc, taken);

        for (std::size_t c = 0; c < candidates.size(); ++c) {
            const std::size_t t = first + c;
            const TageEntry after =
                pred.entryAt(t, candidates[c].index);
            if (victim >= 0 &&
                c == static_cast<std::size_t>(victim)) {
                // The first free candidate is claimed, weakly
                // initialized toward the actual outcome.
                ++allocations;
                EXPECT_EQ(after.tag, candidates[c].tag);
                EXPECT_EQ(after.ctr,
                          taken ? ctr_mid
                                : static_cast<std::uint8_t>(ctr_mid -
                                                            1));
                EXPECT_EQ(after.u, 0);
            } else if (victim >= 0) {
                // Everything else is left alone.
                EXPECT_EQ(after.tag, candidates[c].before.tag);
                EXPECT_EQ(after.u, candidates[c].before.u);
            } else {
                // No free slot: every candidate decays instead.
                ++decays;
                EXPECT_EQ(after.tag, candidates[c].before.tag);
                EXPECT_EQ(after.u,
                          static_cast<std::uint8_t>(
                              candidates[c].before.u > 0
                                  ? candidates[c].before.u - 1
                                  : 0));
            }
        }
    }
    EXPECT_GT(allocations, 100) << "stream never allocated";
    EXPECT_GT(decays, 0) << "stream never hit the all-useful decay path";
}

TEST(TageTest, ResetRestoresInitialPredictions)
{
    TagePredictor pred(noAgingConfig());
    TagePredictor fresh(noAgingConfig());
    Xorshift rng(0x7A6E0004u);
    for (int i = 0; i < 20'000; ++i) {
        const std::uint64_t r = rng.next();
        pred.update(((r >> 8) & 0xFF) * 4, (r & 1) != 0);
    }
    pred.reset();
    EXPECT_EQ(pred.updateCount(), 0u);
    EXPECT_EQ(pred.historyValue(), 0u);
    for (std::uint64_t pc = 0; pc < 1024; pc += 4)
        ASSERT_EQ(pred.predict(pc), fresh.predict(pc)) << pc;
}

TEST(TageTest, LoadStateRejectsMismatchedGeometry)
{
    TagePredictor small(TageConfig::makeSmall());
    StateWriter out;
    small.saveState(out);

    TagePredictor large(TageConfig::makeDefault());
    StateReader in(out.bytes());
    EXPECT_THROW(large.loadState(in), std::runtime_error);
}

TEST(TageProviderConfidenceTest, ShadowTracksMainPredictorBitExactly)
{
    // The estimator's whole design premise: fed the same (pc, outcome)
    // stream, the shadow replica reproduces the main predictor's
    // provider state exactly.
    TagePredictor main(TageConfig::makeSmall());
    TageProviderConfidence conf(TageConfig::makeSmall());

    Xorshift rng(0x7A6E0005u);
    BranchContext ctx;
    for (int i = 0; i < 50'000; ++i) {
        const std::uint64_t r = rng.next();
        const std::uint64_t pc = ((r >> 8) & 0xFF) * 4;
        const bool taken = (r & 1) != 0;
        ctx.pc = pc;

        const TagePrediction expect = main.predictDetail(pc);
        const TagePrediction got = conf.shadowDetail(ctx);
        ASSERT_EQ(got.taken, expect.taken) << "step " << i;
        ASSERT_EQ(got.providerTable, expect.providerTable)
            << "step " << i;
        ASSERT_EQ(got.providerStrength, expect.providerStrength)
            << "step " << i;
        ASSERT_EQ(got.altTaken, expect.altTaken) << "step " << i;

        const std::uint64_t bucket = conf.bucketOf(ctx);
        const std::uint64_t want =
            2 * expect.providerStrength +
            (expect.providerTaken == expect.altTaken ? 1 : 0);
        ASSERT_EQ(bucket, want) << "step " << i;
        ASSERT_LT(bucket, conf.numBuckets());

        const bool correct = main.predict(pc) == taken;
        conf.update(ctx, correct, taken);
        main.update(pc, taken);
    }
}

TEST(TageProviderConfidenceTest, PairedReadsMatchUnpaired)
{
    // A paired estimator reads the main predictor; an unpaired one
    // drives its private replica. Same stream, same buckets, same
    // checkpoint bytes — and the paired one never writes to the
    // predictor it reads.
    TagePredictor main(TageConfig::makeSmall());
    TageProviderConfidence paired(TageConfig::makeSmall());
    TageProviderConfidence unpaired(TageConfig::makeSmall());
    paired.pairWith(main);
    ASSERT_TRUE(paired.paired());
    ASSERT_FALSE(unpaired.paired());

    Xorshift rng(0x7A6E0012u);
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
    EXPECT_EQ(paired.numBuckets(), unpaired.numBuckets());
}

TEST(TageProviderConfidenceTest, PairWithRejectsAnotherFamilyOrGeometry)
{
    const auto expectConfigError = [](const BranchPredictor &predictor) {
        TageProviderConfidence conf(TageConfig::makeSmall());
        try {
            conf.pairWith(predictor);
            ADD_FAILURE() << "paired with " << predictor.name();
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kConfig);
        }
        EXPECT_FALSE(conf.paired());
    };
    expectConfigError(GsharePredictor(1024, 10));
    expectConfigError(TagePredictor(TageConfig::makeDefault()));
    TageConfig no_aging = TageConfig::makeSmall();
    no_aging.agingPeriod = 0;
    expectConfigError(TagePredictor(no_aging));
}

TEST(TageProviderConfidenceTest, PairedLoadStateChecksThePredictorBytes)
{
    TagePredictor main(TageConfig::makeSmall());
    TageProviderConfidence conf(TageConfig::makeSmall());
    conf.pairWith(main);
    Xorshift rng(0x7A6E0013u);
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

TEST(TageProviderConfidenceTest, BucketCountAndOrdering)
{
    TageProviderConfidence conf(TageConfig::makeSmall());
    // 4 strength levels x {disagree, agree} corroboration.
    EXPECT_EQ(conf.numBuckets(), 8u);
    EXPECT_TRUE(conf.bucketsAreOrdered());
    EXPECT_EQ(conf.name(), "tage-provider");
    EXPECT_TRUE(conf.checkpointable());
}

} // namespace
} // namespace confsim
