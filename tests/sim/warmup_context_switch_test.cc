/**
 * @file
 * Regression tests pinning how a recording plan's warm-only window
 * and `contextSwitchInterval` flushes compose in the replay engine.
 *
 * The documented order (sim/driver_options.h, sim/sweep_engine.h):
 *
 *  - A kWarmOnly region is an exclusion on STATISTICS only: its
 *    branches train every structure but are not counted in
 *    branches/mispredicts/bucket stats/static profile.
 *  - The context-switch interval counts EVERY simulated conditional
 *    branch, warm-only ones included — the OS does not pause the
 *    scheduler while a predictor warms up.
 *  - A switch fires AFTER the triggering branch has fully trained
 *    (predictor, estimators, BHR, GCIR), flushes all of them, and
 *    never clears accumulated statistics.
 *
 * Each test replays the same trace through a hand-rolled reference
 * loop that encodes exactly this order, then asserts the engine
 * matches bit-for-bit across W<S, W=S, W>S, and S=1 compositions,
 * where W is the warm-only window and S the switch interval. A
 * discrepancy here means the engine's loop order drifted from the
 * documentation.
 *
 * A native estimator paired with its predictor has no state of its
 * own, so it restarts with the predictor: its buckets must match a
 * hand loop that reads the live predictor.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "confidence/tage_confidence.h"
#include "predictor/gshare.h"
#include "predictor/tage.h"
#include "predictor/history_register.h"
#include "sim/sweep_engine.h"
#include "util/shift_register.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 12'000;

/** Warm-only windows are whole regions of this many branches. */
constexpr std::uint64_t kRegionBranches = 500;

std::unique_ptr<TraceSource>
freshSource()
{
    return BenchmarkSuite::ibsSmall(kBranches).makeGenerator(0);
}

/**
 * A plan that trains without recording on the first @p warm branches
 * (a multiple of kRegionBranches) and records every branch after them.
 */
SweepRecordingPlan
warmThenRecord(std::uint64_t warm)
{
    SweepRecordingPlan plan;
    plan.regionBranches = kRegionBranches;
    plan.numSlots = 1;
    plan.regionSlots.assign(kBranches / kRegionBranches + 1, 0);
    for (std::uint64_t r = 0; r < warm / kRegionBranches; ++r)
        plan.regionSlots[r] = SweepRecordingPlan::kWarmOnly;
    return plan;
}

/**
 * Replay @p source through @p predictor and @p estimator in a
 * one-configuration engine that warms without recording on the first
 * @p warm branches.
 */
SweepConfigResult
engineRun(TraceSource &source, BranchPredictor &predictor,
          ConfidenceEstimator &estimator, const DriverOptions &options,
          std::uint64_t warm)
{
    const SweepRecordingPlan plan = warmThenRecord(warm);
    SweepOptions sweep;
    sweep.recordingPlan = &plan;
    SweepEngine engine(predictor, {&estimator}, options, sweep);
    return std::move(engine.run(source).perConfig.front());
}

struct ReferenceResult
{
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    std::uint64_t contextSwitches = 0;
    BucketStats stats;
    StaticBranchProfile profile;

    explicit ReferenceResult(std::uint64_t buckets) : stats(buckets) {}
};

/** The documented composition order, spelled out independently. */
ReferenceResult
referenceRun(TraceSource &source, const DriverOptions &options,
             std::uint64_t warm)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 1024,
                                        CounterKind::Resetting, 16, 0);
    ReferenceResult result(estimator.numBuckets());

    HistoryRegister bhr(options.bhrBits);
    ShiftRegister gcir(options.gcirBits, 0);
    BranchContext ctx;
    ctx.bhrBits = options.bhrBits;
    ctx.gcirBits = options.gcirBits;

    std::uint64_t simulated = 0;
    std::uint64_t since_switch = 0;
    BranchRecord record;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;

        ctx.pc = record.pc;
        ctx.bhr = bhr.value();
        ctx.gcir = gcir.value();
        const bool correct =
            predictor.predict(record.pc) == record.taken;

        // The warm-only window is a statistics exclusion only: it is
        // the first W SIMULATED branches, [0, W).
        const bool recording = simulated >= warm;
        if (recording) {
            ++result.branches;
            if (!correct)
                ++result.mispredicts;
            result.stats.record(estimator.bucketOf(ctx), !correct);
            result.profile.record(record.pc, !correct, record.taken);
        } else {
            // Not recorded — but the estimator still reads its bucket
            // (the engine queries unconditionally) and still trains.
            estimator.bucketOf(ctx);
        }
        estimator.update(ctx, correct, record.taken);
        predictor.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!correct);
        ++simulated;

        // The switch clock ticks on every simulated branch — warm-only
        // ones included — and fires after the branch finished training.
        if (options.contextSwitchInterval != 0 &&
            ++since_switch == options.contextSwitchInterval) {
            since_switch = 0;
            predictor.reset();
            estimator.reset();
            bhr.reset();
            gcir.clear();
            ++result.contextSwitches;
        }
    }
    return result;
}

SweepConfigResult
gshareRun(TraceSource &source, const DriverOptions &options,
          std::uint64_t warm)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 1024,
                                        CounterKind::Resetting, 16, 0);
    return engineRun(source, predictor, estimator, options, warm);
}

void
expectSameAsReference(const DriverOptions &options, std::uint64_t warm,
                      const std::string &context)
{
    SCOPED_TRACE(context);
    auto reference_source = freshSource();
    const ReferenceResult expected =
        referenceRun(*reference_source, options, warm);
    auto engine_source = freshSource();
    const SweepConfigResult actual =
        gshareRun(*engine_source, options, warm);

    EXPECT_EQ(expected.branches, actual.branches);
    EXPECT_EQ(expected.mispredicts, actual.mispredicts);
    EXPECT_EQ(expected.contextSwitches, actual.contextSwitches);
    ASSERT_EQ(actual.estimatorStats.size(), 1u);
    ASSERT_EQ(expected.stats.numBuckets(),
              actual.estimatorStats[0].numBuckets());
    for (std::uint64_t b = 0; b < expected.stats.numBuckets(); ++b) {
        EXPECT_EQ(expected.stats[b].refs,
                  actual.estimatorStats[0][b].refs)
            << "bucket " << b;
        EXPECT_EQ(expected.stats[b].mispredicts,
                  actual.estimatorStats[0][b].mispredicts)
            << "bucket " << b;
    }
    if (options.profileStatic) {
        ASSERT_EQ(expected.profile.size(),
                  actual.staticProfile.size());
        for (const auto &[pc, entry] : expected.profile.entries()) {
            const auto it = actual.staticProfile.entries().find(pc);
            ASSERT_NE(it, actual.staticProfile.entries().end());
            EXPECT_EQ(entry.executions, it->second.executions);
            EXPECT_EQ(entry.mispredictions,
                      it->second.mispredictions);
        }
    }
}

TEST(WarmupContextSwitch, ComposeInDocumentedOrder)
{
    struct Combo
    {
        std::uint64_t warmup;
        std::uint64_t interval;
        const char *label;
    };
    const Combo combos[] = {
        {1'000, 3'000, "W<S"},     {2'500, 2'500, "W=S"},
        {5'000, 1'500, "W>S"},     {1'000, 1, "S=1"},
        {0, 2'000, "no warmup"},   {3'000, 0, "no switches"},
    };
    for (const Combo &combo : combos) {
        DriverOptions options;
        options.profileStatic = true;
        options.contextSwitchInterval = combo.interval;
        expectSameAsReference(options, combo.warmup, combo.label);
    }
}

TEST(WarmupContextSwitch, SwitchClockTicksThroughWarmup)
{
    // With W > S the first switches happen INSIDE the warm-only
    // window: the interval counts its branches too. floor(N / S)
    // switches total, independent of W.
    constexpr std::uint64_t kWarm = 6'000;
    DriverOptions options;
    options.contextSwitchInterval = 1'000;
    auto source = freshSource();
    const SweepConfigResult result = gshareRun(*source, options, kWarm);

    const std::uint64_t simulated = result.branches + kWarm;
    EXPECT_EQ(result.contextSwitches,
              simulated / options.contextSwitchInterval);
    // And the window excluded exactly W branches from the counters.
    auto full_source = freshSource();
    const SweepConfigResult full = gshareRun(*full_source, options, 0);
    EXPECT_EQ(full.branches, result.branches + kWarm);
    EXPECT_EQ(full.contextSwitches, result.contextSwitches);
}

/**
 * TAGE with its provider confidence, bucket read straight from the
 * live predictor: only the predictor's flush touches what it reads.
 */
ReferenceResult
nativeReferenceRun(TraceSource &source, const DriverOptions &options,
                   std::uint64_t warm)
{
    TagePredictor predictor(TageConfig::makeSmall());
    ReferenceResult result(2 * predictor.strengthLevels());
    std::uint64_t simulated = 0;
    std::uint64_t since_switch = 0;
    BranchRecord record;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;
        const TagePrediction detail = predictor.predictDetail(record.pc);
        const bool correct = detail.taken == record.taken;
        if (simulated >= warm) {
            ++result.branches;
            if (!correct)
                ++result.mispredicts;
            const bool agree = detail.providerTaken == detail.altTaken;
            result.stats.record(2 * detail.providerStrength + (agree ? 1 : 0),
                                !correct);
        }
        predictor.update(record.pc, record.taken);
        ++simulated;
        if (options.contextSwitchInterval != 0 &&
            ++since_switch == options.contextSwitchInterval) {
            since_switch = 0;
            predictor.reset();
            ++result.contextSwitches;
        }
    }
    return result;
}

TEST(WarmupContextSwitch, PairedNativeEstimatorFlushesWithItsPredictor)
{
    constexpr std::uint64_t kWarm = 2'000;
    DriverOptions options;
    options.contextSwitchInterval = 900;

    auto reference_source = freshSource();
    const ReferenceResult expected =
        nativeReferenceRun(*reference_source, options, kWarm);

    TagePredictor predictor(TageConfig::makeSmall());
    TageProviderConfidence estimator(TageConfig::makeSmall());
    auto engine_source = freshSource();
    const SweepConfigResult actual =
        engineRun(*engine_source, predictor, estimator, options, kWarm);
    EXPECT_TRUE(estimator.paired());

    EXPECT_EQ(expected.branches, actual.branches);
    EXPECT_EQ(expected.mispredicts, actual.mispredicts);
    EXPECT_EQ(expected.contextSwitches, actual.contextSwitches);
    ASSERT_EQ(actual.estimatorStats.size(), 1u);
    ASSERT_EQ(expected.stats.numBuckets(),
              actual.estimatorStats[0].numBuckets());
    for (std::uint64_t b = 0; b < expected.stats.numBuckets(); ++b) {
        EXPECT_EQ(expected.stats[b].refs, actual.estimatorStats[0][b].refs)
            << "bucket " << b;
        EXPECT_EQ(expected.stats[b].mispredicts,
                  actual.estimatorStats[0][b].mispredicts)
            << "bucket " << b;
    }
}

} // namespace
} // namespace confsim
