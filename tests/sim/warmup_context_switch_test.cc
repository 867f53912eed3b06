/**
 * @file
 * Regression tests pinning how `warmupBranches` exclusion and
 * `contextSwitchInterval` flushes compose in the driver.
 *
 * The documented order (sim/driver.h):
 *
 *  - The warmup window is an exclusion on STATISTICS only: branches
 *    [0, warmupBranches) train every structure but are not counted in
 *    branches/mispredicts/bucket stats/static profile.
 *  - The context-switch interval counts EVERY simulated conditional
 *    branch, warmup included — the OS does not pause the scheduler
 *    while a predictor warms up.
 *  - A switch fires AFTER the triggering branch has fully trained
 *    (predictor, estimators, BHR, GCIR), flushes per the flags, and
 *    never clears accumulated statistics.
 *
 * Each test replays the same trace through a hand-rolled reference
 * loop that encodes exactly this order, then asserts the driver
 * matches bit-for-bit across W<S, W=S, W>S, and S=1 compositions. A
 * discrepancy here means the driver's loop order drifted from the
 * documentation.
 *
 * A native estimator paired with its predictor has no state of its
 * own, so it is flushed with the predictor: under the split flush
 * flags its buckets must match a hand loop that reads the live
 * predictor, whatever flushEstimatorsOnSwitch says.
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
#include "sim/driver.h"
#include "util/shift_register.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 12'000;

std::unique_ptr<TraceSource>
freshSource()
{
    return BenchmarkSuite::ibsSmall(kBranches).makeGenerator(0);
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
referenceRun(TraceSource &source, const DriverOptions &options)
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

        // Warmup is a statistics exclusion only: the window is the
        // first warmupBranches SIMULATED branches, [0, W).
        const bool recording = simulated >= options.warmupBranches;
        if (recording) {
            ++result.branches;
            if (!correct)
                ++result.mispredicts;
            result.stats.record(estimator.bucketOf(ctx), !correct);
            result.profile.record(record.pc, !correct, record.taken);
        } else {
            // Not recorded — but the estimator still reads its bucket
            // (the driver queries unconditionally) and still trains.
            estimator.bucketOf(ctx);
        }
        estimator.update(ctx, correct, record.taken);
        predictor.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!correct);
        ++simulated;

        // The switch clock ticks on every simulated branch — warmup
        // included — and fires after the branch finished training.
        if (options.contextSwitchInterval != 0 &&
            ++since_switch == options.contextSwitchInterval) {
            since_switch = 0;
            if (options.flushPredictorOnSwitch)
                predictor.reset();
            if (options.flushEstimatorsOnSwitch)
                estimator.reset();
            bhr.reset();
            gcir.clear();
            ++result.contextSwitches;
        }
    }
    return result;
}

DriverResult
driverRun(TraceSource &source, const DriverOptions &options)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 1024,
                                        CounterKind::Resetting, 16, 0);
    SimulationDriver driver(predictor, {&estimator}, options);
    return driver.run(source);
}

void
expectSameAsReference(const DriverOptions &options,
                      const std::string &context)
{
    SCOPED_TRACE(context);
    auto reference_source = freshSource();
    const ReferenceResult expected =
        referenceRun(*reference_source, options);
    auto driver_source = freshSource();
    const DriverResult actual = driverRun(*driver_source, options);

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
        options.warmupBranches = combo.warmup;
        options.contextSwitchInterval = combo.interval;
        expectSameAsReference(options, combo.label);
    }
}

TEST(WarmupContextSwitch, FlushFlagsComposeWithWarmup)
{
    const bool flags[][2] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    for (const auto &flag : flags) {
        DriverOptions options;
        options.warmupBranches = 2'000;
        options.contextSwitchInterval = 900;
        options.flushPredictorOnSwitch = flag[0];
        options.flushEstimatorsOnSwitch = flag[1];
        expectSameAsReference(
            options, std::string("flushPredictor=") +
                         (flag[0] ? "1" : "0") + " flushEstimators=" +
                         (flag[1] ? "1" : "0"));
    }
}

TEST(WarmupContextSwitch, SwitchClockTicksThroughWarmup)
{
    // With W > S the first switches happen INSIDE the warmup window:
    // the interval counts warmup branches too. floor(N / S) switches
    // total, independent of W.
    DriverOptions options;
    options.warmupBranches = 6'000;
    options.contextSwitchInterval = 1'000;
    auto source = freshSource();
    const DriverResult result = driverRun(*source, options);

    const std::uint64_t simulated =
        result.branches + options.warmupBranches;
    EXPECT_EQ(result.contextSwitches,
              simulated / options.contextSwitchInterval);
    // And warmup excluded exactly W branches from the counters.
    auto full_source = freshSource();
    DriverOptions no_warmup = options;
    no_warmup.warmupBranches = 0;
    const DriverResult full = driverRun(*full_source, no_warmup);
    EXPECT_EQ(full.branches,
              result.branches + options.warmupBranches);
    EXPECT_EQ(full.contextSwitches, result.contextSwitches);
}

/**
 * TAGE with its provider confidence, bucket read straight from the
 * live predictor: only flushPredictorOnSwitch can touch what it reads.
 */
ReferenceResult
nativeReferenceRun(TraceSource &source, const DriverOptions &options)
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
        if (simulated >= options.warmupBranches) {
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
            if (options.flushPredictorOnSwitch)
                predictor.reset();
            ++result.contextSwitches;
        }
    }
    return result;
}

TEST(WarmupContextSwitch, PairedNativeEstimatorFlushesWithItsPredictor)
{
    const bool flags[][2] = {
        {true, true}, {true, false}, {false, true}, {false, false}};
    for (const auto &flag : flags) {
        SCOPED_TRACE(std::string("flushPredictor=") + (flag[0] ? "1" : "0") +
                     " flushEstimators=" + (flag[1] ? "1" : "0"));
        DriverOptions options;
        options.warmupBranches = 2'000;
        options.contextSwitchInterval = 900;
        options.flushPredictorOnSwitch = flag[0];
        options.flushEstimatorsOnSwitch = flag[1];

        auto reference_source = freshSource();
        const ReferenceResult expected =
            nativeReferenceRun(*reference_source, options);

        TagePredictor predictor(TageConfig::makeSmall());
        TageProviderConfidence estimator(TageConfig::makeSmall());
        SimulationDriver driver(predictor, {&estimator}, options);
        auto driver_source = freshSource();
        const DriverResult actual = driver.run(*driver_source);
        EXPECT_TRUE(estimator.paired());

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
    }
}

} // namespace
} // namespace confsim
