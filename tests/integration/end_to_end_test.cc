/** @file End-to-end integration tests across the whole library. */

#include <cstdio>
#include <string>

#include <unistd.h>

#include <gtest/gtest.h>

#include "confidence/binary_signal.h"
#include "confidence/one_level.h"
#include "metrics/classification_metrics.h"
#include "metrics/confidence_curve.h"
#include "predictor/gshare.h"
#include "predictor/history_register.h"
#include "sim/driver.h"
#include "trace/trace_io.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

TEST(EndToEndTest, GeneratorToFileToDriverMatchesDirectRun)
{
    // Write a synthetic trace to disk, read it back, and verify the
    // simulation result is bit-identical to driving the generator
    // directly.
    const std::string path = ::testing::TempDir() + "/confsim_e2e_" +
                             std::to_string(::getpid()) + ".cbt";
    BenchmarkProfile profile = ibsProfile("mpeg");
    WorkloadGenerator gen(profile, 50000);
    writeTraceFile(gen, path);

    auto run = [](TraceSource &source) {
        GsharePredictor pred(4096, 12);
        OneLevelCounterConfidence est(IndexScheme::PcXorBhr, 4096,
                                      CounterKind::Resetting, 16, 0);
        SimulationDriver driver(pred, {&est});
        return driver.run(source);
    };

    WorkloadGenerator direct(profile, 50000);
    const auto direct_result = run(direct);
    TraceFileReader reader(path);
    const auto file_result = run(reader);

    EXPECT_EQ(direct_result.branches, file_result.branches);
    EXPECT_EQ(direct_result.mispredicts, file_result.mispredicts);
    for (std::uint64_t b = 0;
         b < direct_result.estimatorStats[0].numBuckets(); ++b) {
        ASSERT_DOUBLE_EQ(direct_result.estimatorStats[0][b].refs,
                         file_result.estimatorStats[0][b].refs);
    }
    std::remove(path.c_str());
}

TEST(EndToEndTest, CurveFeedsBinarySignalWithMatchingOperatingPoint)
{
    // Profile a run, pick the 20% operating point from the curve,
    // replay with the induced binary signal, and verify the measured
    // (lowFraction, sensitivity) lands near the curve reading. This
    // closes the loop between the ideal evaluation methodology and an
    // online mechanism.
    BenchmarkProfile profile = ibsProfile("groff");
    const std::uint64_t length = 150000;

    GsharePredictor pred(4096, 12);
    OneLevelCounterConfidence est(IndexScheme::PcXorBhr, 4096,
                                  CounterKind::Resetting, 16, 0);
    WorkloadGenerator gen(profile, length);
    SimulationDriver driver(pred, {&est});
    const auto profile_run = driver.run(gen);

    const auto curve =
        ConfidenceCurve::fromBucketStats(profile_run.estimatorStats[0]);
    const auto mask =
        curve.lowBucketMaskForRefFraction(0.2, est.numBuckets());

    // Replay from scratch with the mask as an online signal.
    GsharePredictor pred2(4096, 12);
    OneLevelCounterConfidence est2(IndexScheme::PcXorBhr, 4096,
                                   CounterKind::Resetting, 16, 0);
    const BinaryConfidenceSignal signal(est2, mask);
    WorkloadGenerator gen2(profile, length);

    ConfusionCounts confusion;
    BranchRecord record;
    BranchContext ctx;
    HistoryRegister bhr(16);
    while (gen2.next(record)) {
        ctx.pc = record.pc;
        ctx.bhr = bhr.value();
        const bool predicted = pred2.predict(record.pc);
        const bool correct = predicted == record.taken;
        const bool low = signal.isLowConfidence(ctx);
        if (low) {
            confusion.lowMispredicted += !correct;
            confusion.lowCorrect += correct;
        } else {
            confusion.highMispredicted += !correct;
            confusion.highCorrect += correct;
        }
        est2.update(ctx, correct, true);
        pred2.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
    }
    const auto metrics = computeMetrics(confusion);
    // The replay is identical to the profiling run, so the measured
    // operating point must match the curve reading closely.
    EXPECT_NEAR(metrics.sensitivity,
                curve.mispredCoverageAt(metrics.lowFraction), 0.02);
    EXPECT_GT(metrics.sensitivity, 0.5);
    EXPECT_GT(metrics.pvn, profile_run.mispredictRate());
}

TEST(EndToEndTest, StorageBudgetsMatchPaperCosts)
{
    // Paper Section 5.3: "the cost of the confidence method is twice
    // the underlying predictor (4-bit resetting counters versus 2-bit
    // saturating counters)" for equal-entry tables.
    GsharePredictor small = GsharePredictor::makeSmallPaperConfig();
    OneLevelCounterConfidence ct(IndexScheme::PcXorBhr, 4096,
                                 CounterKind::Resetting, 15, 0);
    EXPECT_EQ(ct.storageBits(), 2 * (small.storageBits() - 12));
}

} // namespace
} // namespace confsim
