/** @file Unit tests for the branch prediction reverser. */

#include "apps/reverser.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "predictor/static_predictor.h"
#include "trace/vector_trace_source.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

TEST(ReverserTest, ReversesPersistentlyWrongBucket)
{
    // Always-taken predictor on an always-not-taken branch: the
    // resetting counter pins at 0 with a 100% misprediction rate, so
    // bucket 0 enters the reversal set and pass 2 fixes every miss
    // after warmup.
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 4, 0);
    VectorTraceSource source(std::vector<BranchRecord>(
        500, {0x1000, 0x2000, false, BranchType::Conditional}));
    const auto result = runReverser(source, pred, est, 0.5, 10.0);
    EXPECT_EQ(result.branches, 500u);
    EXPECT_EQ(result.baseMispredicts, 500u);
    ASSERT_FALSE(result.reversalBuckets.empty());
    EXPECT_EQ(result.reversalBuckets[0], 0u);
    EXPECT_EQ(result.reversedMispredicts, 0u);
    EXPECT_EQ(result.reversals, 500u);
}

TEST(ReverserTest, NoBucketAboveThresholdMeansNoChange)
{
    // Always-taken predictor on an always-taken branch: zero misses,
    // no bucket qualifies, pass 2 must be bit-identical to pass 1.
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 4, 0);
    VectorTraceSource source(std::vector<BranchRecord>(
        200, {0x1000, 0x2000, true, BranchType::Conditional}));
    const auto result = runReverser(source, pred, est);
    EXPECT_TRUE(result.reversalBuckets.empty());
    EXPECT_EQ(result.reversals, 0u);
    EXPECT_EQ(result.baseMispredicts, result.reversedMispredicts);
}

TEST(ReverserTest, MinRefsGuardSuppressesNoisyBuckets)
{
    // A single mispredicted execution would give a 100% rate but with
    // refs below the guard the bucket must not be reversed.
    StaticPredictor pred(StaticPolicy::AlwaysTaken);
    OneLevelCounterConfidence est(IndexScheme::Pc, 64,
                                  CounterKind::Resetting, 4, 0);
    std::vector<BranchRecord> records(
        50, {0x1000, 0x2000, true, BranchType::Conditional});
    records.push_back({0x2000, 0x3000, false,
                       BranchType::Conditional});
    VectorTraceSource source(records);
    const auto result = runReverser(source, pred, est, 0.5, 100.0);
    EXPECT_TRUE(result.reversalBuckets.empty());
}

TEST(ReverserTest, PaperFindingStrongPredictorHasNoReversibleBucket)
{
    // With the paper's resetting-counter estimator over a gshare
    // predictor, even the least-confident bucket stays under 50%
    // mispredicted (Table 1 row 0: 37.6%), so the reverser finds
    // nothing to do. Our synthetic suite reproduces that conclusion.
    WorkloadGenerator gen(ibsProfile("groff"), 200000);
    GsharePredictor pred(4096, 12);
    OneLevelCounterConfidence est(IndexScheme::PcXorBhr, 4096,
                                  CounterKind::Resetting, 16, 0);
    const auto result = runReverser(gen, pred, est, 0.5, 500.0);
    EXPECT_TRUE(result.reversalBuckets.empty());
    EXPECT_EQ(result.baseMispredicts, result.reversedMispredicts);
}

TEST(ReverserTest, PassesAreDeterministicallyIdentical)
{
    // Pass 2 without any reversal must reproduce pass 1's miss count
    // exactly (the training paths are identical).
    WorkloadGenerator gen(ibsProfile("jpeg"), 50000);
    GsharePredictor pred(4096, 12);
    OneLevelCounterConfidence est(IndexScheme::PcXorBhr, 4096,
                                  CounterKind::Resetting, 16, 0);
    // Threshold 1.01 is unreachable: reversal set provably empty.
    const auto result = runReverser(gen, pred, est, 1.01, 1.0);
    EXPECT_EQ(result.baseMispredicts, result.reversedMispredicts);
}

TEST(ReverserTest, WeakPredictorReversesSomeBucketsButNotAll)
{
    // A 1K bimodal predictor under raw CIR patterns: a few fine-grained
    // contexts mispredict more often than not and get reversed, most do
    // not. The counts are pinned so the reversal arithmetic cannot
    // drift.
    WorkloadGenerator gen(ibsProfile("groff"), 100000);
    BimodalPredictor pred(1024);
    OneLevelCirConfidence est(IndexScheme::PcXorBhr, 4096, 12,
                              CirReduction::RawPattern, CtInit::Ones);
    const auto result = runReverser(gen, pred, est, 0.5, 200.0);
    EXPECT_EQ(result.branches, 100000u);
    EXPECT_EQ(result.baseMispredicts, 19001u);
    EXPECT_EQ(result.reversedMispredicts, 15395u);
    EXPECT_EQ(result.reversals, 10448u);
    EXPECT_EQ(result.reversalBuckets.size(), 3u);
    EXPECT_LT(result.reversalBuckets.size(), est.numBuckets());
    EXPECT_LT(result.reversedMispredicts, result.baseMispredicts);
}

} // namespace
} // namespace confsim
