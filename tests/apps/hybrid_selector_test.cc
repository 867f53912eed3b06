/** @file Unit tests for the confidence-driven hybrid selector. */

#include "apps/hybrid_selector.h"

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/bimodal.h"
#include "predictor/gshare.h"
#include "trace/vector_trace_source.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

OneLevelCounterConfidence
makeEstimator(std::size_t entries = 1024)
{
    return OneLevelCounterConfidence(IndexScheme::Pc, entries,
                                     CounterKind::Resetting, 16, 0);
}

TEST(HybridSelectorTest, RequiresOrderedBuckets)
{
    BimodalPredictor p1(256);
    GsharePredictor p2(256, 8);
    OneLevelCounterConfidence c1 = makeEstimator();
    OneLevelCirConfidence raw(IndexScheme::Pc, 256, 8,
                              CirReduction::RawPattern);
    VectorTraceSource source({});
    EXPECT_THROW(runHybridSelector(source, p1, raw, p2, c1),
                 std::runtime_error);
}

TEST(HybridSelectorTest, RequiresTwoDistinctEstimators)
{
    BimodalPredictor p1(256);
    GsharePredictor p2(256, 8);
    OneLevelCounterConfidence shared = makeEstimator();
    VectorTraceSource source({});
    EXPECT_THROW(runHybridSelector(source, p1, shared, p2, shared),
                 std::runtime_error);
}

TEST(HybridSelectorTest, CountsConstituentAndSelectedMisses)
{
    // Alternating outcomes: bimodal flounders, gshare learns. The
    // confidence selector must converge to gshare.
    BimodalPredictor p1(1024);
    GsharePredictor p2(1024, 10);
    auto c1 = makeEstimator();
    auto c2 = makeEstimator();

    std::vector<BranchRecord> records;
    for (int i = 0; i < 20000; ++i) {
        records.push_back(
            {0x1000, 0x2000, i % 2 == 0, BranchType::Conditional});
    }
    VectorTraceSource source(records);
    const auto result =
        runHybridSelector(source, p1, c1, p2, c2);
    EXPECT_EQ(result.branches, 20000u);
    // gshare way better than bimodal here.
    EXPECT_LT(result.secondMispredicts * 5, result.firstMispredicts);
    // Selection must be close to the better constituent.
    EXPECT_LT(result.selectedMispredicts,
              result.secondMispredicts + result.branches / 50);
    // Oracle is a lower bound on everything.
    EXPECT_LE(result.oracleMispredicts, result.selectedMispredicts);
    EXPECT_LE(result.oracleMispredicts, result.firstMispredicts);
}

TEST(HybridSelectorTest, SelectorBeatsWorseConstituentOnRealWorkload)
{
    WorkloadGenerator gen(ibsProfile("verilog"), 200000);
    BimodalPredictor p1(4096);
    GsharePredictor p2(4096, 12);
    auto c1 = makeEstimator(4096);
    auto c2 = makeEstimator(4096);
    const auto result = runHybridSelector(gen, p1, c1, p2, c2);
    EXPECT_LT(result.selectedMispredicts,
              std::max(result.firstMispredicts,
                       result.secondMispredicts));
    EXPECT_GT(result.disagreements, 0u);
}

TEST(HybridSelectorTest, EmptyTraceGivesZeros)
{
    BimodalPredictor p1(64);
    GsharePredictor p2(64, 4);
    auto c1 = makeEstimator(64);
    auto c2 = makeEstimator(64);
    VectorTraceSource source({});
    const auto result = runHybridSelector(source, p1, c1, p2, c2);
    EXPECT_EQ(result.branches, 0u);
    EXPECT_DOUBLE_EQ(result.rate(result.selectedMispredicts), 0.0);
}

} // namespace
} // namespace confsim
