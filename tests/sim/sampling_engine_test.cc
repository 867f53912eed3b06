/** @file Unit tests for the statistical sampling engine. */

#include "sim/sampling_engine.h"

#include <memory>
#include <stdexcept>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "metrics/operating_point.h"
#include "predictor/gshare.h"
#include "workload/workload_generator.h"

namespace confsim {
namespace {

std::vector<SweepConfiguration>
oneConfig()
{
    SweepConfiguration config;
    config.label = "gshare+CIR";
    config.makePredictor = [] {
        return std::make_unique<GsharePredictor>(4096, 12);
    };
    config.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCirConfidence>(
            IndexScheme::PcXorBhr, 4096, 16,
            CirReduction::RawPattern, CtInit::Ones));
        return out;
    };
    std::vector<SweepConfiguration> configs;
    configs.push_back(std::move(config));
    return configs;
}

SamplingEngine::SourceFactory
jpegSource(std::uint64_t branches)
{
    return [branches]() -> std::unique_ptr<TraceSource> {
        return std::make_unique<WorkloadGenerator>(ibsProfile("jpeg"),
                                                   branches);
    };
}

/** An immediately exhausted trace. */
class EmptySource : public TraceSource
{
  public:
    bool next(BranchRecord &) override { return false; }
    void reset() override {}
};

TEST(SamplingEngineTest, FullRateSingleSubsampleIsExact)
{
    SamplingOptions options;
    options.sampleRate = 1.0;
    options.strata = 1;
    options.subsamples = 1;
    options.regionBranches = 2000;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult sampled =
        engine.runTrace("jpeg", jpegSource(40000));

    SweepEngine exact_engine(oneConfig(), DriverOptions{},
                             SweepOptions{});
    WorkloadGenerator workload(ibsProfile("jpeg"), 40000);
    const SweepRunResult exact = exact_engine.run(workload);

    EXPECT_EQ(sampled.totalBranches, 40000u);
    EXPECT_EQ(sampled.recordedBranches, 40000u);
    EXPECT_EQ(sampled.regions, 20u);
    EXPECT_EQ(sampled.sampledRegions, 20u);
    ASSERT_EQ(sampled.perConfig.size(), 1u);
    const SamplingConfigEstimate &est = sampled.perConfig[0];
    ASSERT_EQ(est.rateSubsamples.size(), 1u);
    const double exact_rate =
        static_cast<double>(exact.perConfig[0].mispredicts) /
        static_cast<double>(exact.perConfig[0].branches);
    EXPECT_DOUBLE_EQ(est.mispredictRate.mean, exact_rate);
    EXPECT_DOUBLE_EQ(est.mispredictRate.ciHalf, 0.0);

    // Coverage/PVN at the 20% point match the exact aggregates too
    // (the weighted bucket mass is the aggregate mass, rescaled).
    const OperatingPoint exact_point =
        operatingPointAt20(exact.perConfig[0].estimatorStats[0]);
    ASSERT_EQ(est.coverageAt20.size(), 1u);
    EXPECT_NEAR(est.coverageAt20[0].mean, exact_point.coverage, 1e-9);
    EXPECT_NEAR(est.pvnAt20[0].mean, exact_point.pvn, 1e-9);
}

TEST(SamplingEngineTest, SelectionAndEstimatesAreDeterministic)
{
    SamplingOptions options;
    options.sampleRate = 0.2;
    options.regionBranches = 1000;
    options.seed = 1234;
    SamplingEngine a(oneConfig(), DriverOptions{}, options);
    SamplingEngine b(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult ra =
        a.runTrace("jpeg", jpegSource(60000));
    const SamplingBenchmarkResult rb =
        b.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(ra.sampledRegionIds, rb.sampledRegionIds);
    ASSERT_EQ(ra.perConfig.size(), rb.perConfig.size());
    EXPECT_EQ(ra.perConfig[0].rateSubsamples,
              rb.perConfig[0].rateSubsamples);
    EXPECT_DOUBLE_EQ(ra.perConfig[0].mispredictRate.ciHalf,
                     rb.perConfig[0].mispredictRate.ciHalf);
}

TEST(SamplingEngineTest, SeedChangesTheSelection)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    options.seed = 1;
    SamplingEngine a(oneConfig(), DriverOptions{}, options);
    options.seed = 2;
    SamplingEngine b(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult ra =
        a.runTrace("jpeg", jpegSource(60000));
    const SamplingBenchmarkResult rb =
        b.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(ra.sampledRegions, rb.sampledRegions);
    EXPECT_NE(ra.sampledRegionIds, rb.sampledRegionIds);
}

TEST(SamplingEngineTest, SampledSubsetRecordsFewerBranches)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(60000));
    EXPECT_EQ(result.regions, 60u);
    EXPECT_EQ(result.sampledRegions, 6u);
    EXPECT_EQ(result.recordedBranches, 6000u);
    EXPECT_NEAR(result.reductionFactor(), 10.0, 1e-9);
    // Sorted unique ids, all in range.
    for (std::size_t i = 1; i < result.sampledRegionIds.size(); ++i) {
        EXPECT_LT(result.sampledRegionIds[i - 1],
                  result.sampledRegionIds[i]);
    }
    for (const std::uint64_t id : result.sampledRegionIds)
        EXPECT_LT(id, result.regions);
}

TEST(SamplingEngineTest, BoundedWarmingKeepsRecordedBranches)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = 1000;
    options.warmupRegions = 2;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result =
        engine.runTrace("jpeg", jpegSource(60000));
    // Fast-forwarding changes which branches warm the predictor, not
    // which branches are recorded.
    EXPECT_EQ(result.recordedBranches, 6000u);
    EXPECT_EQ(result.sampledRegions, 6u);
    ASSERT_EQ(result.perConfig.size(), 1u);
    EXPECT_FALSE(result.perConfig[0].rateSubsamples.empty());
}

TEST(SamplingEngineTest, EmptyTraceYieldsEmptyResult)
{
    SamplingOptions options;
    SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    const SamplingBenchmarkResult result = engine.runTrace(
        "empty", [] { return std::make_unique<EmptySource>(); });
    EXPECT_EQ(result.totalBranches, 0u);
    EXPECT_EQ(result.regions, 0u);
    EXPECT_EQ(result.sampledRegions, 0u);
    EXPECT_TRUE(result.perConfig.empty());
    EXPECT_DOUBLE_EQ(result.reductionFactor(), 0.0);
}

TEST(SamplingEngineTest, InvalidOptionsAreFatal)
{
    const auto build = [](SamplingOptions options) {
        SamplingEngine engine(oneConfig(), DriverOptions{}, options);
    };
    SamplingOptions bad;
    bad.sampleRate = 0.0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.sampleRate = 1.5;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.regionBranches = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.strata = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    bad = SamplingOptions{};
    bad.subsamples = 0;
    EXPECT_THROW(build(bad), std::runtime_error);
    SweepRecordingPlan plan;
    bad = SamplingOptions{};
    bad.sweep.recordingPlan = &plan;
    EXPECT_THROW(build(bad), std::runtime_error);
    EXPECT_THROW(SamplingEngine({}, DriverOptions{},
                                SamplingOptions{}),
                 std::runtime_error);
}

} // namespace
} // namespace confsim
