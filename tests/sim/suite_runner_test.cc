/** @file Unit tests for the suite runner. */

#include "sim/suite_runner.h"

#include <atomic>
#include <cmath>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "sim/driver.h"
#include "sim/sweep_engine.h"

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "fault/fault_injection.h"
#include "trace/vector_trace_source.h"
#include "util/error.h"

namespace confsim {
namespace {

PredictorFactory
smallPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
smallEstimators()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

SuiteRunResult
runSmall(std::uint64_t branches, bool profile_static = true)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 branches));
    DriverOptions options;
    options.profileStatic = profile_static;
    return runner.run(
        [] {
            return std::make_unique<GsharePredictor>(4096, 12);
        },
        [] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 4096, CounterKind::Resetting,
                16, 0));
            return out;
        },
        options);
}

TEST(SuiteRunnerTest, RunsEveryBenchmark)
{
    const auto result = runSmall(20000);
    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_EQ(result.perBenchmark[0].name, "jpeg");
    EXPECT_EQ(result.perBenchmark[1].name, "real_gcc");
    for (const auto &bench : result.perBenchmark) {
        EXPECT_EQ(bench.branches, 20000u);
        EXPECT_GT(bench.mispredicts, 0u);
    }
}

TEST(SuiteRunnerTest, AttemptsIsOneOnFirstTrySuccess)
{
    const auto result = runSmall(5000);
    for (const auto &bench : result.perBenchmark) {
        EXPECT_TRUE(bench.error.empty());
        EXPECT_EQ(bench.attempts, 1u) << bench.name;
        EXPECT_GT(bench.wallMs, 0.0) << bench.name;
    }
    EXPECT_GT(result.wallMs, 0.0);
}

TEST(SuiteRunnerTest, EstimatorNamesReported)
{
    const auto result = runSmall(5000);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

TEST(SuiteRunnerTest, CompositeRateIsEqualWeightMean)
{
    const auto result = runSmall(20000);
    const double mean = (result.perBenchmark[0].mispredictRate +
                         result.perBenchmark[1].mispredictRate) /
                        2.0;
    EXPECT_NEAR(result.compositeMispredictRate, mean, 1e-12);
}

TEST(SuiteRunnerTest, CompositeStatsGiveEqualMassPerBenchmark)
{
    const auto result = runSmall(20000);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    const auto &composite = result.compositeEstimatorStats[0];
    // Two benchmarks, each scaled to 1e6 references.
    EXPECT_NEAR(composite.totalRefs(), 2e6, 1.0);
}

/**
 * Replace benchmark 0's trace, or every benchmark's when @p all is set,
 * with an empty one: the benchmark completes without error but records
 * zero branches.
 */
SourceWrapper
emptyTraces(bool all)
{
    return [all](std::size_t bench, std::unique_ptr<TraceSource> inner)
               -> std::unique_ptr<TraceSource> {
        if (all || bench == 0)
            return std::make_unique<VectorTraceSource>(
                std::vector<BranchRecord>{});
        return inner;
    };
}

TEST(SuiteRunnerTest, ZeroRecordBenchmarkExcludedFromComposites)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
    runner.setSourceWrapper(emptyTraces(false));
    const auto result = runner.run(smallPredictor(), smallEstimators());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].error.empty());
    EXPECT_EQ(result.perBenchmark[0].branches, 0u);
    EXPECT_GT(result.perBenchmark[1].branches, 0u);

    // Nothing failed, but the composites cover only the recorded
    // benchmark — flagged via the degraded-composite marker.
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.zeroRecordBenchmarks, 1u);
    EXPECT_TRUE(result.compositeDegraded);
    EXPECT_NEAR(result.compositeMispredictRate,
                result.perBenchmark[1].mispredictRate, 1e-12);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    // One benchmark scaled to the 1e6 common mass, not two.
    EXPECT_NEAR(result.compositeEstimatorStats[0].totalRefs(), 1e6,
                1.0);
}

TEST(SuiteRunnerTest, AllZeroRecordBenchmarksGiveZeroComposite)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 2000));
    runner.setSourceWrapper(emptyTraces(true));
    const auto result = runner.run(smallPredictor(), smallEstimators());

    for (const auto &bench : result.perBenchmark) {
        EXPECT_TRUE(bench.error.empty()) << bench.name;
        EXPECT_EQ(bench.branches, 0u) << bench.name;
    }
    EXPECT_FALSE(result.degraded);
    EXPECT_EQ(result.zeroRecordBenchmarks, 2u);
    EXPECT_TRUE(result.compositeDegraded);
    EXPECT_EQ(result.compositeMispredictRate, 0.0);
    EXPECT_FALSE(std::isnan(result.compositeMispredictRate));
    EXPECT_TRUE(result.compositeEstimatorStats.empty());
}

TEST(SuiteRunnerTest, SweepZeroRecordBenchmarkExcludedFromComposites)
{
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"}, 5000));
    runner.setSourceWrapper(emptyTraces(false));
    std::vector<SweepConfiguration> configs;
    configs.push_back(
        {"a", smallPredictor(), smallEstimators()});
    configs.push_back(
        {"b", smallPredictor(), smallEstimators()});
    const auto sweep =
        runner.runSweep(configs, DriverOptions{}, SweepOptions{});

    ASSERT_EQ(sweep.perConfig.size(), 2u);
    for (const auto &config_result : sweep.perConfig) {
        ASSERT_EQ(config_result.perBenchmark.size(), 2u);
        EXPECT_EQ(config_result.perBenchmark[0].branches, 0u);
        EXPECT_FALSE(config_result.degraded);
        EXPECT_EQ(config_result.zeroRecordBenchmarks, 1u);
        EXPECT_TRUE(config_result.compositeDegraded);
        EXPECT_NEAR(
            config_result.compositeMispredictRate,
            config_result.perBenchmark[1].mispredictRate, 1e-12);
        // The per-config wall share stays finite for every entry.
        for (const auto &bench : config_result.perBenchmark)
            EXPECT_TRUE(std::isfinite(bench.wallMs)) << bench.name;
    }
}

TEST(SuiteRunnerTest, StaticKeysDoNotCollideAcrossBenchmarks)
{
    const auto result = runSmall(20000);
    std::size_t per_bench_total = 0;
    for (const auto &bench : result.perBenchmark)
        per_bench_total += bench.staticStats.size();
    // The composite preserves every distinct (benchmark, pc) key.
    EXPECT_EQ(result.compositeStaticStats.size(), per_bench_total);
}

TEST(SuiteRunnerTest, StaticProfilingOffLeavesStatsEmpty)
{
    const auto result = runSmall(5000, false);
    EXPECT_EQ(result.compositeStaticStats.size(), 0u);
}

TEST(SuiteRunnerTest, JpegPredictsBetterThanGcc)
{
    // The Fig. 9 property at suite-runner level.
    const auto result = runSmall(100000);
    EXPECT_LT(result.perBenchmark[0].mispredictRate,
              result.perBenchmark[1].mispredictRate);
}

TEST(SuiteRunnerTest, NullPredictorFactoryIsFatal)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 100));
    EXPECT_THROW(
        runner.run([] { return std::unique_ptr<BranchPredictor>{}; },
                   [] {
                       return std::vector<
                           std::unique_ptr<ConfidenceEstimator>>{};
                   }),
        std::runtime_error);
}

// ---------------------------------------------------------------------
// RunPolicy: error isolation, retries, watchdog.

/** Wrap benchmark @p faulty_bench so its stream throws mid-run. */
SourceWrapper
failingWrapper(std::size_t faulty_bench)
{
    return [faulty_bench](std::size_t bench,
                          std::unique_ptr<TraceSource> inner)
               -> std::unique_ptr<TraceSource> {
        if (bench != faulty_bench)
            return inner;
        FaultSpec spec;
        spec.failAfter = 500;
        return std::make_unique<FaultInjectingTraceSource>(
            std::move(inner), spec);
    };
}

TEST(SuiteRunnerTest, FailFastThrowsOnInjectedFault)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(failingWrapper(1));
    EXPECT_THROW(runner.run(smallPredictor(), smallEstimators()),
                 std::runtime_error);
}

TEST(SuiteRunnerTest, ContinueOnErrorIsolatesTheFailure)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(failingWrapper(0));
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {},
                   RunPolicy::continueOnError());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_NE(result.perBenchmark[0].error.find("injected fault"),
              std::string::npos);
    EXPECT_FALSE(result.perBenchmark[1].failed());
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.failedBenchmarks(), 1u);

    // Composites cover exactly the surviving benchmark.
    EXPECT_DOUBLE_EQ(result.compositeMispredictRate,
                     result.perBenchmark[1].mispredictRate);
    ASSERT_EQ(result.compositeEstimatorStats.size(), 1u);
    EXPECT_NEAR(result.compositeEstimatorStats[0].totalRefs(), 1e6,
                1.0);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

TEST(SuiteRunnerTest, AllBenchmarksFailingGivesEmptyComposites)
{
    // When every benchmark fails under continue-on-error the composite
    // pass has zero survivors; it must report a clean degenerate
    // result (zero rate, empty composites), never NaN from a 0/0.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    runner.setSourceWrapper(
        [](std::size_t, std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            FaultSpec spec;
            spec.failAfter = 500;
            return std::make_unique<FaultInjectingTraceSource>(
                std::move(inner), spec);
        });
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {},
                   RunPolicy::continueOnError());

    ASSERT_EQ(result.perBenchmark.size(), 2u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_TRUE(result.perBenchmark[1].failed());
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.failedBenchmarks(), 2u);
    EXPECT_FALSE(std::isnan(result.compositeMispredictRate));
    EXPECT_DOUBLE_EQ(result.compositeMispredictRate, 0.0);
    EXPECT_TRUE(result.estimatorNames.empty());
    EXPECT_TRUE(result.compositeEstimatorStats.empty());
    EXPECT_EQ(result.compositeStaticStats.size(), 0u);
}

TEST(SuiteRunnerTest, ContinueOnErrorWithoutFailuresIsNotDegraded)
{
    const auto fail_fast = runSmall(5000);
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 5000));
    DriverOptions options;
    options.profileStatic = true;
    const auto lenient =
        runner.run(smallPredictor(), smallEstimators(), options,
                   RunPolicy::continueOnError());

    EXPECT_FALSE(lenient.degraded);
    EXPECT_EQ(lenient.failedBenchmarks(), 0u);
    // Bit-identical to the default policy when nothing fails.
    ASSERT_EQ(lenient.perBenchmark.size(),
              fail_fast.perBenchmark.size());
    for (std::size_t i = 0; i < lenient.perBenchmark.size(); ++i) {
        EXPECT_EQ(lenient.perBenchmark[i].mispredicts,
                  fail_fast.perBenchmark[i].mispredicts);
        EXPECT_EQ(lenient.perBenchmark[i].branches,
                  fail_fast.perBenchmark[i].branches);
    }
    EXPECT_DOUBLE_EQ(lenient.compositeMispredictRate,
                     fail_fast.compositeMispredictRate);
}

TEST(SuiteRunnerTest, RetriesRecoverTransientFailures)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    auto first_attempts = std::make_shared<std::atomic<int>>(0);
    runner.setSourceWrapper(
        [first_attempts](std::size_t,
                         std::unique_ptr<TraceSource> inner)
            -> std::unique_ptr<TraceSource> {
            if (first_attempts->fetch_add(1) == 0) {
                FaultSpec spec;
                spec.failAfter = 100; // transient: first attempt only
                return std::make_unique<FaultInjectingTraceSource>(
                    std::move(inner), spec);
            }
            return inner;
        });

    RunPolicy policy = RunPolicy::continueOnError();
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_FALSE(result.perBenchmark[0].failed());
    EXPECT_EQ(result.perBenchmark[0].attempts, 2u);
    EXPECT_FALSE(result.degraded);
}

TEST(SuiteRunnerTest, PersistentFailureExhaustsAttempts)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg"}, 2000));
    runner.setSourceWrapper(failingWrapper(0));
    RunPolicy policy = RunPolicy::continueOnError();
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_EQ(result.perBenchmark[0].attempts, 3u);
}

TEST(SuiteRunnerTest, WatchdogMarksHungBenchmarkFailed)
{
    // A 1 ms budget on a multi-million-branch benchmark must trip the
    // watchdog; the benchmark is marked failed, not wedged, and the
    // timeout is not retried (attempts stays 1 despite maxAttempts).
    SuiteRunner runner(
        BenchmarkSuite::ibsSubset({"jpeg"}, 20'000'000));
    RunPolicy policy = RunPolicy::continueOnError();
    policy.watchdogMs = 1;
    policy.maxAttempts = 3;
    const auto result =
        runner.run(smallPredictor(), smallEstimators(), {}, policy);
    ASSERT_EQ(result.perBenchmark.size(), 1u);
    EXPECT_TRUE(result.perBenchmark[0].failed());
    EXPECT_NE(result.perBenchmark[0].error.find("wall-clock"),
              std::string::npos);
    EXPECT_EQ(result.perBenchmark[0].attempts, 1u);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(result.compositeEstimatorStats.size(), 0u);
}

TEST(SuiteRunnerTest, FactoriesInvokedExactlyOncePerBenchmark)
{
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 2000));
    auto predictor_calls = std::make_shared<std::atomic<int>>(0);
    auto estimator_calls = std::make_shared<std::atomic<int>>(0);
    const auto result = runner.run(
        [predictor_calls] {
            predictor_calls->fetch_add(1);
            return std::make_unique<GsharePredictor>(4096, 12);
        },
        [estimator_calls]()
            -> std::vector<std::unique_ptr<ConfidenceEstimator>> {
            estimator_calls->fetch_add(1);
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            out.push_back(std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 4096, CounterKind::Resetting,
                16, 0));
            return out;
        });
    EXPECT_EQ(predictor_calls->load(), 2);
    EXPECT_EQ(estimator_calls->load(), 2);
    ASSERT_EQ(result.estimatorNames.size(), 1u);
    EXPECT_EQ(result.estimatorNames[0], "1lvl-PCxorBHR-reset16-4096");
}

TEST(SuiteRunnerTest, ThrowingFactoryFailsEachBenchmarkUnderItsPolicy)
{
    // Sizing benchmark parallelism calls every predictor factory once
    // up front; a factory that throws there must still fail only the
    // benchmarks, as the run policy says, not the whole sweep.
    SuiteRunner runner(BenchmarkSuite::ibsSubset({"jpeg", "real_gcc"},
                                                 2000));
    const PredictorFactory throwing = []() -> std::unique_ptr<
                                           BranchPredictor> {
        fatal(ErrorCategory::kConfig, "no such predictor");
    };
    const std::vector<SweepConfiguration> configs = {
        {"good", smallPredictor(), smallEstimators()},
        {"bad", throwing, smallEstimators()}};
    SweepOptions sweep;
    sweep.threads = 2;
    SweepSuiteResult result;
    ASSERT_NO_THROW(result = runner.runSweep(configs, {}, sweep,
                                             RunPolicy::continueOnError()));
    ASSERT_EQ(result.perConfig.size(), 2u);
    for (const SuiteRunResult &config : result.perConfig) {
        ASSERT_EQ(config.perBenchmark.size(), 2u);
        for (const auto &bench : config.perBenchmark)
            EXPECT_TRUE(bench.failed());
    }
    EXPECT_THROW(runner.runSweep(configs, {}, sweep), std::runtime_error);
}

// ---------------------------------------------------------------------
// Retired checkpoint layouts: the sequential driver's driver:meta
// generations must be rejected as kCheckpoint, never misread.

/**
 * A checkpoint in the retired sequential-driver layout, exactly as
 * that driver wrote it after @p branches branches of a fresh run:
 * driver:meta (geometry plus registers and counters), then predictor,
 * estimator, and stats components.
 */
Checkpoint
driverLayoutCheckpoint(const std::string &label, std::uint64_t branches)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 4096,
                                        CounterKind::Resetting, 16, 0);
    const DriverOptions options;
    Checkpoint ckpt;
    ckpt.label = label;
    ckpt.watermark = branches;
    ckpt.branches = branches;
    StateWriter meta;
    meta.putU64(options.bhrBits);
    meta.putU64(options.gcirBits);
    meta.putU64(1); // estimators
    meta.putU64(0); // static profile off
    meta.putU64(0); // branches until the next context switch
    meta.putU64(0); // BHR
    meta.putU64(0); // GCIR
    meta.putU64(branches);
    meta.putU64(0); // mispredicts
    meta.putU64(0); // context switches
    ckpt.add("driver:meta", 1, meta.take());
    ckpt.addComponent("predictor:" + predictor.name(), predictor);
    ckpt.addComponent("estimator0:" + estimator.name(), estimator);
    ckpt.addState("stats0", 1, BucketStats(estimator.numBuckets()));
    return ckpt;
}

std::string
scratchDir()
{
    const std::string dir =
        ::testing::TempDir() + "/confsim_retired_ckpt_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    return dir;
}

TEST(RetiredCheckpointTest, DriverResumeRejectsDriverMetaLayout)
{
    GsharePredictor predictor(4096, 12);
    OneLevelCounterConfidence estimator(IndexScheme::PcXorBhr, 4096,
                                        CounterKind::Resetting, 16, 0);
    SimulationDriver driver(predictor, {&estimator});
    VectorTraceSource source(
        {{0x1000, 0x1010, true, BranchType::Conditional}});
    try {
        driver.resume(source, driverLayoutCheckpoint("jpeg", 1));
        FAIL() << "a driver:meta checkpoint was accepted";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint) << e.what();
    }
}

TEST(RetiredCheckpointTest, SuiteResumeFallsBackFromDriverMetaLayout)
{
    const std::string dir = scratchDir();
    const BenchmarkSuite suite = BenchmarkSuite::ibsSubset({"jpeg"}, 5000);
    {
        // A leftover generation under the benchmark's store label.
        CheckpointStore store(dir, "jpeg", 2);
        store.write(driverLayoutCheckpoint("jpeg", 1000));
        ASSERT_EQ(store.generations().size(), 1u);
    }

    SuiteRunner runner(suite);
    const SuiteRunResult fresh =
        runner.run(smallPredictor(), smallEstimators());

    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;
    RunPolicy policy;
    policy.checkpoint.directory = dir;
    policy.checkpoint.everyBranches = 0;
    policy.checkpoint.resume = true;
    const SuiteRunResult resumed =
        runner.run(smallPredictor(), smallEstimators(), options, policy);

    // Rejected and reported, then re-simulated from scratch.
    EXPECT_EQ(telemetry.registry().counter("ckpt.corrupt"), 1u);
    EXPECT_EQ(telemetry.registry().counter("ckpt.restored"), 0u);
    ASSERT_EQ(resumed.perBenchmark.size(), 1u);
    EXPECT_FALSE(resumed.perBenchmark[0].failed())
        << resumed.perBenchmark[0].error;
    EXPECT_EQ(resumed.perBenchmark[0].branches,
              fresh.perBenchmark[0].branches);
    EXPECT_EQ(resumed.perBenchmark[0].mispredicts,
              fresh.perBenchmark[0].mispredicts);
    EXPECT_EQ(resumed.compositeMispredictRate,
              fresh.compositeMispredictRate);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace confsim
