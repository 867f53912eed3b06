/**
 * @file
 * Chaos-hardening suite for the sweep pipeline.
 *
 * Every test here runs a sweep under an injected FaultPlan
 * (fault/fault_plan.h) and checks the three invariants the robustness
 * design promises:
 *
 *  1. Survivors are bit-exact: a fault in one configuration (or one
 *     checkpoint write) never perturbs any other configuration's
 *     results — they match independent sequential SimulationDriver
 *     runs without tolerance.
 *  2. Fault accounting is exact: every installed rule that could fire
 *     did fire exactly once, at the scope/key/occurrence it named, and
 *     nothing else was injected.
 *  3. Checkpoints stay crash-safe: an injected write failure loses
 *     freshness, never resumability — every generation on disk resumes
 *     bit-exactly.
 *
 * The seeded schedule test runs 20 randomized fault plans over the
 * pipelined engine; the deterministic tests pin each fault site,
 * cancellation path, retry interaction, and the suite deadline budget
 * individually. Benchmarks are scheduled serially (benchParallel=1)
 * wherever a plan must fire in a known scope — the one-shot rule
 * semantics documented in fault_plan.h.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "confidence/self_counter.h"
#include "fault/fault_plan.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "sim/driver.h"
#include "sim/run_policy.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 20'000;

PredictorFactory
testPredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

/** One estimator family over the shared test predictor. */
using Family = SweepConfiguration;

/** Four cheap, structurally distinct families for chaos runs. */
std::vector<Family>
chaosFamilies()
{
    auto one = [](std::unique_ptr<ConfidenceEstimator> estimator) {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::move(estimator));
        return out;
    };
    std::vector<Family> families;
    families.push_back(
        {"one_level_raw_pc", testPredictor(), [one] {
             return one(std::make_unique<OneLevelCirConfidence>(
                 IndexScheme::Pc, 1024, 8, CirReduction::RawPattern,
                 CtInit::Ones));
         }});
    families.push_back(
        {"counter_saturating", testPredictor(), [one] {
             return one(std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::PcXorBhr, 1024,
                 CounterKind::Saturating, 16, 0));
         }});
    families.push_back(
        {"counter_resetting", testPredictor(), [one] {
             return one(std::make_unique<OneLevelCounterConfidence>(
                 IndexScheme::PcXorBhr, 1024, CounterKind::Resetting,
                 16, 0));
         }});
    families.push_back(
        {"self_counter", testPredictor(), [one] {
             return one(std::make_unique<SelfCounterConfidence>(
                 IndexScheme::Pc, 1024, 3));
         }});
    return families;
}

/** Fresh deterministic source: benchmark 0 of the reduced suite. */
std::unique_ptr<TraceSource>
freshSource(std::uint64_t branches = kBranches)
{
    return BenchmarkSuite::ibsSmall(branches).makeGenerator(0);
}

/** Independent sequential reference for one family. */
DriverResult
runSequential(const Family &family, DriverOptions options = {},
              std::uint64_t branches = kBranches)
{
    auto predictor = family.makePredictor();
    auto owned = family.makeEstimators();
    std::vector<ConfidenceEstimator *> raw;
    raw.reserve(owned.size());
    for (auto &estimator : owned)
        raw.push_back(estimator.get());
    SimulationDriver driver(*predictor, raw, options);
    auto source = freshSource(branches);
    return driver.run(*source);
}

/** Bit-exact comparison of one surviving config vs its reference. */
void
expectConfigMatches(const DriverResult &sequential,
                    const SweepConfigResult &sweep,
                    const std::string &context)
{
    SCOPED_TRACE(context);
    EXPECT_FALSE(sweep.failed()) << sweep.error;
    EXPECT_EQ(sequential.branches, sweep.branches);
    EXPECT_EQ(sequential.mispredicts, sweep.mispredicts);
    EXPECT_EQ(sequential.contextSwitches, sweep.contextSwitches);
    ASSERT_EQ(sequential.estimatorStats.size(),
              sweep.estimatorStats.size());
    for (std::size_t e = 0; e < sequential.estimatorStats.size();
         ++e) {
        const BucketStats &expected = sequential.estimatorStats[e];
        const BucketStats &actual = sweep.estimatorStats[e];
        ASSERT_EQ(expected.numBuckets(), actual.numBuckets());
        for (std::uint64_t b = 0; b < expected.numBuckets(); ++b) {
            EXPECT_EQ(expected[b].refs, actual[b].refs)
                << "bucket " << b;
            EXPECT_EQ(expected[b].mispredicts, actual[b].mispredicts)
                << "bucket " << b;
        }
    }
}

/** A scratch checkpoint directory, wiped before use. */
std::filesystem::path
scratchDir(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Deterministic per-seed random stream (splitmix64). */
std::uint64_t
nextRand(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

TEST(ChaosSweep, ShardFaultIsolatesSingleConfig)
{
    const std::vector<Family> families = chaosFamilies();
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;

    SweepOptions sweep;
    sweep.threads = 2;
    sweep.isolateConfigFailures = true;

    ScopedFaultPlan scoped("shard:cfg=1,batch=2:throw");
    SweepEngine engine(families, options, sweep);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    ASSERT_EQ(result.perConfig.size(), families.size());
    EXPECT_TRUE(result.perConfig[1].failed());
    EXPECT_NE(result.perConfig[1].error.find("injected fault"),
              std::string::npos);
    for (const std::size_t c : {std::size_t{0}, std::size_t{2},
                                std::size_t{3}}) {
        expectConfigMatches(runSequential(families[c], DriverOptions{}),
                            result.perConfig[c],
                            families[c].label + " survivor");
    }
    EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    EXPECT_EQ(telemetry.registry().counter("sweep.config_failed"), 1u);
}

TEST(ChaosSweep, ShardFaultWithoutIsolationFailsRun)
{
    const std::vector<Family> families = chaosFamilies();
    SweepOptions sweep;
    sweep.threads = 1;
    sweep.isolateConfigFailures = false;

    ScopedFaultPlan scoped("shard:cfg=0,batch=1:crash");
    SweepEngine engine(families, DriverOptions{},
                       sweep);
    auto source = freshSource();
    try {
        engine.run(*source);
        FAIL() << "expected the injected crash to fail the pass";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kInternal);
        EXPECT_NE(std::string(e.what()).find("simulated crash"),
                  std::string::npos);
    }
}

TEST(ChaosSweep, CheckpointWriteFaultDegradesFreshnessNotResults)
{
    const std::filesystem::path dir =
        scratchDir("chaos_ckpt_enospc");
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[2]};
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;

    SweepOptions sweep;
    sweep.threads = 2;

    CheckpointStore store(dir.string(), "chaos", 8);
    ScopedFaultPlan scoped("ckpt:write=2:enospc");
    SweepEngine engine(families, options, sweep);
    engine.checkpointEvery(4'000, &store);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    // The second write attempt hit ENOSPC; the sweep shrugged it off.
    EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    EXPECT_EQ(telemetry.registry().counter("ckpt.write_failed"), 1u);
    ASSERT_GT(result.checkpointsWritten, 0u);
    // Successful writes and on-disk generations agree exactly — the
    // failed attempt published nothing.
    EXPECT_EQ(result.checkpointsWritten, store.generations().size());

    // Results are unaffected by the lost checkpoint.
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectConfigMatches(runSequential(families[c], DriverOptions{}),
                            result.perConfig[c], families[c].label);
    }

    // Every surviving generation resumes bit-exactly.
    for (const std::uint64_t gen : store.generations()) {
        const auto ckpt = store.load(gen);
        ASSERT_TRUE(ckpt.has_value()) << "generation " << gen;
        SweepEngine resumed_engine(families,
                                   DriverOptions{}, sweep);
        auto resumed_source = freshSource();
        const SweepRunResult resumed =
            resumed_engine.resume(*resumed_source, *ckpt);
        for (std::size_t c = 0; c < families.size(); ++c) {
            expectConfigMatches(
                runSequential(families[c], DriverOptions{}),
                resumed.perConfig[c],
                families[c].label + " resumed from generation " +
                    std::to_string(gen));
        }
    }
}

TEST(ChaosSweep, DecodeFaultFailsPassButCheckpointsResume)
{
    const std::filesystem::path dir =
        scratchDir("chaos_decode_resume");
    const std::vector<Family> families = {chaosFamilies()[1],
                                          chaosFamilies()[3]};
    SweepOptions sweep;
    sweep.threads = 2;
    sweep.batchSize = 512;
    sweep.decodeAhead = 3;

    CheckpointStore store(dir.string(), "chaos", 4);
    {
        ScopedFaultPlan scoped("decode:batch=8:throw");
        SweepEngine engine(families, DriverOptions{},
                           sweep);
        engine.checkpointEvery(200, &store);
        auto source = freshSource();
        try {
            engine.run(*source);
            FAIL() << "expected the injected decode fault to fail the "
                      "pass";
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kTrace);
            EXPECT_NE(std::string(e.what()).find("injected fault"),
                      std::string::npos);
        }
        EXPECT_EQ(FaultInjector::instance().injectedCount(), 1u);
    }

    // The crash-interrupted store still resumes bit-exactly.
    ASSERT_FALSE(store.generations().empty());
    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());
    SweepEngine resumed_engine(families,
                               DriverOptions{}, sweep);
    auto resumed_source = freshSource();
    const SweepRunResult resumed =
        resumed_engine.resume(*resumed_source, *ckpt);
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectConfigMatches(runSequential(families[c], DriverOptions{}),
                            resumed.perConfig[c], families[c].label);
    }
}

TEST(ChaosSweep, HangUnwindsViaWatchdog)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[1]};
    DriverOptions options;
    options.wallClockLimitMs = 300;
    SweepOptions sweep;
    sweep.threads = 1;

    ScopedFaultPlan scoped("shard:cfg=0,batch=2:hang");
    SweepEngine engine(families, options, sweep);
    auto source = freshSource();
    const auto start = std::chrono::steady_clock::now();
    try {
        engine.run(*source);
        FAIL() << "expected the injected hang to hit the watchdog";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kTimeout);
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // Unwound at the watchdog deadline, not the 30 s parking cap.
    EXPECT_LT(elapsed.count(), 10'000);
}

TEST(ChaosSweep, ExternalCancellationUnwindsSweep)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[2]};
    CancellationToken token;
    token.cancel();
    DriverOptions options;
    options.cancel = &token;
    SweepOptions sweep;
    sweep.threads = 2;
    sweep.decodeAhead = 3;

    SweepEngine engine(families, options, sweep);
    auto source = freshSource();
    try {
        engine.run(*source);
        FAIL() << "expected cancellation to unwind the pass";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
        EXPECT_FALSE(e.retryable());
    }
}

TEST(ChaosSweep, SeededChaosSchedulesSurvivorsBitExact)
{
    const std::vector<Family> families = chaosFamilies();
    // References computed once; every seed's survivors must hit them.
    std::vector<DriverResult> references;
    references.reserve(families.size());
    for (const auto &family : families)
        references.push_back(runSequential(family));

    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::uint64_t rng = seed * 0x9e3779b97f4a7c15ULL + 1;

        // Randomized schedule: 1-2 shard faults on distinct configs
        // within the first twelve batches (every config replays at
        // least 20, so they always fire — some seeds checkpoint
        // before the fault lands, some fail first), plus — on even
        // seeds — an ENOSPC on the first checkpoint write.
        const std::size_t first_cfg = nextRand(rng) % families.size();
        const std::size_t num_shard = 1 + (nextRand(rng) % 2);
        const std::size_t second_cfg =
            (first_cfg + 1 + (nextRand(rng) % (families.size() - 1))) %
            families.size();
        std::vector<std::size_t> shard_cfgs = {first_cfg};
        if (num_shard == 2)
            shard_cfgs.push_back(second_cfg);
        std::string spec;
        for (const std::size_t cfg : shard_cfgs) {
            if (!spec.empty())
                spec += ';';
            spec += "shard:cfg=" + std::to_string(cfg) +
                    ",batch=" + std::to_string(1 + nextRand(rng) % 12) +
                    ((nextRand(rng) % 2) == 0 ? ":throw" : ":crash");
        }
        const bool with_ckpt_fault = seed % 2 == 0;
        if (with_ckpt_fault)
            spec += ";ckpt:write=1:enospc";

        SweepOptions sweep;
        sweep.isolateConfigFailures = true;
        sweep.threads = 1u << (nextRand(rng) % 3); // 1, 2, or 4
        sweep.decodeAhead = 1 + nextRand(rng) % 3;
        sweep.batchSize =
            std::vector<std::size_t>{256, 512, 1000}[nextRand(rng) %
                                                     3];

        const std::filesystem::path dir = scratchDir(
            "chaos_seed_" + std::to_string(seed));
        // keepGenerations exceeds the worst-case write count so the
        // generations-on-disk == successful-writes assertion below
        // never trips over pruning.
        CheckpointStore store(dir.string(), "chaos", 16);

        SweepRunResult result;
        std::vector<FaultHit> hits;
        {
            ScopedFaultPlan scoped(spec);
            SweepEngine engine(families,
                               DriverOptions{}, sweep);
            engine.checkpointEvery(2'000, &store);
            auto source = freshSource();
            result = engine.run(*source);
            hits = FaultInjector::instance().hits();
        }

        // Exact accounting: every shard rule fired once on its target
        // config; the checkpoint rule fired iff a write was attempted.
        std::size_t shard_hits = 0;
        bool ckpt_hit = false;
        for (const FaultHit &hit : hits) {
            if (hit.site == FaultSite::kShardReplay) {
                ++shard_hits;
                EXPECT_TRUE(hit.key == first_cfg ||
                            hit.key == second_cfg)
                    << "unexpected shard key " << hit.key;
            } else {
                ASSERT_EQ(hit.site, FaultSite::kCheckpointWrite);
                ckpt_hit = true;
            }
        }
        EXPECT_EQ(shard_hits, shard_cfgs.size());
        EXPECT_EQ(hits.size(),
                  shard_cfgs.size() + (ckpt_hit ? 1u : 0u));
        if (!with_ckpt_fault) {
            EXPECT_FALSE(ckpt_hit);
        }
        if (with_ckpt_fault && !ckpt_hit) {
            // The schedule failed every due config before the first
            // write became due — then no write may have happened.
            EXPECT_EQ(result.checkpointsWritten, 0u);
        }
        // Published generations are exactly the successful writes.
        EXPECT_EQ(result.checkpointsWritten,
                  store.generations().size());

        // Exactly the targeted configs failed; survivors bit-exact.
        for (std::size_t c = 0; c < families.size(); ++c) {
            const bool targeted =
                std::find(shard_cfgs.begin(), shard_cfgs.end(), c) !=
                shard_cfgs.end();
            if (targeted) {
                EXPECT_TRUE(result.perConfig[c].failed())
                    << families[c].label;
                EXPECT_NE(result.perConfig[c].error.find(
                              "injected fault"),
                          std::string::npos);
            } else {
                expectConfigMatches(references[c],
                                    result.perConfig[c],
                                    families[c].label);
            }
        }

        // Every published generation snapshots a fully healthy pass:
        // resuming the newest one (fault plan cleared) completes all
        // configurations bit-exactly.
        if (!store.generations().empty()) {
            const auto ckpt = store.loadLatestValid();
            ASSERT_TRUE(ckpt.has_value());
            SweepEngine resumed_engine(families,
                                       DriverOptions{}, sweep);
            auto resumed_source = freshSource();
            const SweepRunResult resumed =
                resumed_engine.resume(*resumed_source, *ckpt);
            for (std::size_t c = 0; c < families.size(); ++c) {
                expectConfigMatches(references[c],
                                    resumed.perConfig[c],
                                    families[c].label + " resumed");
            }
        }
    }
}

/** Serial, deterministic sweep knobs for suite-level chaos tests. */
SweepOptions
serialSweep()
{
    SweepOptions sweep;
    sweep.threads = 1;
    sweep.decodeAhead = 1;
    sweep.benchParallel = 1;
    return sweep;
}

TEST(ChaosSuite, ContinueOnErrorDegradesOnlyFaultedConfig)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[2]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));

    const SweepSuiteResult reference =
        runner.runSweep(families, DriverOptions{},
                        serialSweep(), RunPolicy::continueOnError());
    ASSERT_FALSE(reference.degraded());

    // The one-shot rule fires in the first scheduled benchmark
    // (suite order, benchParallel=1): config 1's first batch.
    ScopedFaultPlan scoped("shard:cfg=1,batch=1:throw");
    const SweepSuiteResult result =
        runner.runSweep(families, DriverOptions{},
                        serialSweep(), RunPolicy::continueOnError());

    ASSERT_EQ(result.perConfig.size(), 2u);
    EXPECT_FALSE(result.perConfig[0].degraded);
    EXPECT_TRUE(result.perConfig[1].degraded);
    EXPECT_TRUE(result.degraded());

    const auto &faulted = result.perConfig[1].perBenchmark;
    ASSERT_EQ(faulted.size(), 3u);
    EXPECT_TRUE(faulted[0].failed());
    EXPECT_NE(faulted[0].error.find("injected fault"),
              std::string::npos);
    EXPECT_FALSE(faulted[1].failed());
    EXPECT_FALSE(faulted[2].failed());

    // Bit-exactness: the healthy config everywhere, and the faulted
    // config's untouched benchmarks, match the fault-free run.
    for (std::size_t c = 0; c < 2; ++c) {
        for (std::size_t b = 0; b < 3; ++b) {
            if (c == 1 && b == 0)
                continue;
            SCOPED_TRACE("config " + std::to_string(c) +
                         " benchmark " + std::to_string(b));
            const BenchmarkRunResult &expected =
                reference.perConfig[c].perBenchmark[b];
            const BenchmarkRunResult &actual =
                result.perConfig[c].perBenchmark[b];
            EXPECT_EQ(expected.branches, actual.branches);
            EXPECT_EQ(expected.mispredicts, actual.mispredicts);
            ASSERT_EQ(expected.estimatorStats.size(),
                      actual.estimatorStats.size());
            for (std::size_t e = 0;
                 e < expected.estimatorStats.size(); ++e) {
                const BucketStats &es = expected.estimatorStats[e];
                const BucketStats &as = actual.estimatorStats[e];
                ASSERT_EQ(es.numBuckets(), as.numBuckets());
                for (std::uint64_t bucket = 0;
                     bucket < es.numBuckets(); ++bucket) {
                    EXPECT_EQ(es[bucket].refs, as[bucket].refs);
                    EXPECT_EQ(es[bucket].mispredicts,
                              as[bucket].mispredicts);
                }
            }
        }
    }

    // The healthy config's composites are NOT degraded — only the
    // faulted config composites over a survivor subset.
    EXPECT_EQ(reference.perConfig[0].compositeMispredictRate,
              result.perConfig[0].compositeMispredictRate);
}

TEST(ChaosSuite, FailFastSurfacesInjectedFault)
{
    const std::vector<Family> families = {chaosFamilies()[1]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));

    ScopedFaultPlan scoped("shard:cfg=0,batch=1:crash");
    try {
        runner.runSweep(families, DriverOptions{},
                        serialSweep(), RunPolicy::failFast());
        FAIL() << "expected fail-fast to throw on the injected crash";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kInternal);
        const std::string what = e.what();
        EXPECT_NE(what.find("failed"), std::string::npos);
        EXPECT_NE(what.find("injected fault"), std::string::npos);
    }
}

TEST(ChaosSuite, RetryRecoversOneShotTransientFault)
{
    const std::vector<Family> families = {chaosFamilies()[0],
                                          chaosFamilies()[3]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;

    const SweepSuiteResult reference =
        runner.runSweep(families, DriverOptions{},
                        serialSweep(), RunPolicy::continueOnError());

    // One-shot decode fault + one retry = a transient failure the
    // policy absorbs: attempt 1 throws kTrace, attempt 2 runs clean.
    RunPolicy policy = RunPolicy::failFast();
    policy.maxAttempts = 2;
    policy.retryBackoffMs = 1;

    ScopedFaultPlan scoped("decode:batch=1:throw");
    const SweepSuiteResult result = runner.runSweep(
        families, options, serialSweep(), policy);

    EXPECT_EQ(telemetry.registry().counter("suite.retries"), 1u);
    EXPECT_FALSE(result.degraded());
    ASSERT_EQ(result.perConfig.size(), reference.perConfig.size());
    for (std::size_t c = 0; c < reference.perConfig.size(); ++c) {
        for (std::size_t b = 0;
             b < reference.perConfig[c].perBenchmark.size(); ++b) {
            SCOPED_TRACE("config " + std::to_string(c) +
                         " benchmark " + std::to_string(b));
            EXPECT_EQ(
                reference.perConfig[c].perBenchmark[b].mispredicts,
                result.perConfig[c].perBenchmark[b].mispredicts);
            EXPECT_EQ(reference.perConfig[c].perBenchmark[b].branches,
                      result.perConfig[c].perBenchmark[b].branches);
        }
    }
}

TEST(ChaosSuite, WatchdogTimeoutIsNeverRetried)
{
    const std::vector<Family> families = {chaosFamilies()[0]};
    // A trace far too long for the watchdog budget: every benchmark
    // times out; maxAttempts=3 must not re-run blown budgets.
    SuiteRunner runner(BenchmarkSuite::ibsSmall(50'000'000));
    Telemetry telemetry{TelemetryOptions{}};
    DriverOptions options;
    options.telemetry = &telemetry;

    RunPolicy policy = RunPolicy::continueOnError();
    policy.watchdogMs = 50;
    policy.maxAttempts = 3;

    const SweepSuiteResult result = runner.runSweep(
        families, options, serialSweep(), policy);

    const auto &benches = result.perConfig[0].perBenchmark;
    ASSERT_EQ(benches.size(), 3u);
    for (const BenchmarkRunResult &bench : benches) {
        EXPECT_TRUE(bench.failed()) << bench.name;
        EXPECT_EQ(bench.errorCategory, ErrorCategory::kTimeout)
            << bench.name;
    }
    EXPECT_EQ(telemetry.registry().counter("suite.retries"), 0u);
    EXPECT_EQ(telemetry.registry().counter("suite.watchdog_timeouts"),
              3u);
}

TEST(ChaosSuite, DeadlineCancelsRemainingBenchmarks)
{
    const std::vector<Family> families = {chaosFamilies()[0]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(50'000'000));

    RunPolicy policy = RunPolicy::continueOnError();
    policy.deadlineMs = 30;

    const auto start = std::chrono::steady_clock::now();
    const SweepSuiteResult result = runner.runSweep(
        families, DriverOptions{}, serialSweep(),
        policy);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);

    // The budget beats every benchmark: whichever was in flight hits
    // its clipped watchdog (kTimeout), the rest never start
    // (kCancelled) — and the suite returns quickly either way.
    const auto &benches = result.perConfig[0].perBenchmark;
    ASSERT_EQ(benches.size(), 3u);
    for (const BenchmarkRunResult &bench : benches) {
        EXPECT_TRUE(bench.failed()) << bench.name;
        EXPECT_TRUE(bench.errorCategory == ErrorCategory::kTimeout ||
                    bench.errorCategory == ErrorCategory::kCancelled)
            << bench.name << ": " << bench.error;
    }
    EXPECT_TRUE(benches.back().cancelled) << benches.back().error;
    EXPECT_TRUE(result.degraded());
    EXPECT_LT(elapsed.count(), 30'000);
}

TEST(ChaosSuite, PreCancelledTokenMarksEverythingCancelled)
{
    const std::vector<Family> families = {chaosFamilies()[2]};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(8'000));
    CancellationToken token;
    token.cancel();

    // Continue-on-error: every benchmark is marked cancelled, nothing
    // simulates, the suite returns degraded.
    RunPolicy tolerant = RunPolicy::continueOnError();
    tolerant.cancel = &token;
    const SweepSuiteResult result = runner.runSweep(
        families, DriverOptions{}, serialSweep(),
        tolerant);
    for (const BenchmarkRunResult &bench :
         result.perConfig[0].perBenchmark) {
        EXPECT_TRUE(bench.failed()) << bench.name;
        EXPECT_TRUE(bench.cancelled) << bench.name;
        EXPECT_EQ(bench.errorCategory, ErrorCategory::kCancelled);
    }
    EXPECT_TRUE(result.degraded());

    // Fail-fast: the run throws kCancelled (the fallback culprit when
    // every failure is a cancellation).
    RunPolicy strict = RunPolicy::failFast();
    strict.cancel = &token;
    try {
        runner.runSweep(families, DriverOptions{},
                        serialSweep(), strict);
        FAIL() << "expected the pre-cancelled run to throw";
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kCancelled);
    }
}

} // namespace
} // namespace confsim
