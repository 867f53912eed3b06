/**
 * @file
 * End-to-end telemetry tests: a full nine-benchmark suite run with a
 * fault-injecting trace source must leave a JSONL stream holding the
 * run manifest, per-benchmark timings and attempt counts, and one
 * fault_injected event per injected fault; retries and corrupt-chunk
 * recovery must likewise surface as events.
 */

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "obs/telemetry.h"
#include "predictor/gshare.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "fault/fault_injection.h"
#include "trace/trace_io.h"

namespace confsim {
namespace {

PredictorFactory
makePredictor()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

EstimatorSetFactory
makeEstimators()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 4096, CounterKind::Resetting, 16,
            0));
        return out;
    };
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

std::size_t
countContaining(const std::vector<std::string> &lines,
                const std::string &needle)
{
    std::size_t n = 0;
    for (const auto &line : lines)
        n += line.find(needle) != std::string::npos ? 1 : 0;
    return n;
}

class TelemetryIntegrationTest : public ::testing::Test
{
  protected:
    std::string
    tempPath(const std::string &suffix)
    {
        const std::string path =
            ::testing::TempDir() + "/confsim_tel_" +
            ::testing::UnitTest::GetInstance()
                ->current_test_info()
                ->name() +
            suffix;
        paths_.push_back(path);
        return path;
    }

    void
    TearDown() override
    {
        for (const auto &path : paths_)
            std::remove(path.c_str());
    }

  private:
    std::vector<std::string> paths_;
};

TEST_F(TelemetryIntegrationTest, FullSuiteWithFaultsLeavesCompleteLog)
{
    const std::string log = tempPath(".jsonl");
    const BenchmarkSuite suite = BenchmarkSuite::ibs(3000);
    ASSERT_EQ(suite.size(), 9u);
    const std::string faulty = suite.profile(0).name;
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        const auto telemetry = Telemetry::fromOptions(telemetry_options);

        RunManifest manifest = RunManifest::withBuildInfo();
        manifest.tool = "telemetry_test";
        manifest.suite = "ibs-full";
        for (std::size_t i = 0; i < suite.size(); ++i) {
            ManifestBenchmark bench;
            bench.name = suite.profile(i).name;
            bench.seed = suite.profile(i).seed;
            bench.branches = 3000;
            manifest.benchmarks.push_back(bench);
        }
        telemetry->setManifest(manifest);

        SuiteRunner runner(suite);
        runner.setSourceWrapper(
            [](std::size_t bench, std::unique_ptr<TraceSource> inner)
                -> std::unique_ptr<TraceSource> {
                if (bench != 0)
                    return inner;
                FaultSpec spec;
                spec.dropProb = 0.01;
                spec.takenFlipProb = 0.01;
                return std::make_unique<FaultInjectingTraceSource>(
                    std::move(inner), spec);
            });
        DriverOptions options;
        options.telemetry = telemetry.get();
        runner.run(makePredictor(), makeEstimators(), options);
        telemetry->finish();
    }

    const auto lines = readLines(log);
    ASSERT_GE(lines.size(), 12u);

    // Manifest first, naming the suite and all nine benchmarks.
    EXPECT_NE(lines[0].find("\"type\":\"manifest\""),
              std::string::npos);
    EXPECT_NE(lines[0].find("\"suite\":\"ibs-full\""),
              std::string::npos);
    for (std::size_t i = 0; i < suite.size(); ++i) {
        EXPECT_NE(lines[0].find("\"" + suite.profile(i).name + "\""),
                  std::string::npos);
    }

    // One lifecycle pair, nine started/finished benchmark events.
    EXPECT_EQ(countContaining(lines, "\"type\":\"suite_run_started\""),
              1u);
    EXPECT_EQ(
        countContaining(lines, "\"type\":\"suite_run_finished\""), 1u);
    EXPECT_EQ(countContaining(lines, "\"type\":\"benchmark_started\""),
              9u);
    EXPECT_EQ(
        countContaining(lines, "\"type\":\"benchmark_finished\""), 9u);
    EXPECT_EQ(countContaining(lines, "\"survivors\":9"), 1u);

    // Every benchmark_finished reports a first-try success and timing.
    for (const auto &line : lines) {
        if (line.find("\"type\":\"benchmark_finished\"") ==
            std::string::npos) {
            continue;
        }
        EXPECT_NE(line.find("\"attempts\":1"), std::string::npos)
            << line;
        EXPECT_NE(line.find("\"wall_ms\":"), std::string::npos);
        EXPECT_NE(line.find("\"mispredict_rate\":"),
                  std::string::npos);
    }

    // Fault events fired, all attributed to the wrapped benchmark,
    // and the registry counters agree with the event count (i.e. no
    // injected fault went unreported).
    const std::size_t drops =
        countContaining(lines, "\"kind\":\"drop\"");
    const std::size_t flips =
        countContaining(lines, "\"kind\":\"taken_flip\"");
    EXPECT_GT(drops, 0u);
    EXPECT_GT(flips, 0u);
    EXPECT_EQ(countContaining(lines, "\"type\":\"fault_injected\""),
              drops + flips);
    for (const auto &line : lines) {
        if (line.find("\"type\":\"fault_injected\"") !=
            std::string::npos) {
            EXPECT_NE(line.find("\"benchmark\":\"" + faulty + "\""),
                      std::string::npos)
                << line;
        }
    }
    const std::string &snapshot = lines.back();
    EXPECT_NE(snapshot.find("\"type\":\"metrics_snapshot\""),
              std::string::npos);
    EXPECT_NE(snapshot.find("\"faults.drop\":" +
                            std::to_string(drops)),
              std::string::npos);
    EXPECT_NE(snapshot.find("\"faults.taken_flip\":" +
                            std::to_string(flips)),
              std::string::npos);
    EXPECT_NE(snapshot.find("\"sweep.runs\":9"), std::string::npos);
}

TEST_F(TelemetryIntegrationTest, RetriesSurfaceAsEvents)
{
    const std::string log = tempPath(".jsonl");
    const BenchmarkSuite suite =
        BenchmarkSuite::ibsSubset({"jpeg", "groff"}, 5000);
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        const auto telemetry = Telemetry::fromOptions(telemetry_options);
        SuiteRunner runner(suite);
        runner.setSourceWrapper(
            [](std::size_t bench, std::unique_ptr<TraceSource> inner)
                -> std::unique_ptr<TraceSource> {
                if (bench != 1)
                    return inner;
                FaultSpec spec;
                spec.failAfter = 1000; // deterministic hard failure
                return std::make_unique<FaultInjectingTraceSource>(
                    std::move(inner), spec);
            });
        DriverOptions options;
        options.telemetry = telemetry.get();
        RunPolicy policy;
        policy.errorMode = ErrorMode::kContinueOnError;
        policy.maxAttempts = 2;
        const auto result = runner.run(makePredictor(),
                                       makeEstimators(), options,
                                       policy);
        EXPECT_TRUE(result.degraded);
        ASSERT_EQ(result.perBenchmark.size(), 2u);
        EXPECT_EQ(result.perBenchmark[1].attempts, 2u);
        telemetry->finish();
    }

    const auto lines = readLines(log);
    EXPECT_EQ(countContaining(lines, "\"type\":\"benchmark_retry\""),
              1u);
    // One hard_fail fault event per attempt.
    EXPECT_EQ(countContaining(lines, "\"kind\":\"hard_fail\""), 2u);
    // The failed benchmark reports both attempts and its error.
    bool saw_failed = false;
    for (const auto &line : lines) {
        if (line.find("\"type\":\"benchmark_finished\"") !=
                std::string::npos &&
            line.find("\"benchmark\":\"groff\"") !=
                std::string::npos) {
            saw_failed = true;
            EXPECT_NE(line.find("\"attempts\":2"), std::string::npos);
            EXPECT_NE(line.find("injected fault"), std::string::npos);
        }
    }
    EXPECT_TRUE(saw_failed);
    EXPECT_EQ(countContaining(lines, "\"degraded\":true"), 1u);
}

TEST_F(TelemetryIntegrationTest, CorruptChunkRecoveryEmitsSkipEvents)
{
    const std::string log = tempPath(".jsonl");
    const std::string trace = tempPath(".cbt");
    const BenchmarkSuite suite =
        BenchmarkSuite::ibsSubset({"jpeg"}, 20000);
    {
        auto generator = suite.makeGenerator(0);
        writeTraceFile(*generator, trace);
        // Flip one payload bit inside the first chunk.
        std::fstream file(trace, std::ios::binary | std::ios::in |
                                     std::ios::out);
        ASSERT_TRUE(file);
        file.seekg(16 + 12 + 100);
        char byte = 0;
        file.get(byte);
        file.seekp(16 + 12 + 100);
        file.put(static_cast<char>(byte ^ 0x10));
    }
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        const auto telemetry = Telemetry::fromOptions(telemetry_options);
        SuiteRunner runner(suite);
        runner.setSourceWrapper(
            [&trace](std::size_t, std::unique_ptr<TraceSource>)
                -> std::unique_ptr<TraceSource> {
                return std::make_unique<TraceFileReader>(
                    trace, RecoveryMode::kSkipCorrupt);
            });
        DriverOptions options;
        options.telemetry = telemetry.get();
        const auto result =
            runner.run(makePredictor(), makeEstimators(), options);
        EXPECT_FALSE(result.degraded);
        telemetry->finish();
    }

    const auto lines = readLines(log);
    const std::size_t skips =
        countContaining(lines, "\"type\":\"corrupt_chunk_skipped\"");
    EXPECT_GE(skips, 1u);
    bool saw_detail = false;
    for (const auto &line : lines) {
        if (line.find("\"type\":\"corrupt_chunk_skipped\"") !=
            std::string::npos) {
            saw_detail = true;
            EXPECT_NE(line.find("\"what\":"), std::string::npos);
            EXPECT_NE(line.find("\"dropped_records\":"),
                      std::string::npos);
        }
    }
    EXPECT_TRUE(saw_detail);
    EXPECT_NE(lines.back().find("\"trace.corrupt_chunks_skipped\":"),
              std::string::npos);
}

TEST_F(TelemetryIntegrationTest, RunForwardsSweepOptionsToTheEngine)
{
    // SuiteRunner::run takes SweepOptions, so a library caller can
    // bound the threads it starts without CONFSIM_SEQUENTIAL; every
    // pass reports the knobs it ran with.
    const std::string bounded_log = tempPath("-bounded.jsonl");
    const std::string default_log = tempPath("-default.jsonl");
    const BenchmarkSuite suite =
        BenchmarkSuite::ibsSubset({"jpeg", "groff"}, 3000);
    for (const std::string &log : {bounded_log, default_log}) {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        const auto telemetry = Telemetry::fromOptions(telemetry_options);
        DriverOptions options;
        options.telemetry = telemetry.get();
        SuiteRunner runner(suite);
        if (log == bounded_log) {
            SweepOptions sweep;
            sweep.threads = 1;
            sweep.decodeAhead = 1;
            runner.run(makePredictor(), makeEstimators(), options, {},
                       sweep);
        } else {
            runner.run(makePredictor(), makeEstimators(), options);
        }
        telemetry->finish();
    }

    const auto started = [](const std::string &log) {
        std::vector<std::string> out;
        for (const auto &line : readLines(log)) {
            if (line.find("\"type\":\"sweep_run_started\"") !=
                std::string::npos)
                out.push_back(line);
        }
        return out;
    };
    const auto bounded = started(bounded_log);
    ASSERT_EQ(bounded.size(), suite.size());
    for (const auto &line : bounded) {
        EXPECT_NE(line.find("\"threads\":1,"), std::string::npos) << line;
        EXPECT_NE(line.find("\"decode_ahead\":1,"), std::string::npos)
            << line;
    }
    // The default ring depth shows the options really were forwarded.
    if (!sequentialForced()) {
        const std::string depth =
            "\"decode_ahead\":" +
            std::to_string(SweepOptions::kDefaultDecodeAhead) + ",";
        for (const auto &line : started(default_log))
            EXPECT_NE(line.find(depth), std::string::npos) << line;
    }
}

TEST_F(TelemetryIntegrationTest, SweepRunFinishedCountsPredictorRuns)
{
    // Three configurations on one gshare design share one predictor;
    // a fourth on another geometry needs its own.
    const std::string log = tempPath(".jsonl");
    const auto on = [](PredictorFactory make) {
        return SweepConfiguration{"", std::move(make), makeEstimators()};
    };
    std::vector<SweepConfiguration> configs = {
        on(makePredictor()), on(makePredictor()), on(makePredictor()),
        on([] { return std::make_unique<GsharePredictor>(4096, 10); })};
    for (std::size_t c = 0; c < configs.size(); ++c)
        configs[c].label = "cfg" + std::to_string(c);
    {
        TelemetryOptions telemetry_options;
        telemetry_options.jsonlPath = log;
        const auto telemetry = Telemetry::fromOptions(telemetry_options);
        DriverOptions options;
        options.telemetry = telemetry.get();
        SweepOptions sweep;
        sweep.threads = 1;
        SweepEngine engine(configs, options, sweep);
        auto source = BenchmarkSuite::ibsSmall(3000).makeGenerator(0);
        EXPECT_EQ(engine.run(*source).predictorRuns, 2u);
        telemetry->finish();
    }
    const auto lines = readLines(log);
    ASSERT_EQ(countContaining(lines, "\"type\":\"sweep_run_finished\""),
              1u);
    EXPECT_EQ(countContaining(lines, "\"predictor_runs\":2,"), 1u);
}

TEST_F(TelemetryIntegrationTest, RunSweepSizesBenchmarkSlotsByTrunks)
{
    // A benchmark's pass uses one shard per fused trunk, so three
    // configurations on one design leave the other workers to further
    // benchmarks, while three on distinct designs fill all three.
    const BenchmarkSuite suite =
        BenchmarkSuite::ibsSubset({"jpeg", "groff"}, 3000);
    const auto startedParallel = [&](const std::vector<PredictorFactory>
                                         &designs) {
        const std::string log = tempPath(".jsonl");
        std::vector<SweepConfiguration> configs;
        for (const PredictorFactory &make : designs)
            configs.push_back(SweepConfiguration{
                "cfg" + std::to_string(configs.size()), make,
                makeEstimators()});
        {
            TelemetryOptions telemetry_options;
            telemetry_options.jsonlPath = log;
            const auto telemetry =
                Telemetry::fromOptions(telemetry_options);
            DriverOptions options;
            options.telemetry = telemetry.get();
            SweepOptions sweep;
            sweep.threads = 3;
            SuiteRunner(suite).runSweep(configs, options, sweep);
            telemetry->finish();
        }
        const auto lines = readLines(log);
        EXPECT_EQ(countContaining(lines, "\"type\":\"sweep_run_finished\""),
                  suite.size());
        return countContaining(lines, "\"parallel\":true") == 1;
    };
    const PredictorFactory one = makePredictor();
    const bool fused = startedParallel({one, one, one});
    const bool distinct = startedParallel(
        {one, [] { return std::make_unique<GsharePredictor>(4096, 10); },
         [] { return std::make_unique<GsharePredictor>(8192, 12); }});
    EXPECT_EQ(fused, !sequentialForced());
    EXPECT_FALSE(distinct);
}

} // namespace
} // namespace confsim
