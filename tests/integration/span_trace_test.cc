/**
 * @file
 * Integration test for execution-span tracing across the pipelined
 * sweep: an 8-configuration decode-ahead sweep with checkpointing must
 * emit correctly nested producer/shard/barrier spans on correctly
 * named threads, and the exported Chrome trace file must be balanced.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "confidence/two_level.h"
#include "obs/span.h"
#include "predictor/gshare.h"
#include "sim/sweep_engine.h"
#include "workload/suite.h"

namespace confsim {
namespace {

PredictorFactory
testPredictor(unsigned history_bits)
{
    return [history_bits] {
        return std::make_unique<GsharePredictor>(4096, history_bits);
    };
}

/**
 * Eight small sweep configurations (the acceptance scenario) on two
 * gshare designs, so they replay as two trunks and a two-thread sweep
 * runs both worker shards: configurations on one design would fuse
 * onto a single trunk that replays inline.
 */
std::vector<SweepConfiguration>
eightConfigs()
{
    auto one = [](std::unique_ptr<ConfidenceEstimator> estimator) {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::move(estimator));
        return out;
    };
    std::vector<SweepConfiguration> configs;
    for (int i = 0; i < 4; ++i) {
        configs.push_back(
            {"resetting_" + std::to_string(i), testPredictor(12),
             [one, i] {
                 return one(
                     std::make_unique<OneLevelCounterConfidence>(
                         IndexScheme::PcXorBhr, 256u << i,
                         CounterKind::Resetting, 16, 0));
             }});
        configs.push_back(
            {"two_level_" + std::to_string(i), testPredictor(11),
             [one, i] {
                 return one(std::make_unique<TwoLevelConfidence>(
                     IndexScheme::Pc, 256u << i, 8,
                     SecondLevelIndex::CirXorPc, 8));
             }});
    }
    return configs;
}

std::string
readWholeFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::size_t
countOccurrences(const std::string &haystack, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = haystack.find(needle);
         pos != std::string::npos;
         pos = haystack.find(needle, pos + needle.size()))
        ++count;
    return count;
}

TEST(SpanTraceIntegration, PipelinedSweepEmitsNestedNamedSpans)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "span_trace_integration";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string trace_path = (dir / "trace.json").string();

    SpanTracerOptions span_options;
    span_options.path = trace_path;
    SpanTracer tracer(span_options);

    DriverOptions options;
    options.spans = &tracer;
    SweepOptions sweep;
    sweep.threads = 2;
    sweep.decodeAhead = 3;

    CheckpointStore store(dir.string(), "span-trace", 2);
    store.setSpanTracer(&tracer);
    SweepRunResult result;
    {
        SweepEngine engine(eightConfigs(), options, sweep);
        engine.checkpointEvery(15'000, &store);
        auto source = BenchmarkSuite::ibsSmall(60'000).makeGenerator(0);
        result = engine.run(*source);
    }

    ASSERT_EQ(result.perConfig.size(), 8u);
    ASSERT_GT(result.checkpointsWritten, 0u);

    // Pipeline-occupancy accounting derived from the same run.
    EXPECT_GT(result.shardBusyFrac, 0.0);
    EXPECT_LE(result.shardBusyFrac, 1.0 + 1e-9);
    EXPECT_GE(result.barrierWaitMs, 0.0);

    const auto events = tracer.snapshotEvents();
    ASSERT_FALSE(events.empty());

    // Per-thread LIFO nesting: within each tid the begin/end stream
    // must nest like matched parentheses with monotonic timestamps
    // (the ring is far larger than this run, so nothing was dropped).
    std::map<int, std::vector<std::string>> stacks;
    std::map<int, std::uint64_t> last_ts;
    std::set<std::string> names;
    std::map<std::string, std::string> thread_of_span;
    for (const auto &event : events) {
        auto ts_it = last_ts.find(event.tid);
        if (ts_it != last_ts.end()) {
            EXPECT_GE(event.tsNs, ts_it->second)
                << "timestamps regress on tid " << event.tid;
        }
        last_ts[event.tid] = event.tsNs;
        names.insert(event.name);
        if (event.phase == 'B') {
            stacks[event.tid].push_back(event.name);
            thread_of_span[event.name] = event.threadName;
        } else if (event.phase == 'E') {
            auto &stack = stacks[event.tid];
            ASSERT_FALSE(stack.empty())
                << "unmatched end of '" << event.name << "' on tid "
                << event.tid;
            EXPECT_EQ(stack.back(), event.name)
                << "spans must close LIFO on tid " << event.tid;
            stack.pop_back();
        }
    }
    for (const auto &[tid, stack] : stacks)
        EXPECT_TRUE(stack.empty())
            << stack.size() << " spans left open on tid " << tid;

    // The instrumented pipeline stages all fired...
    EXPECT_TRUE(names.count("decode.refill"));
    EXPECT_TRUE(names.count("decode.barrier_wait"));
    EXPECT_TRUE(names.count("shard.replay"));
    EXPECT_TRUE(names.count("ckpt.write"));
    EXPECT_TRUE(names.count("ckpt.store_write"));
    EXPECT_TRUE(names.count("decode_ring.filled"));
    EXPECT_TRUE(names.count("sweep.pool_occupancy"));
    // ...on the threads they belong to.
    EXPECT_EQ(thread_of_span["decode.refill"], "decode-producer");
    EXPECT_EQ(thread_of_span["decode.barrier_wait"],
              "decode-producer");
    EXPECT_EQ(thread_of_span["shard.replay"], "sweep-worker");

    const auto summary = tracer.finish();
    EXPECT_EQ(summary.dropped, 0u);
    EXPECT_GE(summary.threads, 3u); // consumer + producer + workers

    // The exported file is Chrome/Perfetto trace-event JSON with
    // process/thread metadata and balanced duration events.
    const std::string json = readWholeFile(trace_path);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"process_name\""), std::string::npos);
    EXPECT_NE(json.find("\"decode-producer\""), std::string::npos);
    EXPECT_NE(json.find("\"sweep-worker\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""),
              countOccurrences(json, "\"ph\":\"E\""));

    std::filesystem::remove_all(dir);
}

TEST(SpanTraceIntegration, TracingNeverChangesSweepResults)
{
    // Differential: the same pipelined sweep with and without a span
    // tracer attached must be bit-exact (the null-facade contract,
    // end to end).
    const auto run = [](SpanTracer *tracer) {
        DriverOptions options;
        options.spans = tracer;
        SweepOptions sweep;
        sweep.threads = 2;
        sweep.decodeAhead = 3;
        SweepEngine engine(eightConfigs(), options, sweep);
        auto source = BenchmarkSuite::ibsSmall(30'000).makeGenerator(0);
        return engine.run(*source);
    };

    const SweepRunResult plain = run(nullptr);
    SpanTracerOptions span_options;
    span_options.path =
        ::testing::TempDir() + "/confsim_span_differential.json";
    SweepRunResult traced;
    {
        SpanTracer tracer(span_options);
        traced = run(&tracer);
    }

    ASSERT_EQ(plain.perConfig.size(), traced.perConfig.size());
    for (std::size_t c = 0; c < plain.perConfig.size(); ++c) {
        SCOPED_TRACE("config " + std::to_string(c));
        EXPECT_EQ(plain.perConfig[c].branches,
                  traced.perConfig[c].branches);
        EXPECT_EQ(plain.perConfig[c].mispredicts,
                  traced.perConfig[c].mispredicts);
        const auto &eb = plain.perConfig[c].estimatorStats;
        const auto &ab = traced.perConfig[c].estimatorStats;
        ASSERT_EQ(eb.size(), ab.size());
        for (std::size_t e = 0; e < eb.size(); ++e) {
            ASSERT_EQ(eb[e].numBuckets(), ab[e].numBuckets());
            for (std::uint64_t b = 0; b < eb[e].numBuckets(); ++b) {
                EXPECT_EQ(eb[e][b].refs, ab[e][b].refs);
                EXPECT_EQ(eb[e][b].mispredicts, ab[e][b].mispredicts);
            }
        }
    }
    std::remove(span_options.path.c_str());
}

} // namespace
} // namespace confsim
