/**
 * @file
 * The pairing contract of the native confidence estimators (TAGE
 * provider, perceptron margin) at the replay engine. Such an estimator
 * reads the predictor of its configuration, so:
 *
 *  - a predictor of another family or another geometry is rejected as
 *    Error{kConfig} before any branch is simulated;
 *  - a matching pair replays bit-exactly like the unpaired estimator,
 *    which drives a private predictor, under the independent reference
 *    replay, and holds no tables of its own;
 *  - a paired estimator's checkpoint part is its predictor's state,
 *    checked against the restored predictor on resume: one flipped
 *    byte fails the resume as Error{kCheckpoint}.
 */

#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "confidence/composite_confidence.h"
#include "confidence/one_level.h"
#include "confidence/perceptron_margin.h"
#include "confidence/tage_confidence.h"
#include "predictor/gshare.h"
#include "predictor/perceptron.h"
#include "predictor/tage.h"
#include "sim/sweep_engine.h"
#include "support/reference_replay.h"
#include "util/error.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 20'000;

std::unique_ptr<TraceSource>
freshSource()
{
    return BenchmarkSuite::ibsSmall(kBranches).makeGenerator(1);
}

PredictorFactory
smallTage()
{
    return [] {
        return std::make_unique<TagePredictor>(TageConfig::makeSmall());
    };
}

PredictorFactory
smallPerceptron()
{
    return [] {
        return std::make_unique<PerceptronPredictor>(
            PerceptronConfig::makeSmall());
    };
}

EstimatorSetFactory
tageProvider()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<TageProviderConfidence>(
            TageConfig::makeSmall()));
        return out;
    };
}

EstimatorSetFactory
perceptronMargin()
{
    return [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<PerceptronMarginConfidence>(
            PerceptronConfig::makeSmall(), 8));
        return out;
    };
}

/** Run one configuration; @return the category it failed with. */
std::optional<ErrorCategory>
runFailure(PredictorFactory predictor, EstimatorSetFactory estimators)
{
    SweepEngine engine(
        {{"pair", std::move(predictor), std::move(estimators)}});
    auto source = freshSource();
    try {
        engine.run(*source);
    } catch (const Error &e) {
        return e.category();
    }
    return std::nullopt;
}

PredictorFactory
gshare()
{
    return [] { return std::make_unique<GsharePredictor>(4096, 12); };
}

TEST(NativePairing, TageProviderRejectsAnotherFamily)
{
    EXPECT_EQ(runFailure(gshare(), tageProvider()), ErrorCategory::kConfig);
    EXPECT_EQ(runFailure(smallPerceptron(), tageProvider()),
              ErrorCategory::kConfig);
}

TEST(NativePairing, TageProviderRejectsAnotherGeometry)
{
    EXPECT_EQ(runFailure([] { return std::make_unique<TagePredictor>(); },
                         tageProvider()),
              ErrorCategory::kConfig);
    TageConfig other_tags = TageConfig::makeSmall();
    other_tags.tagBits = 8; // same name(), different tag hash
    EXPECT_EQ(runFailure(
                  [other_tags] {
                      return std::make_unique<TagePredictor>(other_tags);
                  },
                  tageProvider()),
              ErrorCategory::kConfig);
}

TEST(NativePairing, PerceptronMarginRejectsAnotherFamily)
{
    EXPECT_EQ(runFailure(gshare(), perceptronMargin()),
              ErrorCategory::kConfig);
    EXPECT_EQ(runFailure(smallTage(), perceptronMargin()),
              ErrorCategory::kConfig);
}

TEST(NativePairing, PerceptronMarginRejectsAnotherGeometry)
{
    EXPECT_EQ(
        runFailure([] { return std::make_unique<PerceptronPredictor>(); },
                   perceptronMargin()),
        ErrorCategory::kConfig);
    PerceptronConfig narrow = PerceptronConfig::makeSmall();
    narrow.weightBits = 6; // same name(), different clamping
    EXPECT_EQ(runFailure(
                  [narrow] {
                      return std::make_unique<PerceptronPredictor>(narrow);
                  },
                  perceptronMargin()),
              ErrorCategory::kConfig);
}

TEST(NativePairing, CompositePairsItsConstituents)
{
    const auto composite = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<CompositeConfidence>(
            std::make_unique<OneLevelCounterConfidence>(
                IndexScheme::PcXorBhr, 1024, CounterKind::Resetting, 16, 0),
            std::make_unique<TageProviderConfidence>(
                TageConfig::makeSmall())));
        return out;
    };
    EXPECT_EQ(runFailure(gshare(), composite), ErrorCategory::kConfig);
    EXPECT_EQ(runFailure(smallTage(), composite), std::nullopt);
}

TEST(NativePairing, MatchingPairsReplayLikeTheUnpairedReference)
{
    struct Native
    {
        std::string label;
        PredictorFactory predictor;
        EstimatorSetFactory estimators;
    };
    const Native natives[] = {
        {"tage_provider", smallTage(), tageProvider()},
        {"perceptron_margin", smallPerceptron(), perceptronMargin()}};
    for (const Native &native : natives) {
        SCOPED_TRACE(native.label);
        DriverOptions options;
        options.warmupBranches = 1'000;

        // The reference drives an unpaired estimator: its own private
        // predictor, trained inside update().
        const auto predictor = native.predictor();
        const auto estimators = native.estimators();
        auto reference_source = freshSource();
        const ReferenceResult expected = referenceReplay(
            *reference_source, *predictor, {estimators[0].get()}, options);

        ConfidenceEstimator *paired = nullptr;
        SweepConfiguration config{native.label, native.predictor,
                                  [&native, &paired] {
                                      auto out = native.estimators();
                                      paired = out[0].get();
                                      return out;
                                  }};
        SweepOptions sweep;
        sweep.threads = 2;
        sweep.batchSize = 777;
        SweepEngine engine({config, config}, options, sweep);
        auto source = freshSource();
        const SweepRunResult result = engine.run(*source);

        const auto *tage = dynamic_cast<TageProviderConfidence *>(paired);
        const auto *margin =
            dynamic_cast<PerceptronMarginConfidence *>(paired);
        EXPECT_TRUE((tage != nullptr && tage->paired()) ||
                    (margin != nullptr && margin->paired()));
        for (const SweepConfigResult &r : result.perConfig) {
            EXPECT_EQ(r.branches, expected.branches);
            EXPECT_EQ(r.mispredicts, expected.mispredicts);
            ASSERT_EQ(r.estimatorStats.size(), 1u);
            const BucketStats &want = expected.estimatorStats[0];
            ASSERT_EQ(r.estimatorStats[0].numBuckets(), want.numBuckets());
            for (std::uint64_t b = 0; b < want.numBuckets(); ++b) {
                EXPECT_EQ(r.estimatorStats[0][b].refs, want[b].refs)
                    << "bucket " << b;
                EXPECT_EQ(r.estimatorStats[0][b].mispredicts,
                          want[b].mispredicts)
                    << "bucket " << b;
            }
        }
    }
}

/** A per-test checkpoint directory, removed unless the test failed. */
class NativePairingCheckpoint : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "/confsim_native_pairing_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name();
        std::filesystem::remove_all(dir_);
    }

    void
    TearDown() override
    {
        if (!HasFailure())
            std::filesystem::remove_all(dir_);
    }

    /**
     * Checkpoint a pass of @p config, flip one byte in the middle of
     * its estimator part, and resume a fresh engine from the result.
     * The pristine checkpoint must resume cleanly.
     */
    void
    expectCorruptEstimatorPartRejected(const SweepConfiguration &config,
                                       const std::string &estimator_part)
    {
        CheckpointStore store(dir_, "pairing");
        {
            SweepEngine engine({config});
            engine.checkpointEvery(5'000, &store);
            auto source = freshSource();
            engine.run(*source);
        }
        const std::optional<Checkpoint> pristine = store.loadLatestValid();
        ASSERT_TRUE(pristine.has_value());
        {
            SweepEngine engine({config});
            auto source = freshSource();
            EXPECT_NO_THROW(engine.resume(*source, *pristine));
        }

        Checkpoint corrupt;
        corrupt.label = pristine->label;
        corrupt.watermark = pristine->watermark;
        corrupt.branches = pristine->branches;
        bool flipped = false;
        for (const CheckpointComponent &part : pristine->components()) {
            std::vector<std::uint8_t> payload = part.payload;
            if (part.name == estimator_part) {
                ASSERT_GT(payload.size(), 16u);
                payload[payload.size() / 2] ^= 0x01;
                flipped = true;
            }
            corrupt.add(part.name, part.version, std::move(payload));
        }
        ASSERT_TRUE(flipped)
            << "no checkpoint part named " << estimator_part;

        SweepEngine engine({config});
        auto source = freshSource();
        try {
            engine.resume(*source, corrupt);
            FAIL() << "resume accepted a corrupt " << estimator_part;
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kCheckpoint)
                << e.what();
        }
    }

    std::string dir_;
};

TEST_F(NativePairingCheckpoint, CorruptTageProviderPartFailsAsCheckpoint)
{
    expectCorruptEstimatorPartRejected(
        {"tage", smallTage(), tageProvider()},
        "cfg0:estimator0:tage-provider");
}

TEST_F(NativePairingCheckpoint, CorruptPerceptronMarginPartFailsAsCheckpoint)
{
    expectCorruptEstimatorPartRejected(
        {"perceptron", smallPerceptron(), perceptronMargin()},
        "cfg0:estimator0:perceptron-margin");
}

} // namespace
} // namespace confsim
