/**
 * @file
 * Differential correctness harness for the replay engine.
 *
 * The engine's contract is bit-exactness against the paper's loop:
 * every configuration of a sweep, however many share the decode pass,
 * must produce EXACTLY what the independent reference replay
 * (tests/support/reference_replay.h) produces for it alone — same
 * branch counts, same per-bucket reference/misprediction doubles,
 * same reduction curves, same serialized component bytes. The
 * reference shares no code with the engine's record loop, so these
 * tests compare two implementations, not one loop copied twice.
 * Every (predictor, estimator) family in the shared registry
 * (tests/support/family_registry.h) is covered, so a family added
 * there can never silently skip this wall. Thread count, batch size, and
 * decode-ahead depth are varied to prove they never leak into
 * results, and checkpoints are round-tripped to prove resume is
 * bit-exact too.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "confidence/one_level.h"
#include "metrics/bucket_stats.h"
#include "metrics/confidence_curve.h"
#include "predictor/gshare.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "support/family_registry.h"
#include "support/reference_replay.h"
#include "util/error.h"
#include "workload/suite.h"

namespace confsim {
namespace {

constexpr std::uint64_t kBranches = 60'000;

using Family = SweepConfiguration;

/** Every (predictor, estimator) family in the shared registry. */
std::vector<Family>
allFamilies()
{
    return differentialFamilyRegistry();
}

/** Fresh deterministic source: benchmark 0 of the reduced suite. */
std::unique_ptr<TraceSource>
freshSource(std::uint64_t branches = kBranches)
{
    return BenchmarkSuite::ibsSmall(branches).makeGenerator(0);
}

/** The reference: one naive replay plus its final state bytes. */
struct SequentialRun
{
    ReferenceResult result;
    std::vector<std::uint8_t> stateBytes;     //!< predictor + estimators
    std::vector<std::uint8_t> estimatorBytes; //!< estimators alone
};

/**
 * Serialize predictor + estimator state with fixed component names;
 * a null @p predictor serializes the estimators alone.
 */
std::vector<std::uint8_t>
snapshotBytes(BranchPredictor *predictor,
              const std::vector<ConfidenceEstimator *> &estimators)
{
    Checkpoint ckpt;
    ckpt.label = "differential";
    if (predictor != nullptr)
        ckpt.addComponent("predictor", *predictor);
    for (std::size_t i = 0; i < estimators.size(); ++i) {
        ckpt.addComponent("estimator" + std::to_string(i),
                          *estimators[i]);
    }
    return ckpt.serialize();
}

SequentialRun
runSequential(const Family &family, DriverOptions options,
              std::uint64_t branches = kBranches)
{
    auto predictor = family.makePredictor();
    auto owned = family.makeEstimators();
    std::vector<ConfidenceEstimator *> raw;
    raw.reserve(owned.size());
    for (auto &estimator : owned)
        raw.push_back(estimator.get());
    auto source = freshSource(branches);
    SequentialRun run;
    run.result = referenceReplay(*source, *predictor, raw, options);
    run.stateBytes = snapshotBytes(predictor.get(), raw);
    run.estimatorBytes = snapshotBytes(nullptr, raw);
    return run;
}

/** Bit-exact comparison of one config's sweep result vs the reference. */
void
expectIdentical(const ReferenceResult &sequential,
                const SweepConfigResult &sweep,
                const std::string &context)
{
    SCOPED_TRACE(context);
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
            // Exact double equality: both paths perform identical
            // +1.0 increments in identical order.
            EXPECT_EQ(expected[b].refs, actual[b].refs)
                << "bucket " << b;
            EXPECT_EQ(expected[b].mispredicts, actual[b].mispredicts)
                << "bucket " << b;
        }

        const ConfidenceCurve expected_curve =
            ConfidenceCurve::fromBucketStats(expected);
        const ConfidenceCurve actual_curve =
            ConfidenceCurve::fromBucketStats(actual);
        ASSERT_EQ(expected_curve.points().size(),
                  actual_curve.points().size());
        for (std::size_t p = 0; p < expected_curve.points().size();
             ++p) {
            EXPECT_EQ(expected_curve.points()[p].bucket,
                      actual_curve.points()[p].bucket);
            EXPECT_EQ(expected_curve.points()[p].refFraction,
                      actual_curve.points()[p].refFraction);
            EXPECT_EQ(expected_curve.points()[p].mispredFraction,
                      actual_curve.points()[p].mispredFraction);
        }
    }

    // Static profile (only populated when profiling was on).
    ASSERT_EQ(sequential.staticProfile.size(),
              sweep.staticProfile.size());
    for (const auto &[pc, entry] :
         sequential.staticProfile.entries()) {
        const auto it = sweep.staticProfile.entries().find(pc);
        ASSERT_NE(it, sweep.staticProfile.entries().end())
            << "pc " << pc;
        EXPECT_EQ(entry.executions, it->second.executions);
        EXPECT_EQ(entry.mispredictions, it->second.mispredictions);
        EXPECT_EQ(entry.takenCount, it->second.takenCount);
    }
}

TEST(SweepDifferential, AllFamiliesBitExactSingleThread)
{
    const std::vector<Family> families = allFamilies();
    DriverOptions options;
    options.profileStatic = true;

    SweepOptions sweep;
    sweep.threads = 1;
    SweepEngine engine(families, options, sweep);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    ASSERT_EQ(result.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        const SequentialRun reference =
            runSequential(families[c], options);
        expectIdentical(reference.result, result.perConfig[c],
                        families[c].label + " (1 thread)");
    }
}

TEST(SweepDifferential, AllFamiliesBitExactMultiThread)
{
    const std::vector<Family> families = allFamilies();
    DriverOptions options;
    options.profileStatic = true;

    SweepOptions sweep;
    sweep.threads = 4;
    sweep.batchSize = 1000; // not a divisor of the trace length
    SweepEngine engine(families, options, sweep);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);

    ASSERT_EQ(result.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        const SequentialRun reference =
            runSequential(families[c], options);
        expectIdentical(reference.result, result.perConfig[c],
                        families[c].label + " (4 threads)");
    }
}

TEST(SweepDifferential, BatchSizeNeverChangesResults)
{
    const Family family = differentialFamilyNamed("counter_resetting");
    DriverOptions options;
    options.profileStatic = true;
    const SequentialRun reference = runSequential(family, options);

    for (const std::size_t batch_size :
         {std::size_t{1}, std::size_t{7}, std::size_t{101},
          std::size_t{4096}}) {
        SweepOptions sweep;
        sweep.threads = 2;
        sweep.batchSize = batch_size;
        SweepEngine engine({family, family}, options,
                           sweep);
        auto source = freshSource();
        const SweepRunResult result = engine.run(*source);
        ASSERT_EQ(result.perConfig.size(), 2u);
        for (std::size_t c = 0; c < 2; ++c) {
            expectIdentical(reference.result, result.perConfig[c],
                            "batch size " +
                                std::to_string(batch_size) +
                                " config " + std::to_string(c));
        }
    }
}

TEST(SweepDifferential, WarmupAndContextSwitchCombosBitExact)
{
    // The registry's estimators index by PC and BHR only; the second
    // family indexes by the global CIR too, so a flush that forgot to
    // clear it (or a GCIR that saw the wrong bit) cannot pass.
    Family gcir_family = differentialFamilyNamed("counter_saturating");
    gcir_family.label = "counter_resetting_pcxorbhrxorgcir";
    gcir_family.makeEstimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhrXorGcir, 1024, CounterKind::Resetting,
            16, 0));
        return out;
    };
    const std::uint64_t intervals[] = {0, 777, 500, 700, 1};
    const Family families[] = {
        differentialFamilyNamed("counter_saturating"), gcir_family};
    for (const Family &family : families) {
        for (const std::uint64_t interval : intervals) {
            DriverOptions options;
            options.profileStatic = true;
            options.contextSwitchInterval = interval;

            const SequentialRun reference =
                runSequential(family, options, 20'000);

            SweepOptions sweep;
            sweep.threads = 2;
            sweep.batchSize = 333;
            SweepEngine engine({family, family}, options,
                               sweep);
            auto source = freshSource(20'000);
            const SweepRunResult result = engine.run(*source);
            for (std::size_t c = 0; c < 2; ++c) {
                expectIdentical(
                    reference.result, result.perConfig[c],
                    family.label + " interval=" + std::to_string(interval) +
                        " config " + std::to_string(c));
            }
        }
    }
}

TEST(SweepDifferential, FinalComponentBytesMatchSequential)
{
    // Serialize the final predictor/estimator state reached through
    // each path with identical component names: the checkpoint bytes
    // must be identical, which subsumes every counter, CIR, and table
    // entry the estimator owns.
    const std::vector<Family> families = allFamilies();
    DriverOptions options;

    // Drive the sweep manually so the final states stay accessible:
    // one config per engine, capturing through a wrapper factory.
    for (const auto &family : families) {
        const SequentialRun reference = runSequential(family, options);

        BranchPredictor *sweep_predictor = nullptr;
        std::vector<ConfidenceEstimator *> sweep_estimators;
        SweepConfiguration config;
        config.label = family.label;
        config.makePredictor = [&family, &sweep_predictor] {
            auto predictor = family.makePredictor();
            sweep_predictor = predictor.get();
            return predictor;
        };
        config.makeEstimators = [&family, &sweep_estimators] {
            auto owned = family.makeEstimators();
            sweep_estimators.clear();
            for (auto &estimator : owned)
                sweep_estimators.push_back(estimator.get());
            return owned;
        };

        SweepOptions sweep;
        sweep.threads = 1;
        SweepEngine engine({config}, options, sweep);
        auto source = freshSource();
        engine.run(*source);

        ASSERT_NE(sweep_predictor, nullptr);
        EXPECT_EQ(reference.stateBytes,
                  snapshotBytes(sweep_predictor, sweep_estimators))
            << family.label;
    }
}

TEST(SweepDifferential, CheckpointResumeIsBitExact)
{
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "sweep_resume_differential";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const std::vector<Family> families = {
        differentialFamilyNamed("one_level_raw_pc"),
        differentialFamilyNamed("counter_resetting"),
        differentialFamilyNamed("tage_provider"),
        differentialFamilyNamed("perceptron_margin")};
    DriverOptions options;
    options.profileStatic = true;
    SweepOptions sweep;
    sweep.threads = 2;

    // Checkpointed sweep: write generations mid-run...
    CheckpointStore store(dir.string(), "sweep-test", 2);
    SweepEngine first_engine(families, options, sweep);
    first_engine.checkpointEvery(20'000, &store);
    auto first_source = freshSource();
    const SweepRunResult first = first_engine.run(*first_source);
    ASSERT_GT(first.checkpointsWritten, 0u);

    // ...then resume a fresh engine from the newest valid generation
    // and compare against uninterrupted reference replays.
    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());
    SweepEngine resumed_engine(families, options,
                               sweep);
    auto resumed_source = freshSource();
    const SweepRunResult resumed =
        resumed_engine.resume(*resumed_source, *ckpt);

    ASSERT_EQ(resumed.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectIdentical(runSequential(families[c], options).result,
                        resumed.perConfig[c],
                        families[c].label + " (resumed)");
    }
}

/**
 * Every estimator family as its own configuration on the one reference
 * gshare, plus a second configuration on each native estimator's TAGE
 * and perceptron: three predictor designs, so the engine fuses the
 * fifteen configurations onto three trunks.
 */
std::vector<Family>
fusedFamilies()
{
    std::vector<Family> families = estimatorFamilyRegistry();
    families.push_back(differentialFamilyNamed("pred_tage"));
    families.push_back(differentialFamilyNamed("pred_perceptron"));
    return families;
}

TEST(SweepDifferential, FusedTrunksBitExactAtAnyThreadCount)
{
    const std::vector<Family> families = fusedFamilies();
    constexpr std::uint64_t kFusedBranches = 30'000;
    for (const std::uint64_t interval : {std::uint64_t{0},
                                         std::uint64_t{777}}) {
        DriverOptions options;
        options.profileStatic = true;
        options.contextSwitchInterval = interval;
        std::vector<SequentialRun> references;
        for (const Family &family : families)
            references.push_back(
                runSequential(family, options, kFusedBranches));

        // Three trunks at any thread count: the gshare class stays
        // fused even when shards outnumber trunks.
        const struct
        {
            unsigned threads;
            std::size_t batchSize;
        } runs[] = {{1, 333}, {3, 101}, {4, 1000}};
        for (const auto &run : runs) {
            SweepOptions sweep;
            sweep.threads = run.threads;
            sweep.batchSize = run.batchSize;
            SweepEngine engine(families, options, sweep);
            auto source = freshSource(kFusedBranches);
            const SweepRunResult result = engine.run(*source);
            const std::string context =
                " (interval " + std::to_string(interval) + ", " +
                std::to_string(run.threads) + " threads)";
            EXPECT_EQ(result.predictorRuns, 3u) << context;
            ASSERT_EQ(result.perConfig.size(), families.size());
            for (std::size_t c = 0; c < families.size(); ++c) {
                expectIdentical(references[c].result, result.perConfig[c],
                                families[c].label + context);
            }
        }
    }
}

TEST(SweepDifferential, FusedMembersKeepTheTrunksFinalState)
{
    // After a fused pass every configuration's estimators hold the
    // state of its reference replay, and so does each trunk's predictor.
    // A trunk's predictor is its first configuration's: a later
    // configuration's fresh predictor of the same design was dropped.
    const std::vector<Family> families = fusedFamilies();
    DriverOptions options;
    options.contextSwitchInterval = 7000; // does not divide kBranches

    std::vector<bool> leads(families.size(), true);
    for (std::size_t c = 0; c < families.size(); ++c) {
        const auto predictor = families[c].makePredictor();
        for (std::size_t d = 0; d < c && leads[c]; ++d) {
            const auto earlier = families[d].makePredictor();
            leads[c] = typeid(*earlier) != typeid(*predictor) ||
                       !earlier->sameDesignAs(*predictor);
        }
    }

    std::vector<BranchPredictor *> leaders(families.size(), nullptr);
    std::vector<std::vector<ConfidenceEstimator *>> estimators(
        families.size());
    std::vector<SweepConfiguration> configs;
    for (std::size_t c = 0; c < families.size(); ++c) {
        const Family &family = families[c];
        configs.push_back(
            {family.label,
             [&family, &leaders, &leads, c] {
                 auto predictor = family.makePredictor();
                 if (leads[c])
                     leaders[c] = predictor.get();
                 return predictor;
             },
             [&family, &estimators, c] {
                 auto owned = family.makeEstimators();
                 estimators[c].clear();
                 for (auto &estimator : owned)
                     estimators[c].push_back(estimator.get());
                 return owned;
             }});
    }
    SweepOptions sweep;
    sweep.threads = 2;
    SweepEngine engine(configs, options, sweep);
    auto source = freshSource();
    const SweepRunResult result = engine.run(*source);
    EXPECT_EQ(result.predictorRuns,
              static_cast<std::uint64_t>(
                  std::count(leads.begin(), leads.end(), true)));

    for (std::size_t c = 0; c < families.size(); ++c) {
        const SequentialRun reference = runSequential(families[c], options);
        EXPECT_EQ(reference.estimatorBytes,
                  snapshotBytes(nullptr, estimators[c]))
            << families[c].label;
        if (leads[c]) {
            ASSERT_NE(leaders[c], nullptr);
            EXPECT_EQ(reference.stateBytes,
                      snapshotBytes(leaders[c], estimators[c]))
                << families[c].label << " (trunk predictor)";
        }
    }
}

/** A gshare that counts its live instances. */
class CountingGshare : public GsharePredictor
{
  public:
    explicit CountingGshare(unsigned history_bits)
        : GsharePredictor(4096, history_bits)
    {
        peak = std::max(peak, ++live);
    }

    ~CountingGshare() override { --live; }

    static inline std::size_t live = 0;
    static inline std::size_t peak = 0;
};

TEST(SweepDifferential, FusedConfigurationsHoldOnePredictorPerTrunk)
{
    // Six configurations on two gshare designs ride two trunks. A
    // configuration whose fresh predictor fuses drops it at once, so
    // building the engine never holds more than one predictor beyond
    // the trunks', and a pass ends holding one per trunk.
    const Family estimators = differentialFamilyNamed("counter_resetting");
    std::vector<Family> families;
    for (const unsigned history : {12u, 11u, 12u, 12u, 11u, 12u}) {
        families.push_back(
            {"gshare_h" + std::to_string(history),
             [history] { return std::make_unique<CountingGshare>(history); },
             estimators.makeEstimators});
    }
    std::vector<SequentialRun> references;
    for (const Family &family : families)
        references.push_back(runSequential(family, DriverOptions{}));

    ASSERT_EQ(CountingGshare::live, 0u);
    {
        SweepOptions sweep;
        sweep.threads = 2;
        SweepEngine engine(families, DriverOptions{}, sweep);
        for (int pass = 0; pass < 2; ++pass) {
            CountingGshare::peak = CountingGshare::live;
            auto source = freshSource();
            const SweepRunResult result = engine.run(*source);
            EXPECT_EQ(result.predictorRuns, 2u);
            EXPECT_EQ(CountingGshare::live, result.predictorRuns);
            EXPECT_LE(CountingGshare::peak, result.predictorRuns + 1);
            for (std::size_t c = 0; c < families.size(); ++c) {
                expectIdentical(references[c].result, result.perConfig[c],
                                families[c].label);
            }
        }
    }
    EXPECT_EQ(CountingGshare::live, 0u);
}

TEST(SweepDifferential, ResumeRefusesFusedMembersWhosePredictorsDiffer)
{
    // Fused members each write the trunk's predictor bytes. A
    // checkpoint in which two of them disagree describes no fused pass,
    // so resume refuses it rather than pick one.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "sweep_resume_fused_mismatch";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const std::vector<Family> families = {
        differentialFamilyNamed("counter_resetting"),
        differentialFamilyNamed("one_level_raw_pc")};
    SweepOptions sweep;
    sweep.threads = 1;
    CheckpointStore store(dir.string(), "fused", 2);
    SweepEngine writer(families, DriverOptions{}, sweep);
    writer.checkpointEvery(20'000, &store);
    auto source = freshSource();
    const SweepRunResult written = writer.run(*source);
    EXPECT_EQ(written.predictorRuns, 1u);
    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());

    // The untouched checkpoint resumes...
    {
        SweepEngine resumed(families, DriverOptions{}, sweep);
        auto resumed_source = freshSource();
        const SweepRunResult result =
            resumed.resume(*resumed_source, *ckpt);
        for (std::size_t c = 0; c < families.size(); ++c) {
            expectIdentical(runSequential(families[c], DriverOptions{})
                                .result,
                            result.perConfig[c], families[c].label);
        }
    }

    // ...but not once cfg1's predictor part holds another state.
    const std::string prefix = "cfg1:predictor:";
    Checkpoint tampered;
    tampered.label = ckpt->label;
    tampered.watermark = ckpt->watermark;
    tampered.branches = ckpt->branches;
    bool replaced = false;
    for (const CheckpointComponent &part : ckpt->components()) {
        if (part.name.rfind(prefix, 0) != 0) {
            tampered.add(part.name, part.version, part.payload);
            continue;
        }
        auto fresh = families[1].makePredictor();
        StateWriter bytes;
        fresh->saveState(bytes);
        ASSERT_NE(bytes.bytes(), part.payload);
        tampered.add(part.name, part.version, bytes.take());
        replaced = true;
    }
    ASSERT_TRUE(replaced);
    SweepEngine refused(families, DriverOptions{}, sweep);
    auto refused_source = freshSource();
    try {
        refused.resume(*refused_source, tampered);
        FAIL() << "resume accepted fused members with different "
                  "predictor states";
    } catch (const std::exception &e) {
        EXPECT_EQ(categoryOf(e), ErrorCategory::kCheckpoint) << e.what();
    }
    std::filesystem::remove_all(dir);
}

TEST(SweepDifferential, DecodeAheadDepthNeverChangesResults)
{
    const Family family = differentialFamilyNamed("two_level");
    DriverOptions options;
    options.profileStatic = true;
    const SequentialRun reference = runSequential(family, options);

    for (const std::size_t depth :
         {std::size_t{1}, std::size_t{2}, std::size_t{3},
          std::size_t{5}}) {
        SweepOptions sweep;
        sweep.threads = 2;
        sweep.batchSize = 777; // not a divisor of the trace length
        sweep.decodeAhead = depth;
        SweepEngine engine({family, family}, options,
                           sweep);
        auto source = freshSource();
        const SweepRunResult result = engine.run(*source);
        ASSERT_EQ(result.perConfig.size(), 2u);
        for (std::size_t c = 0; c < 2; ++c) {
            expectIdentical(reference.result, result.perConfig[c],
                            "decode-ahead " + std::to_string(depth) +
                                " config " + std::to_string(c));
        }
    }
}

TEST(SweepDifferential, SharedPoolWithSurplusWorkersBitExact)
{
    // More pool workers than configurations: the engine must cap its
    // shards at the config count and leave the surplus workers idle
    // (they exist to serve other benchmarks' concurrent passes), with
    // results identical to the reference.
    const std::vector<Family> families = {
        differentialFamilyNamed("one_level_ones_pcxorbhr"),
        differentialFamilyNamed("tage_provider"),
        differentialFamilyNamed("unaliased")};
    DriverOptions options;
    options.profileStatic = true;

    SweepWorkerPool pool(6);
    SweepOptions sweep;
    sweep.pool = &pool;
    sweep.decodeAhead = 3;

    // Two engines sharing one pool back to back, as runSweep does.
    for (int pass = 0; pass < 2; ++pass) {
        SweepEngine engine(families, options, sweep);
        auto source = freshSource();
        const SweepRunResult result = engine.run(*source);
        ASSERT_EQ(result.perConfig.size(), families.size());
        for (std::size_t c = 0; c < families.size(); ++c) {
            const SequentialRun reference =
                runSequential(families[c], options);
            expectIdentical(reference.result, result.perConfig[c],
                            families[c].label + " (shared pool pass " +
                                std::to_string(pass) + ")");
        }
    }
    EXPECT_GT(pool.occupancyStats().count(), 0u);
}

TEST(SweepDifferential, CheckpointResumeWithDecodeAheadBitExact)
{
    // Checkpoints written by the pipelined engine (producer paused at
    // the checkpoint barrier) must resume bit-exactly — including
    // when the resuming engine uses a *different* decode-ahead depth.
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        "sweep_resume_decode_ahead";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    const std::vector<Family> families = {
        differentialFamilyNamed("perceptron_margin"),
        differentialFamilyNamed("counter_half_reset")};
    DriverOptions options;
    options.profileStatic = true;

    // Checkpoint cadence must be depth-independent too: count the
    // synchronous engine's generations, then the pipelined engine's.
    SweepOptions sync_sweep;
    sync_sweep.threads = 2;
    sync_sweep.decodeAhead = 1;
    CheckpointStore sync_store(dir.string(), "sweep-sync", 4);
    SweepEngine sync_ckpt_engine(families, options,
                                 sync_sweep);
    sync_ckpt_engine.checkpointEvery(20'000, &sync_store);
    auto sync_ckpt_source = freshSource();
    const SweepRunResult sync_ckpt =
        sync_ckpt_engine.run(*sync_ckpt_source);

    SweepOptions ring_sweep;
    ring_sweep.threads = 2;
    ring_sweep.decodeAhead = 3;
    CheckpointStore store(dir.string(), "sweep-ring", 4);
    SweepEngine first_engine(families, options,
                             ring_sweep);
    first_engine.checkpointEvery(20'000, &store);
    auto first_source = freshSource();
    const SweepRunResult first = first_engine.run(*first_source);
    ASSERT_GT(first.checkpointsWritten, 0u);
    EXPECT_EQ(first.checkpointsWritten, sync_ckpt.checkpointsWritten);

    const auto ckpt = store.loadLatestValid();
    ASSERT_TRUE(ckpt.has_value());
    SweepOptions resume_sweep;
    resume_sweep.threads = 2;
    resume_sweep.decodeAhead = 2; // differs from the writing engine
    SweepEngine resumed_engine(families, options,
                               resume_sweep);
    auto resumed_source = freshSource();
    const SweepRunResult resumed =
        resumed_engine.resume(*resumed_source, *ckpt);

    ASSERT_EQ(resumed.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        expectIdentical(runSequential(families[c], options).result,
                        resumed.perConfig[c],
                        families[c].label + " (resumed)");
    }
}

/**
 * Check a suite-level sweep against reference replays: every
 * benchmark of every configuration bit-exact, and each configuration's
 * Section 1.2 composites equal to the equal-weight composite of the
 * reference per-benchmark results.
 */
void
expectSuiteMatchesReference(const BenchmarkSuite &suite,
                            const std::vector<Family> &families,
                            const DriverOptions &options,
                            const SweepSuiteResult &swept)
{
    ASSERT_EQ(swept.perConfig.size(), families.size());
    for (std::size_t c = 0; c < families.size(); ++c) {
        SCOPED_TRACE(families[c].label);
        const SuiteRunResult &actual = swept.perConfig[c];
        ASSERT_EQ(actual.perBenchmark.size(), suite.size());
        EXPECT_FALSE(actual.degraded);

        std::vector<ReferenceResult> references;
        double rate_sum = 0.0;
        // The static composite weights each benchmark's per-PC profile,
        // keyed (bench << 48) | pc, to a common mass of 1e6 refs.
        SparseBucketStats static_composite;
        for (std::size_t b = 0; b < suite.size(); ++b) {
            auto predictor = families[c].makePredictor();
            auto owned = families[c].makeEstimators();
            std::vector<ConfidenceEstimator *> raw;
            for (auto &estimator : owned)
                raw.push_back(estimator.get());
            auto source = suite.makeGenerator(b);
            references.push_back(
                referenceReplay(*source, *predictor, raw, options));
            const ReferenceResult &expected = references.back();
            const BenchmarkRunResult &got = actual.perBenchmark[b];
            SCOPED_TRACE(got.name);
            EXPECT_EQ(got.name, suite.profile(b).name);
            EXPECT_FALSE(got.failed()) << got.error;
            EXPECT_EQ(got.branches, expected.branches);
            EXPECT_EQ(got.mispredicts, expected.mispredicts);
            const double rate =
                static_cast<double>(expected.mispredicts) /
                static_cast<double>(expected.branches);
            EXPECT_EQ(got.mispredictRate, rate);
            rate_sum += rate;
            const std::uint64_t tag = static_cast<std::uint64_t>(b)
                                      << 48;
            SparseBucketStats static_stats;
            for (const auto &[pc, entry] :
                 expected.staticProfile.entries()) {
                static_stats.recordAggregate(
                    tag | pc, static_cast<double>(entry.executions),
                    static_cast<double>(entry.mispredictions));
            }
            EXPECT_EQ(got.staticStats.size(), static_stats.size());
            EXPECT_EQ(got.staticStats.totalRefs(),
                      static_stats.totalRefs());
            EXPECT_EQ(got.staticStats.totalMispredicts(),
                      static_stats.totalMispredicts());
            if (static_stats.totalRefs() > 0.0) {
                static_composite.addWeighted(
                    static_stats, 1e6 / static_stats.totalRefs());
            }
            ASSERT_EQ(got.estimatorStats.size(),
                      expected.estimatorStats.size());
            for (std::size_t e = 0; e < got.estimatorStats.size();
                 ++e) {
                const BucketStats &es = expected.estimatorStats[e];
                const BucketStats &as = got.estimatorStats[e];
                ASSERT_EQ(es.numBuckets(), as.numBuckets());
                for (std::uint64_t bucket = 0;
                     bucket < es.numBuckets(); ++bucket) {
                    EXPECT_EQ(es[bucket].refs, as[bucket].refs);
                    EXPECT_EQ(es[bucket].mispredicts,
                              as[bucket].mispredicts);
                }
            }
        }

        EXPECT_EQ(actual.compositeMispredictRate,
                  rate_sum / static_cast<double>(suite.size()));
        ASSERT_EQ(actual.compositeEstimatorStats.size(),
                  references.front().estimatorStats.size());
        for (std::size_t e = 0;
             e < actual.compositeEstimatorStats.size(); ++e) {
            EqualWeightComposite composite(
                references.front().estimatorStats[e].numBuckets());
            for (const ReferenceResult &reference : references)
                composite.add(reference.estimatorStats[e]);
            const BucketStats &es = composite.result();
            const BucketStats &as = actual.compositeEstimatorStats[e];
            ASSERT_EQ(es.numBuckets(), as.numBuckets());
            for (std::uint64_t bucket = 0; bucket < es.numBuckets();
                 ++bucket) {
                EXPECT_EQ(es[bucket].refs, as[bucket].refs);
                EXPECT_EQ(es[bucket].mispredicts,
                          as[bucket].mispredicts);
            }
        }

        const SparseBucketStats &static_actual =
            actual.compositeStaticStats;
        EXPECT_EQ(static_actual.size(), static_composite.size());
        EXPECT_EQ(static_actual.totalRefs(), static_composite.totalRefs());
        EXPECT_EQ(static_actual.totalMispredicts(),
                  static_composite.totalMispredicts());
        if (options.profileStatic) {
            EXPECT_GT(static_composite.size(), 0u);
        }
    }
}

TEST(SweepDifferential, BenchParallelScheduleNeverChangesResults)
{
    // Strictly sequential single-threaded passes and concurrent
    // benchmark passes on a shared pool both match the reference:
    // identical outputs, suite ordering, and composites.
    const std::vector<Family> families = {
        differentialFamilyNamed("counter_resetting"),
        differentialFamilyNamed("tage_provider")};
    DriverOptions options;
    options.profileStatic = true;
    const BenchmarkSuite suite = BenchmarkSuite::ibsSmall(20'000);
    SuiteRunner runner(suite);

    SweepOptions sequential;
    sequential.threads = 1;
    sequential.decodeAhead = 1;
    sequential.benchParallel = 1;
    {
        SCOPED_TRACE("sequential");
        expectSuiteMatchesReference(
            suite, families, options,
            runner.runSweep(families, options,
                            sequential, RunPolicy{}));
    }

    for (const unsigned slots : {2u, 3u}) {
        SweepOptions pipelined;
        pipelined.threads = 4;
        pipelined.decodeAhead = 3;
        pipelined.benchParallel = slots;
        SCOPED_TRACE("bench-parallel " + std::to_string(slots));
        expectSuiteMatchesReference(
            suite, families, options,
            runner.runSweep(families, options,
                            pipelined, RunPolicy{}));
    }
}

TEST(SweepDifferential, SweepWallTimeIsSharedEquallyAcrossConfigs)
{
    // The pass is shared: each config's per-benchmark wallMs must be
    // an equal 1/numConfigs share, so summing over configs recovers
    // the pass cost instead of multiplying it.
    const std::vector<Family> families = {
        differentialFamilyNamed("one_level_raw_pc"),
        differentialFamilyNamed("counter_saturating"),
        differentialFamilyNamed("self_counter")};
    SuiteRunner runner(BenchmarkSuite::ibsSmall(10'000));
    const SweepSuiteResult swept = runner.runSweep(
        families, DriverOptions{}, SweepOptions{},
        RunPolicy{});
    ASSERT_EQ(swept.perConfig.size(), families.size());
    const std::size_t benches = swept.perConfig[0].perBenchmark.size();
    ASSERT_GT(benches, 0u);
    for (std::size_t b = 0; b < benches; ++b) {
        const double share =
            swept.perConfig[0].perBenchmark[b].wallMs;
        EXPECT_GE(share, 0.0);
        for (std::size_t c = 1; c < families.size(); ++c) {
            EXPECT_EQ(share,
                      swept.perConfig[c].perBenchmark[b].wallMs)
                << "benchmark " << b << " config " << c;
        }
    }
}

TEST(SweepDifferential, SuiteRunnerSweepMatchesSequentialRun)
{
    // The full SuiteRunner integration, through both entry points:
    // per-benchmark results AND the Section 1.2 composites must match
    // the reference exactly, for every attached configuration.
    const std::vector<Family> families = {
        differentialFamilyNamed("counter_saturating"),
        differentialFamilyNamed("perceptron_margin")};
    DriverOptions options;
    options.profileStatic = true;
    const BenchmarkSuite suite = BenchmarkSuite::ibsSmall(20'000);
    SuiteRunner runner(suite);

    SweepOptions sweep;
    sweep.threads = 2;
    {
        SCOPED_TRACE("runSweep");
        expectSuiteMatchesReference(
            suite, families, options,
            runner.runSweep(families, options, sweep,
                            RunPolicy{}));
    }
    for (const Family &family : families) {
        SCOPED_TRACE("run");
        SweepSuiteResult single;
        single.perConfig.push_back(runner.run(
            family.makePredictor, family.makeEstimators, options,
            RunPolicy{}));
        expectSuiteMatchesReference(suite, {family}, options, single);
    }
}

} // namespace
} // namespace confsim
