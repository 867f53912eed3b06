/**
 * @file
 * The BranchPredictor::sameDesignAs contract, family by family, and
 * the sweep engine's fusion rule built on it: configurations share one
 * predictor only when it is the same type, the same design, and in the
 * same state. For every audited family (gshare, TAGE, perceptron), two
 * predictors from the same factory fuse; a predictor that differs in
 * any one constructor parameter does not; and a trained predictor does
 * not fuse with a fresh one of the same design, because their state
 * bytes differ. A family without an audited sameDesignAs (gselect,
 * the static predictor, ...) never fuses.
 */

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "confidence/one_level.h"
#include "predictor/gselect.h"
#include "predictor/gshare.h"
#include "predictor/perceptron.h"
#include "predictor/static_predictor.h"
#include "predictor/tage.h"
#include "sim/sweep_engine.h"
#include "trace/vector_trace_source.h"
#include "workload/suite.h"

namespace confsim {
namespace {

/** One family: its reference factory and one variant per parameter. */
struct DesignCase
{
    std::string family;
    PredictorFactory make;
    std::vector<std::pair<std::string, PredictorFactory>> variants;
};

TageConfig
tageWith(const std::function<void(TageConfig &)> &change)
{
    TageConfig config = TageConfig::makeSmall();
    change(config);
    return config;
}

PerceptronConfig
perceptronWith(const std::function<void(PerceptronConfig &)> &change)
{
    PerceptronConfig config = PerceptronConfig::makeSmall();
    change(config);
    return config;
}

template <typename P, typename... Args>
PredictorFactory
factory(Args... args)
{
    return [=] { return std::make_unique<P>(args...); };
}

std::vector<DesignCase>
designCases()
{
    return {
        {"gshare",
         factory<GsharePredictor>(std::size_t{1024}, 8u),
         {{"entries", factory<GsharePredictor>(std::size_t{2048}, 8u)},
          {"history", factory<GsharePredictor>(std::size_t{1024}, 9u)},
          {"counter bits",
           factory<GsharePredictor>(std::size_t{1024}, 8u, 3u)}}},
        {"tage",
         factory<TagePredictor>(TageConfig::makeSmall()),
         {{"bimodal entries",
           factory<TagePredictor>(tageWith(
               [](TageConfig &c) { c.bimodalEntries *= 2; }))},
          {"tagged entries",
           factory<TagePredictor>(tageWith(
               [](TageConfig &c) { c.taggedEntries *= 2; }))},
          {"tag bits", factory<TagePredictor>(tageWith(
                           [](TageConfig &c) { ++c.tagBits; }))},
          {"counter bits", factory<TagePredictor>(tageWith(
                               [](TageConfig &c) { ++c.counterBits; }))},
          {"useful bits", factory<TagePredictor>(tageWith(
                              [](TageConfig &c) { ++c.usefulBits; }))},
          {"history lengths",
           factory<TagePredictor>(tageWith(
               [](TageConfig &c) { c.historyLengths.back() += 1; }))},
          {"use-alt bits", factory<TagePredictor>(tageWith(
                               [](TageConfig &c) { ++c.useAltBits; }))},
          {"aging period",
           factory<TagePredictor>(tageWith(
               [](TageConfig &c) { c.agingPeriod *= 2; }))}}},
        {"perceptron",
         factory<PerceptronPredictor>(PerceptronConfig::makeSmall()),
         {{"rows", factory<PerceptronPredictor>(perceptronWith(
                       [](PerceptronConfig &c) { c.numRows *= 2; }))},
          {"history", factory<PerceptronPredictor>(perceptronWith(
                          [](PerceptronConfig &c) { ++c.historyBits; }))},
          // name() omits the weight width: only the full
          // configuration tells these two apart.
          {"weight bits",
           factory<PerceptronPredictor>(perceptronWith(
               [](PerceptronConfig &c) { c.weightBits = 6; }))}}},
    };
}

/** A short deterministic trace every fusion check replays. */
const std::vector<BranchRecord> &
records()
{
    static const std::vector<BranchRecord> recs = [] {
        std::vector<BranchRecord> out;
        auto source = BenchmarkSuite::ibsSmall(3000).makeGenerator(0);
        BranchRecord record;
        while (source->next(record))
            out.push_back(record);
        return out;
    }();
    return recs;
}

/** Replay two configurations, one per factory, in one sweep. */
SweepRunResult
sweepPair(const PredictorFactory &a, const PredictorFactory &b)
{
    const EstimatorSetFactory estimators = [] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        out.push_back(std::make_unique<OneLevelCounterConfidence>(
            IndexScheme::PcXorBhr, 1024, CounterKind::Resetting, 16, 0));
        return out;
    };
    SweepOptions sweep;
    sweep.threads = 1;
    SweepEngine engine({{"a", a, estimators}, {"b", b, estimators}},
                       DriverOptions{}, sweep);
    VectorTraceSource source(records());
    return engine.run(source);
}

/** @p make's predictor after training on the fusion trace. */
PredictorFactory
trained(PredictorFactory make)
{
    return [make] {
        auto predictor = make();
        for (const BranchRecord &record : records()) {
            if (!record.isConditional())
                continue;
            predictor->predict(record.pc);
            predictor->update(record.pc, record.taken);
        }
        return predictor;
    };
}

TEST(SameDesign, SameFactoryFuses)
{
    for (const DesignCase &c : designCases()) {
        SCOPED_TRACE(c.family);
        EXPECT_TRUE(c.make()->sameDesignAs(*c.make()));
        const SweepRunResult result = sweepPair(c.make, c.make);
        EXPECT_EQ(result.predictorRuns, 1u);
        EXPECT_EQ(result.perConfig[0].mispredicts,
                  result.perConfig[1].mispredicts);
    }
}

TEST(SameDesign, AnyDifferingParameterDoesNotFuse)
{
    for (const DesignCase &c : designCases()) {
        for (const auto &[parameter, variant] : c.variants) {
            SCOPED_TRACE(c.family + " / " + parameter);
            EXPECT_FALSE(c.make()->sameDesignAs(*variant()));
            EXPECT_FALSE(variant()->sameDesignAs(*c.make()));
            EXPECT_EQ(sweepPair(c.make, variant).predictorRuns, 2u);
        }
    }
}

TEST(SameDesign, TrainedAndFreshDoNotFuse)
{
    for (const DesignCase &c : designCases()) {
        SCOPED_TRACE(c.family);
        // Same design, different state: only the state bytes differ.
        EXPECT_TRUE(c.make()->sameDesignAs(*trained(c.make)()));
        const SweepRunResult result = sweepPair(c.make, trained(c.make));
        EXPECT_EQ(result.predictorRuns, 2u);
    }
}

TEST(SameDesign, OtherFamiliesAndUnauditedFamiliesNeverFuse)
{
    // gshare and gselect of the same geometry are different designs.
    const PredictorFactory gshare =
        factory<GsharePredictor>(std::size_t{1024}, 4u);
    const PredictorFactory gselect =
        factory<GselectPredictor>(std::size_t{1024}, 4u);
    EXPECT_FALSE(gshare()->sameDesignAs(*gselect()));
    EXPECT_EQ(sweepPair(gshare, gselect).predictorRuns, 2u);

    // Unaudited families keep the default: they never share.
    EXPECT_FALSE(gselect()->sameDesignAs(*gselect()));
    EXPECT_EQ(sweepPair(gselect, gselect).predictorRuns, 2u);
    const PredictorFactory always_taken =
        factory<StaticPredictor>(StaticPolicy::AlwaysTaken);
    EXPECT_FALSE(always_taken()->sameDesignAs(*always_taken()));
    EXPECT_EQ(sweepPair(always_taken, always_taken).predictorRuns, 2u);
}

} // namespace
} // namespace confsim
