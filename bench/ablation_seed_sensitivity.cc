/**
 * @file
 * Seed-sensitivity study: the synthetic-workload substitution's
 * robustness check. Every conclusion in EXPERIMENTS.md is derived from
 * one draw of the synthetic benchmark programs; this harness redraws
 * the entire suite N times (different CFGs, same profile statistics)
 * and reports the spread of the headline metrics:
 *
 *  - composite gshare-64K misprediction rate,
 *  - ideal one-level PCxorBHR coverage at the 20% operating point,
 *  - resetting-counter coverage at the same point,
 *  - the PCxorBHR-vs-PC ordering margin.
 *
 * Small standard deviations (and an ordering that never flips) mean
 * the paper-shape reproductions are properties of the workload
 * *statistics*, not of one lucky program draw.
 */

#include <cmath>
#include <cstdio>

#include "sim/driver.h"
#include "sim/experiment.h"
#include "util/csv.h"
#include "util/running_stats.h"
#include "util/string_utils.h"

using namespace confsim;

namespace {

struct Draw
{
    double mispredictRate = 0.0;
    double idealCoverage = 0.0;
    double resetCoverage = 0.0;
    double xorMinusPc = 0.0;
};

Draw
runDraw(std::uint64_t seed_offset, std::uint64_t branches)
{
    // Redraw every benchmark program by shifting its seed; all other
    // profile statistics are unchanged.
    std::vector<BenchmarkProfile> profiles = ibsProfiles();
    for (auto &profile : profiles)
        profile.seed += seed_offset * 1000;

    std::vector<EstimatorConfig> configs = {
        oneLevelIdealConfig(IndexScheme::Pc),
        oneLevelIdealConfig(IndexScheme::PcXorBhr),
        oneLevelCounterConfig(IndexScheme::PcXorBhr,
                              CounterKind::Resetting),
    };

    DriverOptions options;
    options.profileStatic = false;
    EstimatorSetFactory make_estimators = [&configs] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> out;
        for (const auto &config : configs)
            out.push_back(config.make());
        return out;
    };

    // SuiteRunner resolves canonical profiles by name, so drive the
    // shifted profiles directly with the core driver + compositing.
    Draw draw;
    std::vector<BucketStats> composites;
    for (std::size_t e = 0; e < configs.size(); ++e)
        composites.emplace_back(configs[e].make()->numBuckets());
    double rate_sum = 0.0;
    for (const auto &profile : profiles) {
        WorkloadGenerator gen(profile, branches);
        auto predictor = largeGshareFactory()();
        auto estimators = make_estimators();
        std::vector<ConfidenceEstimator *> raw;
        for (auto &est : estimators)
            raw.push_back(est.get());
        SimulationDriver driver(*predictor, raw, options);
        const auto result = driver.run(gen);
        rate_sum += result.mispredictRate();
        for (std::size_t e = 0; e < configs.size(); ++e) {
            composites[e].addWeighted(
                result.estimatorStats[e],
                1e6 / result.estimatorStats[e].totalRefs());
        }
    }
    draw.mispredictRate = rate_sum / profiles.size();
    const double pc = ConfidenceCurve::fromBucketStats(composites[0])
                          .mispredCoverageAt(0.20);
    draw.idealCoverage =
        ConfidenceCurve::fromBucketStats(composites[1])
            .mispredCoverageAt(0.20);
    draw.resetCoverage =
        ConfidenceCurve::fromBucketStats(composites[2])
            .mispredCoverageAt(0.20);
    draw.xorMinusPc = draw.idealCoverage - pc;
    return draw;
}

void
report(const char *label, const std::vector<double> &values,
       CsvWriter &csv)
{
    RunningStats stats;
    for (double v : values)
        stats.add(v);
    std::printf("%-28s mean %7.3f  sd %6.3f  range [%.3f, %.3f]\n",
                label, stats.mean(), stats.stddev(), stats.min(),
                stats.max());
    csv.writeRow({label, formatFixed(stats.mean(), 5),
                  formatFixed(stats.stddev(), 5),
                  formatFixed(stats.min(), 5),
                  formatFixed(stats.max(), 5)});
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentEnv env;
    if (!ExperimentEnv::fromCli(
            argc, argv, "Ablation: workload seed sensitivity", env)) {
        return 0;
    }
    const unsigned draws = env.fullSuite ? 5 : 2;
    const std::uint64_t branches =
        std::min<std::uint64_t>(env.branchesPerBenchmark, 1'000'000);

    std::printf("=== Ablation: seed sensitivity (%u suite redraws, "
                "%llu branches/benchmark) ===\n\n",
                draws, static_cast<unsigned long long>(branches));

    std::vector<double> rates;
    std::vector<double> ideals;
    std::vector<double> resets;
    std::vector<double> margins;
    for (unsigned d = 0; d < draws; ++d) {
        const Draw draw = runDraw(d, branches);
        std::printf("draw %u: rate %.2f%%, ideal@20 %.1f%%, reset@20 "
                    "%.1f%%, xor-pc margin %.1f\n",
                    d, 100.0 * draw.mispredictRate,
                    100.0 * draw.idealCoverage,
                    100.0 * draw.resetCoverage,
                    100.0 * draw.xorMinusPc);
        rates.push_back(100.0 * draw.mispredictRate);
        ideals.push_back(100.0 * draw.idealCoverage);
        resets.push_back(100.0 * draw.resetCoverage);
        margins.push_back(100.0 * draw.xorMinusPc);
    }

    std::printf("\n");
    CsvWriter csv(env.csvDir + "/ablation_seed_sensitivity.csv");
    csv.writeRow({"metric", "mean", "sd", "min", "max"});
    report("mispredict rate (%)", rates, csv);
    report("ideal PCxorBHR @20 (%)", ideals, csv);
    report("resetting @20 (%)", resets, csv);
    report("PCxorBHR - PC margin (pts)", margins, csv);

    bool ordering_holds = true;
    for (double margin : margins)
        ordering_holds = ordering_holds && margin > 0.0;
    std::printf("\nPCxorBHR > PC in every draw: %s\n",
                ordering_holds ? "yes" : "NO — investigate");
    std::printf("wrote %s/ablation_seed_sensitivity.csv\n",
                env.csvDir.c_str());
    return 0;
}
