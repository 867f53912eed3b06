#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>

#include "host.h"
#include "obs/span.h"
#include "sim/sampling_engine.h"
#include "sim/suite_runner.h"
#include "trace/trace_io.h"
#include "trace/trace_stats.h"
#include "workload/workload_generator.h"

using namespace confsim;

namespace perfbench {

namespace {

/** Trace length of every benchmark of the exact-replay workloads. */
constexpr std::uint64_t kBranches = 200'000;

/**
 * Trace length of the sampled workload. Every sampled trace allocates
 * its per-slot statistic banks afresh, a cost independent of length;
 * at 200k branches that allocation, not decode and fast-forwarding,
 * took 40% of the time.
 */
constexpr std::uint64_t kSampledBranches = 1'000'000;

const std::vector<std::string> kReducedSuite = {"jpeg", "real_gcc",
                                                "groff"};

std::uint64_t
bitsOf(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof bits);
    return bits;
}

/** Sets an environment variable for one scope (no other threads live). */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        setenv(name_, value, 1);
    }
    ~ScopedEnv() { unsetenv(name_); }

    ScopedEnv(const ScopedEnv &) = delete;
    ScopedEnv &operator=(const ScopedEnv &) = delete;

  private:
    const char *name_;
};

SweepConfiguration
singleEstimatorConfig(const std::string &slug, PredictorFactory predictor,
                      EstimatorConfig estimator)
{
    SweepConfiguration config;
    config.label = slug;
    config.makePredictor = std::move(predictor);
    config.makeEstimators = [make = std::move(estimator.make)] {
        std::vector<std::unique_ptr<ConfidenceEstimator>> set;
        set.push_back(make());
        return set;
    };
    return config;
}

/** Suite runner whose generators come from the seeded profiles. */
SuiteRunner
seededRunner(BenchmarkSuite suite,
             const std::vector<BenchmarkProfile> &profiles,
             std::uint64_t branches)
{
    SuiteRunner runner(std::move(suite));
    runner.setSourceWrapper(
        [profiles, branches](std::size_t bench,
                             std::unique_ptr<TraceSource>) {
            return std::unique_ptr<TraceSource>(
                std::make_unique<WorkloadGenerator>(profiles.at(bench),
                                                    branches));
        });
    return runner;
}

/**
 * Check one exact (benchmark, config) result and append its words:
 * every branch of the trace simulated, and every estimator's buckets
 * adding up to the branch and misprediction totals.
 */
void
addExactResult(Pass &pass, const std::string &key,
               const BenchmarkRunResult &result, std::uint64_t branches)
{
    std::string problem;
    if (result.failed()) {
        problem = result.error;
    } else if (result.branches != branches) {
        problem = "simulated " + std::to_string(result.branches) +
                  " of " + std::to_string(branches) + " branches";
    } else {
        for (const BucketStats &stats : result.estimatorStats) {
            if (stats.totalRefs() != static_cast<double>(result.branches) ||
                stats.totalMispredicts() !=
                    static_cast<double>(result.mispredicts)) {
                problem = "bucket counts do not add up to the totals";
                break;
            }
        }
    }
    if (!problem.empty())
        pass.problems.push_back(key + ": " + problem);
    pass.results.push_back(
        {key,
         exactWords(result.branches, result.mispredicts,
                    result.estimatorStats, &result.staticStats),
         problem.empty()});
}

/** Record a pass that threw: it has no results. */
void
failWholePass(Pass &pass, const std::exception &e)
{
    pass.results.clear();
    pass.problems.push_back(std::string("pass failed: ") + e.what());
}

// --------------------------------------------------------------------
// paper_driver_suite: full IBS suite, one gshare + paper-bank config,
// through the suite runner on one thread.

class PaperDriverSuite : public Workload
{
  public:
    explicit PaperDriverSuite(std::uint64_t seed)
        : Workload(seededProfiles(ibsProfileNames(), seed), kBranches)
    {
    }

    void
    setup() override
    {
        bank_.clear();
        for (BankEntry &entry : paperBank())
            bank_.push_back(std::move(entry.config));
        fingerprintTraces();
    }

    Pass
    run(SpanTracer *spans) override
    {
        Pass pass;
        SuiteRunner runner =
            seededRunner(BenchmarkSuite::ibs(branches_), profiles_,
                         branches_);
        const std::vector<EstimatorConfig> &bank = bank_;
        const EstimatorSetFactory make_estimators = [&bank] {
            std::vector<std::unique_ptr<ConfidenceEstimator>> out;
            for (const EstimatorConfig &config : bank)
                out.push_back(config.make());
            return out;
        };
        const Clock::time_point start = Clock::now();
        try {
            ScopedSpan span(spans, "suite_runner.run");
            // SuiteRunner::run otherwise starts one thread per
            // benchmark, 9 threads on a 4-thread budget.
            ScopedEnv sequential("CONFSIM_SEQUENTIAL", "1");
            const SuiteRunResult result = runner.run(
                largeGshareFactory(), make_estimators,
                paperDriverOptions(true));
            pass.wallMs = msSince(start);
            for (const BenchmarkRunResult &bench : result.perBenchmark) {
                pass.benchMs.push_back(bench.wallMs);
                pass.updates += bench.branches;
                addExactResult(pass, bench.name + "/paper_bank", bench,
                               branches_);
            }
        } catch (const std::exception &e) {
            failWholePass(pass, e);
        }
        return pass;
    }

    std::size_t resultsPerPass() const override { return profiles_.size(); }

  private:
    std::vector<EstimatorConfig> bank_;
};

// --------------------------------------------------------------------
// mixed_sweep_10cfg: reduced IBS suite, 10 configs in one decode pass.

class MixedSweep : public Workload
{
  public:
    MixedSweep(std::uint64_t seed, unsigned nproc)
        : Workload(seededProfiles(kReducedSuite, seed), kBranches),
          nproc_(nproc)
    {
    }

    void
    setup() override
    {
        configs_ = mixedConfigs();
        fingerprintTraces();
    }

    Pass
    run(SpanTracer *spans) override
    {
        Pass pass;
        SuiteRunner runner = seededRunner(
            BenchmarkSuite::ibsSubset(kReducedSuite, branches_),
            profiles_, branches_);
        SweepOptions sweep;
        sweep.threads = sweepWorkers(nproc_);
        sweep.benchParallel = 1;
        const Clock::time_point start = Clock::now();
        try {
            ScopedSpan span(spans, "suite_runner.run_sweep");
            const SweepSuiteResult result = runner.runSweep(
                configs_, paperDriverOptions(true), sweep);
            pass.wallMs = msSince(start);
            pass.benchMs.assign(profiles_.size(), 0.0);
            const std::size_t gshare_configs = gshareCirConfigs().size();
            for (std::size_t c = 0; c < result.perConfig.size(); ++c) {
                const SuiteRunResult &config = result.perConfig[c];
                for (std::size_t b = 0; b < config.perBenchmark.size();
                     ++b) {
                    const BenchmarkRunResult &bench =
                        config.perBenchmark[b];
                    // Each config carries an equal share of the pass.
                    pass.benchMs[b] += bench.wallMs;
                    pass.updates += bench.branches;
                    const std::string key =
                        bench.name + "/" + result.labels[c];
                    addExactResult(pass, key, bench, branches_);
                    // The gshare configs share one predictor design.
                    if (c < gshare_configs &&
                        bench.mispredicts != result.perConfig[0]
                                                 .perBenchmark[b]
                                                 .mispredicts) {
                        pass.results.back().ok = false;
                        pass.problems.push_back(
                            key + ": gshare misses differ between configs");
                    }
                }
            }
        } catch (const std::exception &e) {
            failWholePass(pass, e);
        }
        return pass;
    }

    std::size_t
    resultsPerPass() const override
    {
        return profiles_.size() * mixedConfigs().size();
    }

  private:
    unsigned nproc_;
    std::vector<SweepConfiguration> configs_;
};

// --------------------------------------------------------------------
// sampled_cbt2_suite: full IBS suite written as CBT2 during set-up,
// then sampled at 10% through SamplingEngine::runTrace.

class SampledCbt2Suite : public Workload
{
  public:
    SampledCbt2Suite(std::uint64_t seed, unsigned nproc,
                     const std::string &work_dir)
        : Workload(seededProfiles(ibsProfileNames(), seed),
                   kSampledBranches),
          nproc_(nproc)
    {
        for (const BenchmarkProfile &profile : profiles_)
            paths_.push_back(work_dir + "/sampled-" + profile.name +
                             ".cbt");
    }

    /** Write every trace as CBT2 and fingerprint what reads back. */
    void
    setup() override
    {
        checksums_.clear();
        for (std::size_t b = 0; b < profiles_.size(); ++b) {
            WorkloadGenerator generator(profiles_[b], branches_);
            writeTraceFile(generator, paths_[b], TraceFormat::kCbt2);
            TraceFileReader reader(paths_[b]);
            checksums_.push_back(streamChecksum(reader));
        }
    }

    Pass
    run(SpanTracer *spans) override
    {
        Pass pass;
        const std::vector<SweepConfiguration> configs = gshareCirConfigs();
        const Clock::time_point start = Clock::now();
        try {
            SamplingEngine engine(configs, paperDriverOptions(false),
                                  sampledOptions(branches_, nproc_));
            for (std::size_t b = 0; b < profiles_.size(); ++b) {
                ScopedSpan span(spans, "sampling.run_trace");
                const std::string &path = paths_[b];
                const SamplingBenchmarkResult result = engine.runTrace(
                    profiles_[b].name,
                    [&path] {
                        return std::make_unique<TraceFileReader>(path);
                    });
                pass.benchMs.push_back(result.prePassMs +
                                       result.replayMs);
                pass.updates += result.totalBranches * configs.size();
                addSampledResults(pass, result);
            }
            pass.wallMs = msSince(start);
        } catch (const std::exception &e) {
            failWholePass(pass, e);
        }
        return pass;
    }

    std::size_t
    resultsPerPass() const override
    {
        return profiles_.size() * gshareCirConfigs().size();
    }

  private:
    /**
     * Check the pre-pass saw the whole trace, the sample recorded some
     * but under half of it, and every config (all on the same gshare)
     * estimated the same misprediction rates; append one result per
     * config: trace and sample shape plus the bits of every
     * per-subsample estimate.
     */
    void
    addSampledResults(Pass &pass, const SamplingBenchmarkResult &result)
    {
        std::string shape_problem;
        if (result.totalBranches != branches_) {
            shape_problem = "pre-pass saw " +
                            std::to_string(result.totalBranches) + " of " +
                            std::to_string(branches_) + " branches";
        } else if (result.recordedBranches == 0 ||
                   result.recordedBranches >= result.totalBranches / 2) {
            shape_problem = "recorded " +
                            std::to_string(result.recordedBranches) +
                            " branches, not about a tenth of the trace";
        }
        for (const SamplingConfigEstimate &config : result.perConfig) {
            const std::string key = result.name + "/" + config.label;
            std::string problem = shape_problem;
            if (problem.empty() &&
                config.rateSubsamples !=
                    result.perConfig.front().rateSubsamples)
                problem = "gshare misprediction rates differ between "
                          "configs";
            if (!problem.empty())
                pass.problems.push_back(key + ": " + problem);
            std::vector<std::uint64_t> words = {
                result.totalBranches, result.recordedBranches,
                result.regions, result.sampledRegions};
            words.insert(words.end(), result.sampledRegionIds.begin(),
                         result.sampledRegionIds.end());
            for (const double v : config.rateSubsamples)
                words.push_back(bitsOf(v));
            for (const auto &series : config.coverageSubsamples) {
                for (const double v : series)
                    words.push_back(bitsOf(v));
            }
            for (const auto &series : config.pvnSubsamples) {
                for (const double v : series)
                    words.push_back(bitsOf(v));
            }
            pass.results.push_back({key, std::move(words), problem.empty()});
        }
    }

    unsigned nproc_;
    std::vector<std::string> paths_;
};

} // namespace

void
Workload::fingerprintTraces()
{
    checksums_.clear();
    for (const BenchmarkProfile &profile : profiles_) {
        WorkloadGenerator generator(profile, branches_);
        checksums_.push_back(streamChecksum(generator));
    }
}

std::uint64_t
digestOf(const std::vector<std::uint64_t> &words)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const std::uint64_t word : words) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (word >> (8 * byte)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    }
    return hash;
}

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, unsigned nproc,
             const std::string &work_dir)
{
    if (name == "paper_driver_suite")
        return std::make_unique<PaperDriverSuite>(seed);
    if (name == "mixed_sweep_10cfg")
        return std::make_unique<MixedSweep>(seed, nproc);
    if (name == "sampled_cbt2_suite")
        return std::make_unique<SampledCbt2Suite>(seed, nproc, work_dir);
    throw std::invalid_argument("unknown workload: " + name);
}

std::vector<BenchmarkProfile>
seededProfiles(const std::vector<std::string> &names, std::uint64_t seed)
{
    std::vector<BenchmarkProfile> profiles;
    for (const std::string &name : names) {
        BenchmarkProfile profile = ibsProfile(name);
        profile.seed += seed * 1000;
        profiles.push_back(std::move(profile));
    }
    return profiles;
}

unsigned
sweepWorkers(unsigned nproc)
{
    return nproc > 3 ? nproc - 2 : 1;
}

std::vector<BankEntry>
paperBank()
{
    return {
        {"pc_ideal", "one_level_ideal",
         oneLevelIdealConfig(IndexScheme::Pc)},
        {"bhr_ideal", "one_level_ideal",
         oneLevelIdealConfig(IndexScheme::Bhr)},
        {"pcxorbhr_ideal", "one_level_ideal",
         oneLevelIdealConfig(IndexScheme::PcXorBhr)},
        {"ones_count", "one_level_ideal",
         oneLevelOnesCountConfig(IndexScheme::PcXorBhr)},
        {"saturating", "one_level_counter",
         oneLevelCounterConfig(IndexScheme::PcXorBhr,
                               CounterKind::Saturating)},
        {"resetting", "one_level_counter",
         oneLevelCounterConfig(IndexScheme::PcXorBhr,
                               CounterKind::Resetting)},
        {"two_level", "two_level",
         twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir)},
    };
}

std::vector<SweepConfiguration>
gshareCirConfigs()
{
    const std::vector<std::pair<std::string, EstimatorConfig>> configs = {
        {"pc_ideal", oneLevelIdealConfig(IndexScheme::Pc)},
        {"bhr_ideal", oneLevelIdealConfig(IndexScheme::Bhr)},
        {"pcxorbhr_ideal", oneLevelIdealConfig(IndexScheme::PcXorBhr)},
        {"ones_count", oneLevelOnesCountConfig(IndexScheme::PcXorBhr)},
        {"saturating", oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                             CounterKind::Saturating)},
        {"resetting", oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                            CounterKind::Resetting)},
        {"half_reset", oneLevelCounterConfig(IndexScheme::PcXorBhr,
                                             CounterKind::HalfReset)},
        {"two_level",
         twoLevelConfig(IndexScheme::PcXorBhr, SecondLevelIndex::Cir)},
    };
    std::vector<SweepConfiguration> out;
    for (const auto &[slug, config] : configs)
        out.push_back(
            singleEstimatorConfig(slug, largeGshareFactory(), config));
    return out;
}

std::vector<SweepConfiguration>
mixedConfigs()
{
    std::vector<SweepConfiguration> out = gshareCirConfigs();
    out.push_back(singleEstimatorConfig("tage_provider", tageFactory(),
                                        tageProviderConfig()));
    out.push_back(singleEstimatorConfig(
        "perceptron_margin", perceptronFactory(), perceptronMarginConfig()));
    return out;
}

DriverOptions
paperDriverOptions(bool profile_static)
{
    DriverOptions options;
    options.bhrBits = paper::kLargeHistoryBits;
    options.gcirBits = paper::kCirBits;
    options.profileStatic = profile_static;
    return options;
}

SamplingOptions
sampledOptions(std::uint64_t branches, unsigned nproc)
{
    SamplingOptions options;
    options.sampleRate = 0.1;
    options.regionBranches = std::max<std::uint64_t>(1000, branches / 100);
    options.warmupRegions = 2;
    options.sweep.threads = sweepWorkers(nproc);
    return options;
}

std::vector<std::uint64_t>
exactWords(std::uint64_t branches, std::uint64_t mispredicts,
           const std::vector<BucketStats> &stats,
           const SparseBucketStats *static_stats)
{
    std::vector<std::uint64_t> words = {branches, mispredicts};
    const auto add = [&words](std::vector<KeyedBucketCounts> counts) {
        std::sort(counts.begin(), counts.end(),
                  [](const KeyedBucketCounts &a,
                     const KeyedBucketCounts &b) {
                      return a.bucket < b.bucket;
                  });
        words.push_back(counts.size());
        for (const KeyedBucketCounts &entry : counts) {
            words.push_back(entry.bucket);
            words.push_back(static_cast<std::uint64_t>(entry.counts.refs));
            words.push_back(
                static_cast<std::uint64_t>(entry.counts.mispredicts));
        }
    };
    for (const BucketStats &s : stats)
        add(s.nonEmpty());
    if (static_stats != nullptr)
        add(static_stats->nonEmpty());
    return words;
}

} // namespace perfbench
