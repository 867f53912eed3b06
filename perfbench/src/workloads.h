/**
 * @file
 * The benchmark's workloads and the configurations they simulate.
 *
 * Every workload is made from a seed: seed 0 (kDefaultSeed) is the
 * canonical IBS suite, and seed s moves every benchmark program's
 * generator seed by s * 1000, the same redraw the seed-sensitivity
 * ablation uses. Each pass reduces every simulated (benchmark, config)
 * result to the words its digest covers, so passes can be compared
 * with each other and with the digests stored beside the benchmark.
 */

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sim/experiment.h"
#include "workload/benchmark_profile.h"

namespace confsim {
class SpanTracer;
}

namespace perfbench {

/** The canonical IBS program draw. */
constexpr std::uint64_t kDefaultSeed = 0;

/** One simulated (benchmark, config) result as digest input. */
struct ResultWords
{
    std::string key; //!< "<benchmark>/<config>"
    std::vector<std::uint64_t> words;
    bool ok = true; //!< no error, and the result's invariants hold
};

/** @return the FNV-1a 64-bit digest of @p words. */
std::uint64_t digestOf(const std::vector<std::uint64_t> &words);

/** What one pass over a workload's benchmarks produced. */
struct Pass
{
    double wallMs = 0.0;
    std::vector<double> benchMs; //!< one entry per benchmark-trace pass
    std::uint64_t updates = 0;   //!< trace branches x configurations
    std::vector<ResultWords> results; //!< empty when the pass threw
    std::vector<std::string> problems;
};

/** A workload: inputs built by setup(), simulated by run(). */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build the inputs; repeatable, each call redoes all the work. */
    virtual void setup() = 0;

    /** Simulate every benchmark once; spans wrap the calls made. */
    virtual Pass run(confsim::SpanTracer *spans) = 0;

    /** @return (benchmark, config) results one pass produces. */
    virtual std::size_t resultsPerPass() const = 0;

    /** @return the seeded benchmark programs, in suite order. */
    const std::vector<confsim::BenchmarkProfile> &
    profiles() const
    {
        return profiles_;
    }

    /** @return conditional branches per benchmark trace. */
    std::uint64_t branches() const { return branches_; }

    /** @return streamChecksum of each trace, as of the last setup(). */
    const std::vector<std::uint32_t> &
    checksums() const
    {
        return checksums_;
    }

  protected:
    Workload(std::vector<confsim::BenchmarkProfile> profiles,
             std::uint64_t branches)
        : profiles_(std::move(profiles)), branches_(branches)
    {
    }

    /** Fingerprint every trace into checksums_. */
    void fingerprintTraces();

    std::vector<confsim::BenchmarkProfile> profiles_;
    std::uint64_t branches_;
    std::vector<std::uint32_t> checksums_;
};

/**
 * Build workload @p name at @p seed. Sweeps use sweepWorkers(@p nproc)
 * workers; trace files go under @p work_dir. Throws on an unknown name.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       std::uint64_t seed, unsigned nproc,
                                       const std::string &work_dir);

/** @return the IBS profiles @p names redrawn for @p seed. */
std::vector<confsim::BenchmarkProfile>
seededProfiles(const std::vector<std::string> &names, std::uint64_t seed);

/**
 * Sweep worker threads for a host with @p nproc hardware threads:
 * the calling thread and the decode-ahead producer are live too, so
 * nproc - 2 workers keep the process at nproc threads.
 */
unsigned sweepWorkers(unsigned nproc);

/** One estimator of the paper's bank, with a metric-safe slug. */
struct BankEntry
{
    std::string slug;
    std::string family; //!< one_level_ideal, one_level_counter, two_level
    confsim::EstimatorConfig config;
};

/**
 * The paper's estimator bank on 64K gshare: PC/BHR/PCxorBHR ideal,
 * ones-count, saturating, resetting, two-level.
 */
std::vector<BankEntry> paperBank();

/** @return perf_report's 8 gshare + CIR-family sweep configurations. */
std::vector<confsim::SweepConfiguration> gshareCirConfigs();

/** @return gshareCirConfigs() plus tage-provider and perceptron-margin. */
std::vector<confsim::SweepConfiguration> mixedConfigs();

/** The paper's architectural register widths; optional static profile. */
confsim::DriverOptions paperDriverOptions(bool profile_static);

/** Sampling knobs of the sampled workload for @p branches-long traces. */
confsim::SamplingOptions sampledOptions(std::uint64_t branches,
                                        unsigned nproc);

/** Digest words of an exact per-benchmark result. */
std::vector<std::uint64_t>
exactWords(std::uint64_t branches, std::uint64_t mispredicts,
           const std::vector<confsim::BucketStats> &stats,
           const confsim::SparseBucketStats *static_stats);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
