/**
 * @file
 * Suite-level experiment execution.
 *
 * Runs configurations over every benchmark of a suite with fresh
 * structures per benchmark (the paper initializes all tables at the
 * start of each benchmark) and produces both per-benchmark results and
 * the equal-dynamic-branch-weight composite of Section 1.2.
 *
 * Benchmark tasks are error-isolated: a failure inside one benchmark
 * (corrupt trace, watchdog timeout, estimator bug) is caught into that
 * benchmark's BenchmarkRunResult::error. A RunPolicy chooses whether
 * the suite run then throws (fail-fast, the default) or composites
 * over the survivors with the result flagged degraded
 * (continue-on-error). See docs/robustness.md.
 */

#ifndef CONFSIM_SIM_SUITE_RUNNER_H
#define CONFSIM_SIM_SUITE_RUNNER_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "metrics/bucket_stats.h"
#include "obs/branch_profiler.h"
#include "predictor/branch_predictor.h"
#include "sim/driver_options.h"
#include "sim/run_policy.h"
#include "sim/sweep_options.h"
#include "trace/trace_source.h"
#include "workload/suite.h"

namespace confsim {

/** Results of one benchmark inside a suite run. */
struct BenchmarkRunResult
{
    std::string name;
    std::uint64_t branches = 0;
    std::uint64_t mispredicts = 0;
    double mispredictRate = 0.0;
    std::vector<BucketStats> estimatorStats;
    SparseBucketStats staticStats; //!< per-PC (when profiling enabled)

    /** Per-branch attribution profile (untagged PCs; empty unless
     *  DriverOptions::profileBranches). Not carried in checkpoint
     *  done-markers — a resumed, already-completed benchmark reports
     *  an empty profile. */
    BranchProfile branchProfile;

    /** Estimator names, from this run's own estimator instances. */
    std::vector<std::string> estimatorNames;

    /** Why this benchmark failed; empty on success. */
    std::string error;

    /** Taxonomy category of `error` (meaningful only when failed()). */
    ErrorCategory errorCategory = ErrorCategory::kInternal;

    /**
     * True when the failure was a cooperative cancellation — external
     * CancellationToken, fail-fast sibling teardown, or the suite
     * deadline budget expiring before this benchmark started — rather
     * than a fault of the benchmark itself. Fail-fast reporting skips
     * cancelled entries so the error it surfaces is always the root
     * cause, not the teardown it triggered.
     */
    bool cancelled = false;

    /**
     * Attempts consumed: 1 when the benchmark succeeded (or failed
     * terminally) on the first try, > 1 only when RunPolicy retries
     * fired. Every result a suite run returns has attempts >= 1.
     */
    unsigned attempts = 1;

    /**
     * Wall-clock time spent on this benchmark, across all attempts
     * (trace generation + simulation), divided equally among the
     * configurations of the pass.
     */
    double wallMs = 0.0;

    /** @return true iff this benchmark produced no usable result. */
    bool failed() const { return !error.empty(); }
};

/** Results of a full suite run. */
struct SuiteRunResult
{
    std::vector<BenchmarkRunResult> perBenchmark;
    std::vector<std::string> estimatorNames;

    /** Equal-weight composite per estimator (suite order preserved). */
    std::vector<BucketStats> compositeEstimatorStats;

    /**
     * Equal-weight composite of per-static-branch stats. Keys are
     * (benchmark index << 48) | pc so the same address in different
     * benchmarks stays a distinct static branch.
     */
    SparseBucketStats compositeStaticStats;

    /**
     * Suite-merged per-branch attribution profile (when
     * DriverOptions::profileBranches). Keys are
     * (benchmark index << 48) | pc — the same tagging scheme as
     * compositeStaticStats — so its totals are the exact sums of the
     * surviving benchmarks' counts.
     */
    BranchProfile branchProfile;

    /** Equal-weight composite misprediction rate (over survivors). */
    double compositeMispredictRate = 0.0;

    /**
     * True iff any benchmark failed, i.e. the composites cover only a
     * surviving subset of the suite (RunPolicy continue-on-error).
     */
    bool degraded = false;

    /**
     * Benchmarks that ran successfully but recorded zero branches
     * (e.g. an empty trace). They are excluded from every composite —
     * averaging their meaningless 0.0 rate or compositing their empty
     * bucket mass would corrupt the result — and flagged via
     * compositeDegraded instead.
     */
    std::size_t zeroRecordBenchmarks = 0;

    /**
     * True iff the composites cover fewer benchmarks than the suite
     * holds, whether through failures (degraded) or zero-record
     * exclusions. Consumers that require full-suite composites should
     * check this, not just degraded.
     */
    bool compositeDegraded = false;

    /** Wall-clock time of the whole suite run. */
    double wallMs = 0.0;

    /** @return how many benchmarks failed. */
    std::size_t
    failedBenchmarks() const
    {
        std::size_t n = 0;
        for (const auto &bench : perBenchmark)
            n += bench.failed() ? 1 : 0;
        return n;
    }
};

/** Builds a fresh predictor for one benchmark run. */
using PredictorFactory =
    std::function<std::unique_ptr<BranchPredictor>()>;

/** Builds a fresh set of estimators for one benchmark run. */
using EstimatorSetFactory =
    std::function<std::vector<std::unique_ptr<ConfidenceEstimator>>()>;

/**
 * Optional per-benchmark trace-source decorator. Receives the
 * benchmark index and the freshly built generator; whatever it returns
 * is what the driver consumes. Used to substitute trace-file readers
 * for generators and to inject faults (FaultInjectingTraceSource) in
 * robustness tests. Called once per attempt, possibly concurrently —
 * must be thread-safe.
 */
using SourceWrapper = std::function<std::unique_ptr<TraceSource>(
    std::size_t bench, std::unique_ptr<TraceSource> inner)>;

struct SweepConfiguration;

/**
 * Results of a multi-configuration sweep over a suite: one full
 * SuiteRunResult per attached configuration (configuration order
 * preserved), produced from a single decode pass per benchmark.
 */
struct SweepSuiteResult
{
    std::vector<SuiteRunResult> perConfig;
    std::vector<std::string> labels; //!< configuration labels
    double wallMs = 0.0; //!< wall time of the whole sweep

    /** @return true iff any configuration's result is degraded. */
    bool
    degraded() const
    {
        for (const auto &config : perConfig) {
            if (config.degraded)
                return true;
        }
        return false;
    }
};

/** Runs configurations across a benchmark suite. */
class SuiteRunner
{
  public:
    /** @param suite Benchmarks to run (copied). */
    explicit SuiteRunner(BenchmarkSuite suite);

    /**
     * Run one configuration over every benchmark: runSweep() with that
     * single configuration. @p sweep bounds the threads it starts
     * (SweepOptions::threads, decodeAhead, benchParallel) without
     * setting CONFSIM_SEQUENTIAL for the whole process.
     *
     * @param make_predictor Fresh-predictor factory (called once per
     *        benchmark attempt, possibly concurrently — must be
     *        thread-safe, which stateless lambdas trivially are).
     * @param make_estimators Fresh-estimator-set factory (same rule).
     * @param options Driver knobs shared by all benchmarks.
     * @param policy Fault-tolerance policy. The default fail-fast
     *        policy throws on the first (suite-order) failure.
     */
    SuiteRunResult run(const PredictorFactory &make_predictor,
                       const EstimatorSetFactory &make_estimators,
                       DriverOptions options = {},
                       RunPolicy policy = {},
                       const SweepOptions &sweep = {}) const;

    /**
     * Run configurations over every benchmark, decoding each trace
     * once for all of them (sim/sweep_engine.h). Benchmarks are
     * independent simulations with fresh structures (the paper
     * initializes all tables at the start of each benchmark).
     *
     * Scheduling: configurations shard across a worker pool that is
     * shared and globally sized (never capped at the configuration
     * count). When a benchmark's pass cannot use every worker, further
     * benchmarks' passes run concurrently (SweepOptions::benchParallel
     * slots; decode runs ahead of replay per SweepOptions::decodeAhead).
     * Results — including output order and composites — are bit-exact
     * at any knob setting. CONFSIM_SEQUENTIAL forces one thread.
     *
     * Each benchmark runs under one guarded loop: a failure becomes
     * that benchmark's error for every configuration (under
     * continue-on-error a failure inside one of several configurations
     * fails only that one), with the policy's retries, watchdog, suite
     * deadline, and fail-fast teardown. With checkpointing enabled the
     * whole pass is checkpointed per benchmark; resume restores from
     * the newest valid generation, and a finished benchmark leaves a
     * done-marker holding every configuration's result.
     *
     * BenchmarkRunResult::wallMs is the benchmark's wall time across
     * attempts, divided equally among the configurations (so sums over
     * configurations recover the real cost).
     *
     * @param configs Attached configurations (factories follow the
     *        same thread-safety rule as run()). With
     *        SweepOptions::benchParallel 0 and several configurations,
     *        each predictor factory is also called once up front to
     *        count the pass's trunks (predictorRunsOf).
     * @param options Driver knobs shared by all configurations.
     * @param sweep Thread/batch/pipelining knobs. When
     *        SweepOptions::pool is set the pass runs on that external
     *        pool (the caller owns its lifetime and its occupancy
     *        reporting); otherwise runSweep creates a pool sized from
     *        SweepOptions::threads.
     * @param policy Fault-tolerance policy (see run()).
     */
    SweepSuiteResult
    runSweep(const std::vector<SweepConfiguration> &configs,
             DriverOptions options, SweepOptions sweep,
             RunPolicy policy = {}) const;

    /**
     * Install a trace-source decorator applied to every benchmark's
     * generator (empty = none). Primarily a fault-injection and
     * file-replay hook.
     */
    void setSourceWrapper(SourceWrapper wrapper)
    {
        sourceWrapper_ = std::move(wrapper);
    }

    /** @return the suite being run. */
    const BenchmarkSuite &suite() const { return suite_; }

    /** @return the installed decorator (empty when none). */
    const SourceWrapper &sourceWrapper() const { return sourceWrapper_; }

  private:
    BenchmarkSuite suite_;
    SourceWrapper sourceWrapper_;
};

} // namespace confsim

#endif // CONFSIM_SIM_SUITE_RUNNER_H
