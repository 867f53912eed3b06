#include "sim/suite_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <optional>
#include <thread>

#include "ckpt/checkpoint_store.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "sim/sweep_engine.h"
#include "fault/fault_injection.h"
#include "trace/trace_io.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/status.h"

namespace confsim {

SuiteRunner::SuiteRunner(BenchmarkSuite suite)
    : suite_(std::move(suite))
{}

namespace {

/** Milliseconds elapsed since @p start. */
double
elapsedMsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Shared cancellation/deadline state for one suite run. The token is
 * chained to the policy's external token (never mutated by us), so
 * cancel() here — fail-fast teardown — propagates to every benchmark's
 * driver/sweep poll site without touching the caller's object.
 */
struct SuiteContext
{
    CancellationToken token;
    std::chrono::steady_clock::time_point start;
    std::uint64_t deadlineMs = 0;

    explicit SuiteContext(const RunPolicy &policy)
        : token(policy.cancel),
          start(std::chrono::steady_clock::now()),
          deadlineMs(policy.deadlineMs)
    {}

    bool hasDeadline() const { return deadlineMs != 0; }

    /** Remaining suite budget in ms; 0 when exhausted. Only meaningful
     *  when hasDeadline(). */
    std::uint64_t
    remainingMs() const
    {
        const double used = elapsedMsSince(start);
        if (used >= static_cast<double>(deadlineMs))
            return 0;
        return deadlineMs - static_cast<std::uint64_t>(used);
    }

    /** Clip one attempt's per-benchmark watchdog to the remaining suite
     *  budget, so deadline expiry surfaces as a cooperative
     *  WatchdogTimeout inside the record loop rather than needing a
     *  reaper thread. */
    std::uint64_t
    clipWatchdogMs(std::uint64_t watchdog_ms) const
    {
        if (!hasDeadline())
            return watchdog_ms;
        const std::uint64_t remaining = remainingMs();
        if (watchdog_ms == 0)
            return remaining;
        return std::min(watchdog_ms, remaining);
    }
};

/**
 * Deterministic backoff before retry attempt @p attempt + 1 of the
 * benchmark named @p name: retryBackoffMs * 2^(attempt-1), jittered
 * into [0.75x, 1.25x] with a seed derived from the name and attempt so
 * concurrent retries decorrelate without making runs irreproducible.
 */
std::uint64_t
backoffDelayMs(std::uint64_t base, unsigned attempt,
               const std::string &name)
{
    if (base == 0)
        return 0;
    const unsigned shift = std::min(attempt - 1, 16u);
    const std::uint64_t exponential = base << shift;
    const std::uint64_t seed =
        std::hash<std::string>{}(name) ^
        (0x9e3779b97f4a7c15ULL * (attempt + 1));
    const std::uint64_t span = exponential / 2;
    const std::uint64_t low = exponential - exponential / 4;
    return low + (span == 0 ? 0 : seed % (span + 1));
}

/**
 * Sleep the category-aware retry backoff, capped by the remaining
 * suite budget and interruptible by cancellation. @return false when
 * the caller should stop retrying (cancelled, or budget exhausted).
 */
bool
sleepBeforeRetry(const RunPolicy &policy, const SuiteContext &ctx,
                 unsigned attempt, const std::string &name,
                 SpanTracer *spans)
{
    std::uint64_t delay =
        backoffDelayMs(policy.retryBackoffMs, attempt, name);
    if (ctx.hasDeadline()) {
        const std::uint64_t remaining = ctx.remainingMs();
        if (remaining == 0)
            return false;
        delay = std::min(delay, remaining);
    }
    if (delay == 0)
        return !ctx.token.cancelled();
    ScopedSpan span(spans, "retry.backoff");
    return interruptibleSleepMs(&ctx.token, delay);
}

/**
 * How many benchmarks' passes run concurrently. 0 auto-sizes: enough
 * slots that `slots * shards_per_benchmark` covers the pool, where a
 * benchmark's pass has one shard per fused trunk (predictorRunsOf).
 * CONFSIM_SEQUENTIAL forces 1.
 */
unsigned
resolveBenchParallel(unsigned requested, unsigned pool_workers,
                     const std::vector<SweepConfiguration> &configs,
                     std::size_t benchmarks)
{
    std::size_t slots = sequentialForced() ? 1 : requested;
    if (slots == 0) {
        std::size_t trunks = configs.size();
        try {
            if (trunks > 1)
                trunks = predictorRunsOf(configs);
        } catch (const std::exception &) {
            // A failing factory fails again in each benchmark's own
            // attempt, where the run policy decides what it costs.
        }
        const std::size_t per_bench = std::max<std::size_t>(
            1, std::min<std::size_t>(pool_workers, trunks));
        slots = pool_workers / per_bench;
    }
    return static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(slots, benchmarks)));
}

/**
 * Forward fault-injection and corrupt-chunk-skip notifications from a
 * benchmark's trace source into the telemetry event stream. Only the
 * outermost decorator is inspected; call sites that build deeper
 * stacks can install hooks on inner layers themselves.
 */
void
wireSourceTelemetry(TraceSource &source, Telemetry *telemetry,
                    const std::string &benchmark)
{
    if (telemetry == nullptr)
        return;
    if (auto *faults =
            dynamic_cast<FaultInjectingTraceSource *>(&source)) {
        faults->setEventHook([telemetry, benchmark](
                                 const char *kind,
                                 std::uint64_t delivered) {
            telemetry->emit(TelemetryEvent(
                events::kFaultInjected,
                {field("benchmark", benchmark), field("kind", kind),
                 field("record", delivered)}));
            telemetry->registry().increment(std::string("faults.") +
                                            kind);
        });
    }
    if (auto *reader = dynamic_cast<TraceFileReader *>(&source)) {
        reader->setCorruptionHook(
            [telemetry, benchmark](const std::string &what,
                                   std::uint64_t chunk,
                                   std::uint64_t dropped) {
                telemetry->emit(TelemetryEvent(
                    events::kCorruptChunkSkipped,
                    {field("benchmark", benchmark),
                     field("what", what), field("chunk", chunk),
                     field("dropped_records", dropped)}));
                telemetry->registry().increment(
                    "trace.corrupt_chunks_skipped");
            });
    }
}

/**
 * Forward checkpoint-store activity (generation writes, corrupt files
 * skipped during recovery) into the telemetry event stream.
 */
void
wireStoreTelemetry(CheckpointStore &store, Telemetry *telemetry,
                   const std::string &benchmark)
{
    if (telemetry == nullptr)
        return;
    store.setEventHook([telemetry, benchmark](
                           const CheckpointStoreEvent &event) {
        if (event.kind == CheckpointStoreEvent::Kind::Written) {
            telemetry->emit(TelemetryEvent(
                events::kCheckpointWritten,
                {field("benchmark", benchmark),
                 field("generation", event.generation),
                 field("at_branch", event.atBranch),
                 field("bytes", event.bytes),
                 field("path", event.path)}));
            telemetry->registry().increment("ckpt.written");
        } else {
            telemetry->emit(TelemetryEvent(
                events::kCheckpointCorrupt,
                {field("benchmark", benchmark),
                 field("generation", event.generation),
                 field("error", event.detail)}));
            telemetry->registry().increment("ckpt.corrupt");
        }
    });
}

/** Emit the checkpoint_restored event (generation 0 = done-marker). */
void
emitRestored(Telemetry *telemetry, const std::string &benchmark,
             std::uint64_t generation, std::uint64_t at_branch)
{
    if (telemetry == nullptr)
        return;
    telemetry->emit(TelemetryEvent(
        events::kCheckpointRestored,
        {field("benchmark", benchmark),
         field("generation", generation),
         field("at_branch", at_branch)}));
    telemetry->registry().increment("ckpt.restored");
}

/**
 * Version of the done-marker layout: one result per configuration.
 * Version 1 held a single SuiteRunner::run() result and no labels; it
 * fails to decode, so that benchmark is simply re-simulated.
 */
constexpr std::uint32_t kDoneVersion = 2;

/**
 * The done-marker payload: a finished benchmark's per-configuration
 * results, so a resumed suite run reuses them without re-simulating.
 * Everything the compositing pass reads is included.
 */
struct DoneMarker
{
    const std::string &name;
    const std::vector<SweepConfiguration> &configs;
    std::vector<BenchmarkRunResult> results;

    void
    saveState(StateWriter &out) const
    {
        out.putString(name);
        out.putU64(results.size());
        for (std::size_t c = 0; c < results.size(); ++c) {
            const BenchmarkRunResult &result = results[c];
            out.putString(configs[c].label);
            out.putU64(result.branches);
            out.putU64(result.mispredicts);
            out.putF64(result.mispredictRate);
            out.putU64(result.estimatorNames.size());
            for (const auto &estimator : result.estimatorNames)
                out.putString(estimator);
            out.putU64(result.estimatorStats.size());
            for (const auto &stats : result.estimatorStats) {
                out.putU64(stats.numBuckets());
                stats.saveState(out);
            }
            result.staticStats.saveState(out);
        }
    }

    /** fatal(kCheckpoint) unless the marker is this run's. */
    void
    loadState(StateReader &in)
    {
        if (in.getString() != name) {
            fatal(ErrorCategory::kCheckpoint,
                  "completed checkpoint belongs to another benchmark");
        }
        in.expectU64(configs.size(), "completed checkpoint config count");
        results.assign(configs.size(), BenchmarkRunResult{});
        for (std::size_t c = 0; c < configs.size(); ++c) {
            BenchmarkRunResult &result = results[c];
            if (in.getString() != configs[c].label) {
                fatal(ErrorCategory::kCheckpoint,
                      "completed checkpoint config " + std::to_string(c) +
                          " is not '" + configs[c].label + "'");
            }
            result.name = name;
            result.branches = in.getU64();
            result.mispredicts = in.getU64();
            result.mispredictRate = in.getF64();
            const std::uint64_t names = in.getU64();
            for (std::uint64_t i = 0; i < names; ++i)
                result.estimatorNames.push_back(in.getString());
            const std::uint64_t stats_count = in.getU64();
            for (std::uint64_t i = 0; i < stats_count; ++i) {
                BucketStats stats(in.getU64());
                stats.loadState(in);
                result.estimatorStats.push_back(std::move(stats));
            }
            result.staticStats.loadState(in);
        }
    }
};

/** Report a checkpoint that verified its CRC but cannot be used. */
void
emitUnusable(Telemetry *telemetry, const std::string &benchmark,
             std::uint64_t generation, const char *error)
{
    if (telemetry == nullptr)
        return;
    telemetry->emit(TelemetryEvent(
        events::kCheckpointCorrupt,
        {field("benchmark", benchmark), field("generation", generation),
         field("error", error)}));
    telemetry->registry().increment("ckpt.corrupt");
}

/**
 * One benchmark's outcome in a suite pass: a result per configuration,
 * or the error that failed the benchmark for every configuration.
 */
struct BenchOutcome
{
    std::vector<BenchmarkRunResult> perConfig;
    std::string error;
    ErrorCategory category = ErrorCategory::kInternal;
    bool cancelled = false;
    unsigned attempts = 1;
    double wallMs = 0.0;

    bool failed() const { return !error.empty(); }

    void
    fail(std::string what, ErrorCategory why)
    {
        error = std::move(what);
        category = why;
        cancelled = why == ErrorCategory::kCancelled;
    }
};

/**
 * Everything a suite pass's benchmarks share. runBenchmark() is the one
 * guarded loop: retry with backoff, watchdog, suite deadline,
 * cancellation, checkpoint fallback, and done-markers.
 */
struct SuitePass
{
    const BenchmarkSuite &suite;
    const SourceWrapper &wrapSource;
    const std::vector<SweepConfiguration> &configs;
    const DriverOptions &options;
    const SweepOptions &engineSweep;
    const RunPolicy &policy;
    const SuiteContext &ctx;

    /** Build (and wrap) benchmark @p bench's trace source. */
    std::unique_ptr<TraceSource>
    makeSource(std::size_t bench, const std::string &name) const
    {
        std::unique_ptr<TraceSource> source = suite.makeGenerator(bench);
        if (wrapSource) {
            source = wrapSource(bench, std::move(source));
            if (!source) {
                fatal(ErrorCategory::kConfig,
                      "source wrapper returned null for benchmark '" +
                          name + "'");
            }
        }
        wireSourceTelemetry(*source, options.telemetry, name);
        return source;
    }

    /** Per-configuration benchmark results of one finished pass. */
    std::vector<BenchmarkRunResult>
    collect(std::size_t bench, const std::string &name,
            SweepRunResult &pass) const
    {
        // Re-key per-PC entries so distinct benchmarks never alias.
        const std::uint64_t tag = static_cast<std::uint64_t>(bench) << 48;
        std::vector<BenchmarkRunResult> results(configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            SweepConfigResult &config = pass.perConfig[c];
            BenchmarkRunResult &result = results[c];
            result.name = name;
            // An isolated per-config failure degrades only this
            // configuration; the others are bit-exact.
            result.error = config.error;
            if (result.failed())
                continue;
            result.branches = config.branches;
            result.mispredicts = config.mispredicts;
            result.mispredictRate = config.mispredictRate();
            result.estimatorStats = std::move(config.estimatorStats);
            result.estimatorNames = std::move(config.estimatorNames);
            result.branchProfile = std::move(config.branchProfile);
            for (const auto &[pc, entry] : config.staticProfile.entries()) {
                result.staticStats.recordAggregate(
                    tag | pc, static_cast<double>(entry.executions),
                    static_cast<double>(entry.mispredictions));
            }
        }
        return results;
    }

    /** One attempt at benchmark @p bench; throws on failure. */
    std::vector<BenchmarkRunResult>
    simulate(std::size_t bench, const DriverOptions &run_options) const
    {
        const std::string &name = run_options.telemetryLabel;
        Telemetry *const telemetry = run_options.telemetry;
        std::unique_ptr<CheckpointStore> store;
        if (policy.checkpoint.enabled()) {
            store = std::make_unique<CheckpointStore>(
                policy.checkpoint.directory, name,
                policy.checkpoint.keepGenerations);
            wireStoreTelemetry(*store, telemetry, name);
            store->setSpanTracer(run_options.spans);
            if (policy.checkpoint.resume) {
                if (auto done = store->loadCompleted()) {
                    try {
                        DoneMarker marker{name, configs, {}};
                        done->restoreState("suite:result", kDoneVersion,
                                           marker);
                        emitRestored(telemetry, name, 0, done->branches);
                        return std::move(marker.results);
                    } catch (const std::exception &e) {
                        // Intact, but not a result of this run's
                        // configurations: re-simulate.
                        emitUnusable(telemetry, name, 0, e.what());
                    }
                }
            }
        }

        SweepEngine engine(configs, run_options, engineSweep);
        if (store != nullptr) {
            engine.checkpointEvery(policy.checkpoint.everyBranches,
                                   store.get());
        }
        std::unique_ptr<TraceSource> source = makeSource(bench, name);
        SweepRunResult pass;
        bool resumed = false;
        if (store != nullptr && policy.checkpoint.resume) {
            // Newest generation first. A file that fails its CRC is
            // reported by the store itself; one that decodes but does
            // not restore (config drift, a retired layout) is reported
            // here. Either way recovery falls back one generation, and
            // with none left the benchmark re-runs from scratch. The
            // engine rebuilds its states on every call, so only the
            // source needs refreshing.
            for (const std::uint64_t gen : store->generations()) {
                std::optional<Checkpoint> ckpt = store->load(gen);
                if (!ckpt.has_value())
                    continue;
                try {
                    pass = engine.resume(*source, *ckpt);
                    emitRestored(telemetry, name, gen, ckpt->branches);
                    resumed = true;
                    break;
                } catch (const WatchdogTimeout &) {
                    throw;
                } catch (const std::exception &e) {
                    emitUnusable(telemetry, name, gen, e.what());
                    source = makeSource(bench, name);
                }
            }
        }
        if (!resumed)
            pass = engine.run(*source);
        if (telemetry != nullptr) {
            telemetry->registry().observe("sweep.bench_wall_ms",
                                          pass.wallMs);
        }

        std::vector<BenchmarkRunResult> results =
            collect(bench, name, pass);
        if (store != nullptr) {
            // The done-marker carries every configuration's result, so
            // a resumed run skips this benchmark entirely; mid-run
            // generations are then dead weight. A pass with an
            // isolated config failure leaves no marker, so a resume
            // re-simulates it.
            const bool all_ok = std::none_of(
                results.begin(), results.end(),
                [](const BenchmarkRunResult &r) { return r.failed(); });
            if (all_ok) {
                DoneMarker marker{name, configs, std::move(results)};
                Checkpoint done;
                done.label = name;
                done.branches = marker.results.front().branches;
                done.addState("suite:result", kDoneVersion, marker);
                store->writeCompleted(done);
                results = std::move(marker.results);
            }
            store->removeGenerations();
        }
        return results;
    }

    /**
     * Run benchmark @p bench under the policy. Exceptions become the
     * outcome's error; transient failures get bounded retries with
     * exponential backoff; terminal categories — watchdog timeouts,
     * cancellation, configuration errors (Error::retryable() ==
     * false) — fail at once. Never throws, so a failure cannot wedge
     * a scheduler thread. Emits benchmark_started/finished as the
     * benchmark runs, so progress sinks see results live.
     */
    BenchOutcome
    runBenchmark(std::size_t bench) const
    {
        const std::string name = suite.profile(bench).name;
        const std::string span_name = "bench:" + name;
        ScopedSpan bench_span(options.spans, span_name.c_str());
        const auto start = std::chrono::steady_clock::now();
        Telemetry *const telemetry = options.telemetry;
        if (telemetry != nullptr) {
            telemetry->emit(TelemetryEvent(events::kBenchmarkStarted,
                                           {field("benchmark", name)}));
        }

        DriverOptions run_options = options;
        run_options.telemetryLabel = name;
        run_options.cancel = &ctx.token;
        const unsigned max_attempts = std::max(1u, policy.maxAttempts);
        BenchOutcome outcome;
        for (unsigned attempt = 1;; ++attempt) {
            outcome = BenchOutcome{};
            outcome.attempts = attempt;
            // Cancelled (fail-fast teardown, external token) or
            // deadline-starved benchmarks stop before simulating.
            if (ctx.token.cancelled()) {
                outcome.fail("suite run cancelled",
                             ErrorCategory::kCancelled);
                break;
            }
            if (ctx.hasDeadline() && ctx.remainingMs() == 0) {
                outcome.fail("suite deadline of " +
                                 std::to_string(ctx.deadlineMs) +
                                 " ms exhausted",
                             ErrorCategory::kCancelled);
                break;
            }
            run_options.wallClockLimitMs =
                ctx.clipWatchdogMs(options.wallClockLimitMs);
            bool retryable = false;
            try {
                outcome.perConfig = simulate(bench, run_options);
                break;
            } catch (const WatchdogTimeout &e) {
                // Terminal: re-running a blown budget loses again.
                outcome.fail(e.what(), ErrorCategory::kTimeout);
                if (telemetry != nullptr) {
                    telemetry->emit(TelemetryEvent(
                        events::kWatchdogTimeout,
                        {field("benchmark", name),
                         field("attempt",
                               static_cast<std::uint64_t>(attempt)),
                         field("error", outcome.error)}));
                    telemetry->registry().increment(
                        "suite.watchdog_timeouts");
                }
                break;
            } catch (const std::exception &e) {
                outcome.fail(e.what(), categoryOf(e));
                retryable = isRetryable(e);
            } catch (...) {
                outcome.fail("unknown exception",
                             ErrorCategory::kInternal);
                retryable = true;
            }
            if (!retryable || attempt == max_attempts)
                break;
            if (telemetry != nullptr) {
                telemetry->emit(TelemetryEvent(
                    events::kBenchmarkRetry,
                    {field("benchmark", name),
                     field("attempt", static_cast<std::uint64_t>(attempt)),
                     field("error", outcome.error)}));
                telemetry->registry().increment("suite.retries");
            }
            if (!sleepBeforeRetry(policy, ctx, attempt, name,
                                  options.spans))
                break; // cancelled (or budget gone) mid-backoff
        }

        // The pass is shared: each configuration carries an equal
        // share of the benchmark's wall time, so summing over
        // configurations recovers (not multiplies) the real cost.
        outcome.wallMs = elapsedMsSince(start);
        for (auto &result : outcome.perConfig) {
            result.attempts = outcome.attempts;
            result.wallMs =
                outcome.wallMs / static_cast<double>(configs.size());
        }
        if (telemetry != nullptr) {
            // Per-configuration counts are in sweep_config_finished;
            // this event carries the first configuration's.
            const BenchmarkRunResult empty;
            const BenchmarkRunResult &first =
                outcome.failed() ? empty : outcome.perConfig.front();
            telemetry->emit(TelemetryEvent(
                events::kBenchmarkFinished,
                {field("benchmark", name),
                 field("wall_ms", outcome.wallMs),
                 field("attempts",
                       static_cast<std::uint64_t>(outcome.attempts)),
                 field("branches", first.branches),
                 field("mispredicts", first.mispredicts),
                 field("mispredict_rate", first.mispredictRate),
                 field("error", outcome.error),
                 field("error_category",
                       outcome.failed() ? toString(outcome.category)
                                        : "")}));
            MetricsRegistry &registry = telemetry->registry();
            registry.increment("suite.benchmarks");
            registry.observe("suite.bench_wall_ms", outcome.wallMs);
            if (outcome.failed())
                registry.increment("suite.failures");
        }
        return outcome;
    }
};

/**
 * Fill a suite result's composites (Section 1.2 equal-weight) from its
 * per-benchmark entries: the per-estimator equal-weight curves, the
 * re-weighted static profile, the composite misprediction rate, and
 * the degraded flags.
 */
void
computeComposites(SuiteRunResult &result, bool profile_static)
{
    // A benchmark that ran but recorded nothing (e.g. an empty trace)
    // has no rate or bucket mass to contribute; folding it in would
    // average a meaningless 0.0 into the composite rate and trip
    // EqualWeightComposite's zero-refs check. Exclude it from every
    // composite and mark the result degraded-composite instead.
    double rate_sum = 0.0;
    std::vector<const BenchmarkRunResult *> recorded;
    for (const auto &bench_result : result.perBenchmark) {
        if (bench_result.failed())
            continue;
        if (bench_result.branches == 0) {
            ++result.zeroRecordBenchmarks;
            continue;
        }
        rate_sum += bench_result.mispredictRate;
        recorded.push_back(&bench_result);
    }
    result.degraded = result.failedBenchmarks() != 0;
    result.compositeDegraded =
        recorded.size() != result.perBenchmark.size();
    if (recorded.empty())
        return;

    // Composites are equal-weight over the surviving recorded subset.
    result.estimatorNames = recorded.front()->estimatorNames;
    for (std::size_t e = 0; e < result.estimatorNames.size(); ++e) {
        EqualWeightComposite composite(
            recorded.front()->estimatorStats[e].numBuckets());
        for (const BenchmarkRunResult *bench_result : recorded)
            composite.add(bench_result->estimatorStats[e]);
        result.compositeEstimatorStats.push_back(composite.result());
    }

    if (profile_static) {
        constexpr double kCommonMass = 1e6;
        for (const BenchmarkRunResult *bench_result : recorded) {
            const double refs = bench_result->staticStats.totalRefs();
            if (refs > 0.0) {
                result.compositeStaticStats.addWeighted(
                    bench_result->staticStats, kCommonMass / refs);
            }
        }
    }

    result.compositeMispredictRate =
        rate_sum / static_cast<double>(recorded.size());
}

} // namespace

SuiteRunResult
SuiteRunner::run(const PredictorFactory &make_predictor,
                 const EstimatorSetFactory &make_estimators,
                 DriverOptions options, RunPolicy policy,
                 const SweepOptions &sweep) const
{
    SweepSuiteResult swept =
        runSweep({SweepConfiguration{"", make_predictor, make_estimators}},
                 std::move(options), sweep, std::move(policy));
    return std::move(swept.perConfig.front());
}

SweepSuiteResult
SuiteRunner::runSweep(const std::vector<SweepConfiguration> &configs,
                      DriverOptions options, SweepOptions sweep,
                      RunPolicy policy) const
{
    if (configs.empty()) {
        fatal(ErrorCategory::kConfig,
              "runSweep needs at least one configuration");
    }
    if (policy.watchdogMs != 0)
        options.wallClockLimitMs = policy.watchdogMs;
    const bool fail_fast = policy.errorMode == ErrorMode::kFailFast;
    SuiteContext ctx(policy);
    Telemetry *const telemetry = options.telemetry;
    const auto suite_start = std::chrono::steady_clock::now();

    // One globally sized worker pool is shared by every benchmark's
    // pass. Each pass shards its configurations over at most
    // min(pool, configs) workers; when that leaves workers idle,
    // additional benchmarks run their passes concurrently on the
    // same pool (bench_slots > 1) instead of leaving cores idle.
    // A caller-provided SweepOptions::pool (e.g. the sweep service
    // running many tenants' jobs over one host-sized pool) is used
    // as-is and never destroyed here; otherwise runSweep owns a pool
    // sized from sweep.threads — unless there is a single
    // configuration, which always replays inline.
    SweepWorkerPool *const shared_pool = sweep.pool;
    const unsigned pool_workers =
        shared_pool != nullptr
            ? std::max(1u, shared_pool->workers())
            : resolveSweepWorkers(sweep.threads);
    std::unique_ptr<SweepWorkerPool> pool;
    SweepOptions engine_sweep = sweep;
    engine_sweep.pool = shared_pool;
    // Continue-on-error isolates failures at configuration granularity
    // too: one configuration's fault freezes only that configuration
    // while the rest of the pass stays bit-exact (sweep_engine.h). A
    // lone configuration has no survivors, so its failure fails the
    // benchmark and gets the policy's retries.
    engine_sweep.isolateConfigFailures = !fail_fast && configs.size() > 1;
    if (shared_pool == nullptr && pool_workers > 1 && configs.size() > 1) {
        pool = std::make_unique<SweepWorkerPool>(pool_workers);
        engine_sweep.pool = pool.get();
    }
    const unsigned bench_slots = resolveBenchParallel(
        sweep.benchParallel, pool_workers, configs, suite_.size());

    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunStarted,
            {field("benchmarks",
                   static_cast<std::uint64_t>(suite_.size())),
             field("configs", static_cast<std::uint64_t>(configs.size())),
             field("error_mode",
                   fail_fast ? "fail_fast" : "continue_on_error"),
             field("max_attempts",
                   static_cast<std::uint64_t>(
                       std::max(1u, policy.maxAttempts))),
             field("watchdog_ms", options.wallClockLimitMs),
             field("parallel", bench_slots > 1)}));
    }

    // Phase 1: every benchmark produces an outcome. Outcomes are
    // independent, so they may be computed concurrently; merging
    // (phase 2) stays in suite order, so output — including which
    // failure fail-fast reports — is identical at any schedule.
    const SuitePass pass{suite_,  sourceWrapper_, configs, options,
                         engine_sweep, policy, ctx};
    std::vector<BenchOutcome> outcomes(suite_.size());
    if (bench_slots <= 1) {
        for (std::size_t bench = 0; bench < suite_.size(); ++bench) {
            outcomes[bench] = pass.runBenchmark(bench);
            // Fail-fast: nothing after the first failure will be
            // merged, so don't spend time simulating it.
            if (fail_fast && outcomes[bench].failed())
                break;
        }
    } else {
        // Benchmark pipelining: bench_slots scheduler threads pull
        // benchmark indices; replay itself runs on the shared pool.
        std::atomic<std::size_t> next{0};
        const auto pump = [&] {
            for (;;) {
                const std::size_t bench =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (bench >= suite_.size())
                    return;
                outcomes[bench] = pass.runBenchmark(bench);
                // Fail-fast teardown: the first real failure cancels
                // the run token so sibling passes (and queued ones)
                // unwind instead of simulating doomed work.
                if (fail_fast && outcomes[bench].failed() &&
                    !outcomes[bench].cancelled)
                    ctx.token.cancel();
            }
        };
        std::vector<std::thread> schedulers;
        for (unsigned s = 0; s < bench_slots; ++s)
            schedulers.emplace_back(pump);
        for (auto &thread : schedulers)
            thread.join();
    }

    if (fail_fast) {
        // Surface the root cause: the first non-cancelled failure in
        // suite order. Cancelled entries are teardown collateral (or,
        // when every failure is a cancellation, an external cancel /
        // suite deadline — then the first of those is the cause).
        const auto first_failure = [&](bool skip_cancelled) {
            std::size_t bench = 0;
            while (bench < suite_.size() &&
                   (!outcomes[bench].failed() ||
                    (skip_cancelled && outcomes[bench].cancelled)))
                ++bench;
            return bench;
        };
        std::size_t culprit_bench = first_failure(true);
        if (culprit_bench == suite_.size())
            culprit_bench = first_failure(false);
        const BenchOutcome *culprit = culprit_bench < suite_.size()
                                          ? &outcomes[culprit_bench]
                                          : nullptr;
        if (culprit != nullptr) {
            if (telemetry != nullptr) {
                std::uint64_t failures = 0;
                for (const auto &outcome : outcomes)
                    failures += outcome.failed() ? 1 : 0;
                telemetry->emit(TelemetryEvent(
                    events::kSuiteRunFinished,
                    {field("wall_ms", elapsedMsSince(suite_start)),
                     field("degraded", true),
                     field("failed_benchmarks", failures),
                     field("survivors", std::uint64_t{0}),
                     field("error", culprit->error)}));
                // Flush now: if the caller doesn't catch the fatal()
                // exception, std::terminate skips unwinding and the
                // buffered sink tail (including the event above)
                // would be lost.
                telemetry->finish();
            }
            fatal(culprit->category,
                  "benchmark '" + suite_.profile(culprit_bench).name +
                      "' failed: " + culprit->error);
        }
    }

    // Phase 2: merge outcomes in suite order.
    SweepSuiteResult result;
    result.perConfig.resize(configs.size());
    for (const auto &config : configs)
        result.labels.push_back(config.label);
    for (std::size_t bench = 0; bench < suite_.size(); ++bench) {
        BenchOutcome &outcome = outcomes[bench];
        for (std::size_t c = 0; c < configs.size(); ++c) {
            SuiteRunResult &config_result = result.perConfig[c];
            if (outcome.failed()) {
                // Every configuration consumed the same pass, so the
                // benchmark failed for all of them.
                BenchmarkRunResult failed;
                failed.name = suite_.profile(bench).name;
                failed.error = outcome.error;
                failed.errorCategory = outcome.category;
                failed.cancelled = outcome.cancelled;
                failed.attempts = outcome.attempts;
                failed.wallMs = outcome.wallMs;
                config_result.perBenchmark.push_back(std::move(failed));
                continue;
            }
            BenchmarkRunResult &bench_result = outcome.perConfig[c];
            if (options.profileBranches && !bench_result.failed()) {
                // Same (bench << 48) tag as the static composite, so
                // totals are exact sums over the surviving benchmarks.
                config_result.branchProfile.mergeFrom(
                    bench_result.branchProfile,
                    static_cast<std::uint64_t>(bench) << 48);
            }
            config_result.perBenchmark.push_back(std::move(bench_result));
        }
    }

    for (SuiteRunResult &config_result : result.perConfig) {
        computeComposites(config_result, options.profileStatic);
        config_result.wallMs = elapsedMsSince(suite_start);
    }
    result.wallMs = elapsedMsSince(suite_start);
    if (telemetry != nullptr) {
        // Per-configuration composites are in the result; the event
        // carries the first configuration's.
        const SuiteRunResult &first = result.perConfig.front();
        telemetry->emit(TelemetryEvent(
            events::kSuiteRunFinished,
            {field("wall_ms", result.wallMs),
             field("composite_mispredict_rate",
                   first.compositeMispredictRate),
             field("degraded", result.degraded()),
             field("failed_benchmarks",
                   static_cast<std::uint64_t>(first.failedBenchmarks())),
             field("zero_record_benchmarks",
                   static_cast<std::uint64_t>(first.zeroRecordBenchmarks)),
             field("survivors",
                   static_cast<std::uint64_t>(
                       suite_.size() - first.failedBenchmarks()))}));
        MetricsRegistry &registry = telemetry->registry();
        registry.observe("suite.wall_ms", result.wallMs);
        registry.setGauge("sweep.pool_workers",
                          static_cast<double>(pool_workers));
        registry.setGauge("sweep.bench_parallel",
                          static_cast<double>(bench_slots));
        if (pool != nullptr) {
            registry.mergeStats("sweep.pool_occupancy",
                                pool->occupancyStats());
        }
    }
    return result;
}

} // namespace confsim
