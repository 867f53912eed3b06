/**
 * @file
 * The trace-driven simulation driver.
 *
 * Runs a caller-owned predictor plus confidence estimators over one
 * trace. For every conditional branch the predictor is queried, each
 * estimator's bucket is read with the architectural context (PC,
 * global BHR, global CIR) from before the branch, and everything
 * trains in the paper's order: the confidence tables and the
 * per-static-branch profile see the prediction's correctness; the
 * predictor and the history registers see the outcome.
 *
 * SimulationDriver is a thin wrapper over a one-configuration
 * SweepEngine (sim/sweep_engine.h), which owns the one replay loop.
 * The caller's components keep their trained state after run().
 */

#ifndef CONFSIM_SIM_DRIVER_H
#define CONFSIM_SIM_DRIVER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "confidence/static_confidence.h"
#include "metrics/bucket_stats.h"
#include "obs/branch_profiler.h"
#include "predictor/branch_predictor.h"
#include "trace/trace_source.h"
#include "util/cancellation.h"

namespace confsim {

class Checkpoint;
class CheckpointStore;
class SpanTracer;
class SweepEngine;
class Telemetry;

/** Driver knobs. */
struct DriverOptions
{
    unsigned bhrBits = 16;   //!< architectural global BHR width
    unsigned gcirBits = 16;  //!< architectural global CIR width
    bool profileStatic = false; //!< collect per-static-branch profile

    /**
     * Branches simulated before statistics collection begins. The
     * structures still train during warmup; only the counters/curves
     * exclude it. 0 = record from the first branch (the paper runs
     * benchmarks "to their full length" and reports everything,
     * including the initial-state effects Fig. 11 studies).
     *
     * Warmup is purely a statistics exclusion window on the first
     * warmupBranches simulated conditionals: it does not delay,
     * reset, or otherwise interact with the context-switch clock
     * below. (Pinned by tests/sim/warmup_context_switch_test.cc.)
     */
    std::uint64_t warmupBranches = 0;

    /**
     * Model context switches: every this many branches the predictor
     * and/or confidence structures are flushed back to their power-on
     * state (per the flags below) and the architectural BHR/GCIR are
     * cleared. 0 = never switch. Section 5.4 motivates this knob: the
     * choice of CT initialization matters exactly because tables
     * restart after context switches.
     *
     * Composition with warmup, exactly: the interval counts EVERY
     * simulated conditional branch, warmup included (the OS does not
     * pause the scheduler while a predictor warms up), so with
     * warmupBranches > contextSwitchInterval the first flushes land
     * inside the warmup window. A switch fires AFTER the triggering
     * branch has fully trained the predictor, estimators, BHR, and
     * GCIR, and never clears accumulated statistics — only modeled
     * hardware state. (Pinned by warmup_context_switch_test.cc.)
     */
    std::uint64_t contextSwitchInterval = 0;

    /** Flush the branch predictor at a context switch. */
    bool flushPredictorOnSwitch = true;

    /** Flush the confidence estimators at a context switch. */
    bool flushEstimatorsOnSwitch = true;

    /**
     * Wall-clock budget for one run() in milliseconds; 0 = unlimited.
     * Checked cooperatively every few thousand records; on expiry the
     * run throws WatchdogTimeout (run_policy.h) so a hung or runaway
     * benchmark unwinds instead of wedging its worker thread. Never
     * fires on a run that finishes in time, so results are unaffected.
     */
    std::uint64_t wallClockLimitMs = 0;

    /**
     * Optional cooperative cancellation (util/cancellation.h); null =
     * never cancelled. Polled at the same amortized stride as the
     * watchdog; when cancelled the run throws Error{kCancelled} so
     * fail-fast teardown and suite deadlines unwind in-flight work
     * cleanly. The token must outlive the run.
     */
    const CancellationToken *cancel = nullptr;

    /**
     * Observability hook (obs/telemetry.h); null = telemetry off, in
     * which case the only cost the feature adds is a branch on this
     * null pointer per pass. When set, each pass emits the
     * sweep_run_started, sweep_config_finished, and sweep_run_finished
     * events and merges its sweep.* metrics into the registry.
     */
    Telemetry *telemetry = nullptr;

    /** Label for this run's events (benchmark name in suite runs). */
    std::string telemetryLabel;

    /**
     * Execution-span tracer (obs/span.h); null = tracing off, at the
     * cost of one null test per instrumented scope. Spans cover
     * batches, shard replays, decode refills, and checkpoint writes.
     */
    SpanTracer *spans = nullptr;

    /**
     * Collect the per-static-branch attribution profile
     * (obs/branch_profiler.h): per-PC mispredictions, low-confidence
     * volume, and per-estimator calibration. Observation-only — never
     * perturbs simulation state, so results are bit-identical with
     * the flag on or off (pinned by
     * tests/integration/branch_profile_test.cc).
     */
    bool profileBranches = false;

    /** Capacity/bin knobs for the branch profile when enabled. */
    BranchProfileOptions branchProfile;
};

/** Everything one run produces. */
struct DriverResult
{
    std::uint64_t branches = 0;     //!< conditional branches simulated
    std::uint64_t mispredicts = 0;  //!< predictor misses

    /** Per attached estimator: bucket statistics (same order). */
    std::vector<BucketStats> estimatorStats;

    /** Per-static-branch profile (when enabled). */
    StaticBranchProfile staticProfile;

    /** Per-branch attribution (DriverOptions::profileBranches). */
    BranchProfile branchProfile;

    /** Wall time of the run() call in milliseconds. */
    double wallMs = 0.0;

    /** Context switches modelled (DriverOptions switch interval). */
    std::uint64_t contextSwitches = 0;

    /** Mid-run checkpoints written (SimulationDriver::checkpointEvery). */
    std::uint64_t checkpointsWritten = 0;

    /** @return overall misprediction rate. */
    double
    mispredictRate() const
    {
        return branches == 0
                   ? 0.0
                   : static_cast<double>(mispredicts) /
                         static_cast<double>(branches);
    }
};

/** Runs a predictor plus confidence estimators over a trace. */
class SimulationDriver
{
  public:
    /**
     * @param predictor The underlying predictor (not owned).
     * @param estimators Attached confidence estimators (not owned; may
     *        be empty).
     * @param options Driver knobs.
     */
    SimulationDriver(BranchPredictor &predictor,
                     std::vector<ConfidenceEstimator *> estimators,
                     DriverOptions options = {});
    ~SimulationDriver();

    /**
     * Consume @p source from its current position to exhaustion.
     * Non-conditional records train nothing and are skipped (the
     * paper's mechanisms concern conditional branches only).
     */
    DriverResult run(TraceSource &source);

    /**
     * Enable periodic checkpointing: at the first record batch
     * boundary at or after every @p n_branches conditional branches,
     * the full simulation state (predictor, estimators, accumulated
     * statistics, architectural registers, and — when the source
     * supports it — trace position) is written atomically to
     * @p store as the next generation. 0 disables. fatal()
     * immediately if the predictor or any estimator is not
     * checkpointable, so an unauditable configuration fails loudly up
     * front rather than resuming wrong later.
     */
    void checkpointEvery(std::uint64_t n_branches,
                         CheckpointStore *store);

    /**
     * Continue a run from @p from (a checkpoint this configuration
     * wrote). All components are restored bit-exactly; if the source
     * carries no saved position (a non-checkpointable source), the
     * driver replays and discards `from.watermark` records from
     * @p source, which must therefore be a fresh deterministic stream.
     * fatal(kCheckpoint) on any component/version/geometry mismatch,
     * including checkpoints in a retired layout.
     */
    DriverResult resume(TraceSource &source, const Checkpoint &from);

  private:
    std::unique_ptr<SweepEngine> engine_;
};

} // namespace confsim

#endif // CONFSIM_SIM_DRIVER_H
