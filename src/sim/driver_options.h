/**
 * @file
 * The simulation semantics every replay shares.
 *
 * DriverOptions is read by the one replay core (sim/sweep_engine.h)
 * and by everything layered over it: SimulationDriver, SuiteRunner,
 * the sampling engine, and the sweep service. It lives in its own
 * header so the engine's header need not include the driver's.
 */

#ifndef CONFSIM_SIM_DRIVER_OPTIONS_H
#define CONFSIM_SIM_DRIVER_OPTIONS_H

#include <cstdint>
#include <string>

#include "obs/branch_profiler.h"
#include "util/cancellation.h"

namespace confsim {

class SpanTracer;
class Telemetry;

/**
 * Replay knobs. Every branch is recorded from the first one on (the
 * paper runs benchmarks "to their full length" and reports everything,
 * including the initial-state effects Fig. 11 studies); only a
 * recording plan's kWarmOnly and kSkip regions train without
 * recording (SweepRecordingPlan, sim/sweep_engine.h).
 */
struct DriverOptions
{
    unsigned bhrBits = 16;   //!< architectural global BHR width
    unsigned gcirBits = 16;  //!< architectural global CIR width
    bool profileStatic = false; //!< collect per-static-branch profile

    /**
     * Model context switches: every this many branches the predictor
     * and the confidence estimators are flushed back to their
     * power-on state and the architectural BHR/GCIR are cleared, all
     * at once as in Section 5.4. 0 = never switch. A native estimator
     * paired with its predictor (TAGE provider, perceptron margin)
     * has no state but the predictor's, so it restarts with it.
     *
     * The interval counts EVERY simulated conditional branch,
     * including a recording plan's kWarmOnly and kSkip regions (the
     * OS does not pause the scheduler while a sampler warms up). A
     * switch fires AFTER the triggering branch has fully trained the
     * predictor, estimators, BHR, and GCIR, and never clears
     * accumulated statistics — only modeled hardware state. (Pinned
     * by tests/sim/warmup_context_switch_test.cc.)
     */
    std::uint64_t contextSwitchInterval = 0;

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

} // namespace confsim

#endif // CONFSIM_SIM_DRIVER_OPTIONS_H
