/**
 * @file
 * The unit of work the sweep service schedules: one tenant's sweep job
 * — a benchmark selection, a configuration grid, driver knobs, and a
 * fault-tolerance policy — plus the status record the service exposes
 * for it.
 *
 * Isolation contract: everything mutable a job touches is private to
 * it. The service derives a per-job directory (checkpoints + telemetry
 * JSONL), a per-job CancellationToken chained under the service token,
 * and a per-job Telemetry context, so one tenant's fault — corrupt
 * trace, watchdog expiry, ENOSPC in its checkpoint dir — can never
 * contaminate another tenant's results or the service's own stream.
 */

#ifndef CONFSIM_SERVE_JOB_H
#define CONFSIM_SERVE_JOB_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/driver.h"
#include "sim/run_policy.h"
#include "sim/suite_runner.h"
#include "sim/sweep_engine.h"
#include "util/error.h"

namespace confsim {

/** Lifecycle of one submitted job. */
enum class JobState : std::uint8_t
{
    kQueued = 0, //!< admitted, waiting for a slot
    kRunning,    //!< executing on a job slot
    kFinished,   //!< completed; result available
    kFailed,     //!< terminal error (JobStatus::error says why)
    kCancelled,  //!< cancelled (explicit cancel or cancel-drain)
    kDrained,    //!< cancelled by a checkpoint-drain with resumable
                 //!< checkpoint generations left on disk
};

/** Stable lowercase name for telemetry fields and protocol replies. */
inline const char *
toString(JobState state)
{
    switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kFinished: return "finished";
    case JobState::kFailed: return "failed";
    case JobState::kCancelled: return "cancelled";
    case JobState::kDrained: return "drained";
    }
    return "failed";
}

/** @return true when @p state is a terminal state. */
inline bool
isTerminal(JobState state)
{
    return state != JobState::kQueued && state != JobState::kRunning;
}

/**
 * Everything a client submits for one sweep job. The service fills in
 * the pieces that enforce isolation (checkpoint directory, telemetry
 * sink, cancellation token, shared worker pool); the corresponding
 * fields here are requests, not wiring.
 */
struct JobSpec
{
    /** Tenant this job bills to (fairness + in-flight caps). */
    std::string tenant = "default";

    /**
     * Job label: names the per-job directory, so it must be stable
     * across submissions for checkpoint resume to find prior
     * generations. "" = "job-<id>".
     */
    std::string label;

    /** IBS benchmark names (BenchmarkSuite::ibsSubset); empty = the
     *  reduced ibsSmall suite. */
    std::vector<std::string> benchmarks;

    /** Trace length per benchmark. */
    std::uint64_t branches = 200'000;

    /** The configuration grid to sweep (>= 1 entries). */
    std::vector<SweepConfiguration> configs;

    /** Simulation knobs. `telemetry` and `cancel` are overwritten by
     *  the service (per-job sink, per-job token). */
    DriverOptions driver;

    /** Sweep tuning knobs. `pool` is overwritten with the service's
     *  shared worker pool; `threads` is therefore ignored. */
    SweepOptions sweep;

    /**
     * Fault-tolerance policy. `cancel` is overwritten with the per-job
     * token and `checkpoint` with the per-job checkpoint policy built
     * from the three fields below — per-job fault domains require the
     * service to own the directory layout.
     */
    RunPolicy policy;

    /** Write sweep checkpoints (requires the service's jobDir). */
    bool checkpoint = false;

    /** Branches between mid-run checkpoints (when `checkpoint`). */
    std::uint64_t checkpointEvery = 250'000;

    /** Resume from this job's prior checkpoint generations. */
    bool resume = false;

    /**
     * Optional per-benchmark trace-source decorator
     * (SuiteRunner::setSourceWrapper). This is the deterministic
     * per-job fault-injection hook: unlike the process-wide
     * FaultInjector, a wrapper scoped to one job's sources cannot leak
     * faults into a concurrent tenant's streams.
     */
    SourceWrapper wrapSource;
};

/** Point-in-time snapshot of one job, as the service reports it. */
struct JobStatus
{
    std::uint64_t id = 0;
    std::string tenant;
    std::string label;
    JobState state = JobState::kQueued;

    /** Failure message (kFailed/kCancelled/kDrained); "" otherwise. */
    std::string error;

    /** Taxonomy category of `error` (meaningful when error != ""). */
    ErrorCategory errorCategory = ErrorCategory::kInternal;

    /**
     * True when resumable mid-run checkpoint generations exist on disk;
     * the done-markers of finished benchmarks do not count.
     */
    bool checkpointed = false;

    double queueMs = 0.0; //!< admission -> start (or terminal) wait
    double runMs = 0.0;   //!< start -> terminal wall time

    /** This job's private directory ("" when the service has none). */
    std::string jobDir;

    /** This job's telemetry JSONL path ("" when none). */
    std::string telemetryPath;

    /** Full sweep result (null unless kFinished). Shared so status
     *  snapshots stay cheap; the result object is immutable. */
    std::shared_ptr<const SweepSuiteResult> result;
};

} // namespace confsim

#endif // CONFSIM_SERVE_JOB_H
