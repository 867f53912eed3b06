/**
 * @file
 * Single-pass multi-configuration sweep engine.
 *
 * The paper's figures are design-space sweeps: many (predictor x
 * estimator x geometry) configurations evaluated over the same
 * benchmark traces. Replaying the trace once per configuration makes
 * sweep cost grow linearly with configuration count even though the
 * expensive part — decoding or generating the trace — is identical
 * every time. The SweepEngine decodes each trace exactly once, buffers
 * records into cache-friendly fixed-size batches (trace/record_batch.h)
 * and broadcasts every batch to N attached configurations.
 *
 * This is the simulator's only replay path. SimulationDriver is a
 * one-configuration engine over caller-owned components, and
 * SuiteRunner::run() is a one-configuration SuiteRunner::runSweep().
 *
 * Configurations whose predictors are the same design in the same
 * state (BranchPredictor::sameDesignAs plus equal saveState bytes)
 * ride one *trunk*: one predictor with private replicas of the
 * architectural context registers (BHR and global CIR), the
 * context-switch clock, the recording-plan cursor, the branch counts
 * and the static profile, stepped once per branch for all of them.
 * The trunk owns that one predictor: while the engine is built, each
 * configuration's fresh predictor is compared with the trunks' and,
 * when it fuses, dropped at once, so a pass holds one predictor per
 * trunk. Each configuration keeps its own estimator bank, paired with
 * its trunk's predictor, and its own bucket statistics, and observes
 * every conditional branch between the trunk's predict and update,
 * exactly as the paper's loop does —
 * results are bit-exact with an independent reference replay of each
 * configuration alone (the contract
 * tests/integration/sweep_differential_test.cc enforces for every
 * estimator family). Trunks are sharded across a pool of persistent
 * worker threads, at most one shard per trunk; a same-design class
 * stays one trunk even when workers outnumber trunks. Thread count
 * and batch size only change wall time, never results.
 *
 * Two pipelining layers overlap the remaining serial phases, both
 * pure performance knobs that never change results:
 *  - **Decode-ahead**: a small ring of batches is refilled by a
 *    dedicated producer thread while worker shards replay the
 *    previous batch, so workers never wait on TraceSource::next.
 *    Checkpoints act as pipeline barriers — the producer pauses with
 *    the source quiescent exactly at the checkpointed record, so
 *    serialized cursors (and watermark replay) are identical to the
 *    synchronous engine's.
 *  - **Shared worker pool**: engines can share one globally sized
 *    SweepWorkerPool, letting SuiteRunner::runSweep() pipeline
 *    multiple benchmarks' sweep passes concurrently instead of
 *    leaving cores idle whenever configs < hardware threads.
 *
 * Checkpoints snapshot the whole pass — shared trace cursor plus every
 * configuration's state — at the first batch boundary at or after
 * each checkpointEvery() multiple. Resume is bit-exact.
 */

#ifndef CONFSIM_SIM_SWEEP_ENGINE_H
#define CONFSIM_SIM_SWEEP_ENGINE_H

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "confidence/static_confidence.h"
#include "metrics/bucket_stats.h"
#include "sim/driver_options.h"
#include "sim/suite_runner.h"
#include "sim/sweep_options.h"
#include "trace/record_batch.h"
#include "util/running_stats.h"

namespace confsim {

class Checkpoint;
class CheckpointStore;

/**
 * A generic shared pool of persistent worker threads. Callers submit
 * a group of closures with runAll(), which blocks until every closure
 * has run and rethrows the first captured exception. Multiple callers
 * (e.g. several SweepEngines pipelining different benchmarks) may
 * submit concurrently; tasks interleave on the same workers, and each
 * caller waits only for its own group.
 *
 * Occupancy is sampled at every task start (busy workers including
 * the starting one) into a RunningStats, so telemetry can report how
 * well a globally sized pool was utilised.
 */
class SweepWorkerPool
{
  public:
    /** Spawn @p workers persistent threads (0 runs tasks inline). */
    explicit SweepWorkerPool(unsigned workers);
    ~SweepWorkerPool();

    SweepWorkerPool(const SweepWorkerPool &) = delete;
    SweepWorkerPool &operator=(const SweepWorkerPool &) = delete;

    /** @return the number of worker threads. */
    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Run every task on the pool; blocks until all complete. The
     * first exception any task raises is rethrown here (after every
     * task in the group has finished). When @p cancel is set and
     * becomes cancelled, tasks not yet started are skipped (recorded
     * as one Error{kCancelled}) so a fail-fast teardown never waits
     * on a deep queue; tasks already running unwind via their own
     * cooperative checks.
     */
    void runAll(std::vector<std::function<void()>> tasks,
                const CancellationToken *cancel = nullptr);

    /** @return busy-worker samples taken at each task start. */
    RunningStats occupancyStats() const;

    /** @return workers currently running a task (point-in-time). */
    unsigned busyNow() const;

  private:
    /** Completion latch for one runAll() group. */
    struct WaitGroup
    {
        std::mutex mu;
        std::condition_variable cv;
        std::size_t remaining = 0;
        std::exception_ptr error;
        const CancellationToken *cancel = nullptr;
    };
    struct Task
    {
        std::function<void()> fn;
        WaitGroup *group;
    };

    void workerMain();

    mutable std::mutex mu_;
    std::condition_variable cvWork_;
    std::deque<Task> queue_;
    bool stop_ = false;
    unsigned busy_ = 0;
    RunningStats occupancy_;
    std::vector<std::thread> threads_;
};

/** One attached (predictor, estimator set) configuration. */
struct SweepConfiguration
{
    /** Label used in results, telemetry, and checkpoint components. */
    std::string label;

    /**
     * Fresh-predictor factory (invoked once per run()). A predictor
     * that fuses with an earlier configuration's (see SweepEngine) is
     * dropped as soon as it is compared: that trunk's one predictor is
     * stepped for both, and this configuration's estimators read it.
     */
    PredictorFactory makePredictor;

    /** Fresh-estimator-set factory (invoked once per run()). */
    EstimatorSetFactory makeEstimators;
};

/**
 * A region-granular recording plan for statistical sampling
 * (sim/sampling_engine.h). The trace is viewed as consecutive regions
 * of regionBranches conditional branches; each region is replayed in
 * one of three modes chosen by regionSlots:
 *
 *  - a slot id < numSlots: **detailed** — predictor and estimators
 *    update AND statistics are recorded, both into the aggregate
 *    result fields and into that slot's SweepSlotStats bank (slots
 *    separate sampled regions into repeated-subsampling groups);
 *  - kWarmOnly: **functional warming** — predictor/estimator state
 *    updates normally but nothing is recorded, keeping the state a
 *    sampled region sees identical to a full replay's;
 *  - kSkip: **fast-forward** — no predictor or estimator work at all;
 *    only the branch cursor and context-switch phase advance. This is
 *    the wall-clock lever: state diverges, so plans place a kWarmOnly
 *    window before each detailed region to re-converge it.
 *
 * The plan is indexed purely by each trunk's private count of
 * simulated conditional branches, so results are bit-exact at any
 * thread count, batch size, or decode-ahead depth — the same contract
 * as every other sweep knob. Plans compose with neither checkpointing
 * nor resume (fatal at run time): a partially recorded plan cannot be
 * audited for bit-exact restoration.
 */
struct SweepRecordingPlan
{
    /** Region mode: functionally warm, record nothing. */
    static constexpr std::uint32_t kWarmOnly = 0xFFFFFFFFu;

    /** Region mode: skip all predictor/estimator work. */
    static constexpr std::uint32_t kSkip = 0xFFFFFFFEu;

    /** Conditional branches per region (> 0). */
    std::uint64_t regionBranches = 0;

    /** Per-region mode: a slot id, kWarmOnly, or kSkip. */
    std::vector<std::uint32_t> regionSlots;

    /** Number of detailed slots (slot ids are < numSlots). */
    std::uint32_t numSlots = 0;

    /** @return the mode for @p region (past-the-end warms only). */
    std::uint32_t
    slotForRegion(std::uint64_t region) const
    {
        return region < regionSlots.size() ? regionSlots[region]
                                           : kWarmOnly;
    }
};

/**
 * Statistics one detailed recording-plan slot accumulated (see
 * SweepRecordingPlan): the per-subsample banks the sampling layer
 * turns into between-subsample variance.
 */
struct SweepSlotStats
{
    std::uint64_t branches = 0;    //!< recorded conditional branches
    std::uint64_t mispredicts = 0; //!< predictor misses (recorded)
    std::vector<BucketStats> estimatorStats; //!< per estimator
};

/**
 * Everything one configuration of a replay produced. A
 * SimulationDriver run returns its one configuration's result
 * (DriverResult, sim/driver.h).
 */
struct SweepConfigResult
{
    std::string label;
    std::uint64_t branches = 0;    //!< recorded conditional branches
    std::uint64_t mispredicts = 0; //!< predictor misses (recorded)
    std::uint64_t contextSwitches = 0;
    std::vector<BucketStats> estimatorStats;
    std::vector<std::string> estimatorNames;
    StaticBranchProfile staticProfile;

    /**
     * Per-branch attribution profile
     * (DriverOptions::profileBranches). Collected by the replica's
     * own replay loop, so it matches a sequential driver run of the
     * same configuration entry for entry.
     */
    BranchProfile branchProfile;

    /**
     * Per-slot statistic banks, one per SweepRecordingPlan slot;
     * empty when the sweep ran without a recording plan. Detailed
     * records land both here and in the aggregate fields above, so a
     * full-coverage single-slot plan reproduces a plain sweep's
     * aggregates exactly with slotStats[0] equal to them.
     */
    std::vector<SweepSlotStats> slotStats;

    /**
     * Empty on success. With SweepOptions::isolateConfigFailures set,
     * a failed configuration carries its error here (counts frozen
     * where it failed) while the other configurations' results remain
     * bit-exact and trustworthy.
     */
    std::string error;

    /** @return true when this configuration failed mid-sweep. */
    bool failed() const { return !error.empty(); }

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

/** Results of one sweep pass over one trace. */
struct SweepRunResult
{
    /** Per-configuration results (configuration order preserved). */
    std::vector<SweepConfigResult> perConfig;

    std::uint64_t records = 0;  //!< records consumed from the source
    std::uint64_t branches = 0; //!< conditional branches simulated
    std::uint64_t batches = 0;  //!< broadcast batches processed

    /**
     * Distinct predictors stepped per branch: one per trunk, so fewer
     * than the configurations when several share one predictor design
     * (see SweepEngine).
     */
    std::uint64_t predictorRuns = 0;

    double wallMs = 0.0;        //!< wall time of the run() call
    /** Total time the replay side waited on trace decode. With
     *  decode-ahead this is genuine pipeline stall; at depth 1 it is
     *  the full (serial) refill time. */
    double decodeStallMs = 0.0;
    std::uint64_t checkpointsWritten = 0;

    /**
     * Fraction of (wall time x shards) the worker shards spent
     * replaying batches — the pipeline-occupancy headline. 1.0 means
     * every shard was busy for the whole pass; the gap is barrier
     * wait, decode stall, and checkpoint serialization.
     */
    double shardBusyFrac = 0.0;

    /** Total time the decode producer spent parked at checkpoint
     *  barriers (0 without decode-ahead or checkpointing). */
    double barrierWaitMs = 0.0;
};

/**
 * @return true when the CONFSIM_SEQUENTIAL environment variable is set,
 * which forces every replay onto one thread: one worker, synchronous
 * decode, one benchmark at a time. Results are identical either way;
 * it aids debugging under a debugger or sanitizer.
 */
bool sequentialForced();

/**
 * @return how many predictors a pass over @p configs steps per branch
 * (SweepRunResult::predictorRuns): one per group of configurations
 * whose fresh predictors fuse. Calls every predictor factory once.
 */
std::size_t predictorRunsOf(const std::vector<SweepConfiguration> &configs);

/**
 * @return worker threads for a SweepOptions::threads request: 0 = one
 * per hardware thread; sequentialForced() forces 1.
 */
unsigned resolveSweepWorkers(unsigned requested);

/** Runs N configurations over a trace decoded exactly once. */
class SweepEngine
{
  public:
    /** One configuration's estimators and results (opaque). */
    struct ConfigState;

    /** One predictor stepped for its fused configurations (opaque). */
    struct TrunkState;

    /**
     * @param configs Attached configurations (>= 1).
     * @param driver Simulation knobs shared by every configuration
     *        (BHR/GCIR widths, context-switch modelling, static
     *        profiling, telemetry).
     * @param sweep Thread/batch tuning knobs.
     */
    SweepEngine(std::vector<SweepConfiguration> configs,
                DriverOptions driver = {}, SweepOptions sweep = {});

    /**
     * Attach one configuration made of caller-owned components (not
     * owned; they must outlive the engine). Every run() continues from
     * the components' current state and leaves them trained, so the
     * caller can inspect or serialize them afterwards.
     */
    SweepEngine(BranchPredictor &predictor,
                std::vector<ConfidenceEstimator *> estimators,
                DriverOptions driver = {}, SweepOptions sweep = {});

    ~SweepEngine();

    SweepEngine(const SweepEngine &) = delete;
    SweepEngine &operator=(const SweepEngine &) = delete;

    /** Consume @p source to exhaustion, feeding every configuration. */
    SweepRunResult run(TraceSource &source);

    /**
     * Continue a sweep from @p from (a checkpoint this engine's
     * configuration list wrote). The shared cursor is restored into
     * @p source when the checkpoint carries one; otherwise @p source
     * must be a fresh deterministic stream and the engine replays and
     * discards `from.watermark` records. fatal() on any configuration
     * mismatch.
     */
    SweepRunResult resume(TraceSource &source, const Checkpoint &from);

    /**
     * Enable sweep checkpointing: at the first batch boundary at or
     * after every @p n_branches simulated conditional branches, the
     * shared trace cursor plus every configuration's full state is
     * written atomically to @p store as the next generation. 0
     * disables. fatal() if any configuration is not checkpointable:
     * at once for caller-owned components, else at run() time.
     */
    void checkpointEvery(std::uint64_t n_branches,
                         CheckpointStore *store);

    /** @return the number of attached configurations. */
    std::size_t numConfigs() const { return configs_.size(); }

  private:
    SweepRunResult runImpl(TraceSource &source,
                           const Checkpoint *resume_from);
    void writeCheckpoint(TraceSource &source, SweepRunResult &result,
                         std::uint64_t consumed,
                         std::uint64_t simulated);

    std::vector<SweepConfiguration> configs_;
    DriverOptions driver_;
    SweepOptions sweep_;
    BranchPredictor *borrowedPredictor_ = nullptr;
    std::vector<ConfidenceEstimator *> borrowedEstimators_;
    std::uint64_t ckptEvery_ = 0;
    CheckpointStore *ckptStore_ = nullptr;
    // Trunks (and the predictors they own) outlive the members whose
    // estimators are paired with them.
    std::vector<std::unique_ptr<TrunkState>> trunks_;
    std::vector<std::unique_ptr<ConfigState>> states_;
};

} // namespace confsim

#endif // CONFSIM_SIM_SWEEP_ENGINE_H
