/**
 * @file
 * SweepOptions: the sweep engine's scheduling knobs, in a header of
 * their own so SuiteRunner (sim/suite_runner.h) can take them by value
 * without the whole engine (sim/sweep_engine.h).
 */

#ifndef CONFSIM_SIM_SWEEP_OPTIONS_H
#define CONFSIM_SIM_SWEEP_OPTIONS_H

#include <cstddef>

#include "trace/record_batch.h"

namespace confsim {

class SweepWorkerPool;
struct SweepRecordingPlan;

/** Sweep-engine knobs (simulation semantics come from DriverOptions). */
struct SweepOptions
{
    /**
     * Worker threads to shard trunks across (configurations whose
     * predictors fuse share one trunk); 0 = one per hardware thread,
     * capped at the trunk count. 1 runs inline on the calling thread.
     * Thread count never changes results. Ignored when @ref pool is
     * set (the shared pool's size governs; shards are still capped at
     * the trunk count).
     */
    unsigned threads = 0;

    /** Records per broadcast batch (see RecordBatch). */
    std::size_t batchSize = RecordBatch::kDefaultCapacity;

    /**
     * Decode-ahead ring depth: how many batches may be decoded ahead
     * of the one being replayed. >= 2 runs a producer thread that
     * refills batches while workers replay (the default); 1 refills
     * synchronously between broadcasts (the pre-pipelining engine);
     * 0 = default depth. Pure performance knob — results, checkpoint
     * cadence, and resume behaviour are bit-identical at any depth.
     * CONFSIM_SEQUENTIAL forces 1.
     */
    std::size_t decodeAhead = kDefaultDecodeAhead;

    /**
     * SuiteRunner::runSweep() only: how many benchmarks' sweep passes
     * may run concurrently on the shared pool. 0 sizes automatically
     * (pool workers / shards per benchmark). 1 runs benchmarks
     * sequentially. Never changes results; per-benchmark error
     * isolation and suite-order merging are preserved.
     * CONFSIM_SEQUENTIAL forces 1.
     */
    unsigned benchParallel = 0;

    /**
     * Optional shared worker pool (non-owning). When set, the engine
     * broadcasts batches through it instead of creating a private
     * pool, so several engines can share globally sized parallelism.
     * The pool must outlive every run()/resume() call.
     */
    SweepWorkerPool *pool = nullptr;

    /**
     * Per-configuration failure isolation. When set, a configuration
     * whose replay throws a retryable/internal error is marked failed
     * (SweepConfigResult::error) and dropped from its trunk at once
     * while the surviving configurations continue bit-exactly; the
     * engine also stops writing further sweep checkpoints (previously
     * written generations stay valid and resumable). Watchdog
     * timeouts and cancellation always fail the whole pass.
     * SuiteRunner::runSweep() sets this for kContinueOnError
     * policies, mirroring benchmark-level isolation.
     */
    bool isolateConfigFailures = false;

    /**
     * Optional region-granular recording plan (non-owning; must
     * outlive the run). Null replays and records everything — the
     * exact-simulation default. See SweepRecordingPlan.
     */
    const SweepRecordingPlan *recordingPlan = nullptr;

    static constexpr std::size_t kDefaultDecodeAhead = 3;
};

} // namespace confsim

#endif // CONFSIM_SIM_SWEEP_OPTIONS_H
