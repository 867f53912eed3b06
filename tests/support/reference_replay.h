/**
 * @file
 * Independent reference replay: the paper's trace-driven loop written
 * out once, as plainly as possible, for differential tests to compare
 * the simulator against.
 *
 * It is deliberately naive. It pulls one record at a time with
 * TraceSource::next() and keeps the architectural BHR and global CIR
 * in plain integers. It has no batches, recording plan, threads,
 * checkpoints, telemetry, or watchdog, and shares no code with the
 * engine's record loop, so a defect there cannot hide by being
 * copied here.
 *
 * The predictor and estimators are caller-owned and keep their final
 * trained state, so tests can compare serialized component bytes too.
 */

#ifndef CONFSIM_TESTS_SUPPORT_REFERENCE_REPLAY_H
#define CONFSIM_TESTS_SUPPORT_REFERENCE_REPLAY_H

#include <cstdint>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "confidence/static_confidence.h"
#include "metrics/bucket_stats.h"
#include "predictor/branch_predictor.h"
#include "sim/driver_options.h"
#include "trace/trace_source.h"

namespace confsim {

/** Everything one reference replay counted. */
struct ReferenceResult
{
    std::uint64_t branches = 0;        //!< conditionals replayed
    std::uint64_t mispredicts = 0;     //!< predictor misses
    std::uint64_t contextSwitches = 0; //!< modelled flushes
    std::vector<BucketStats> estimatorStats; //!< per estimator
    StaticBranchProfile staticProfile; //!< when profileStatic is set
};

/**
 * Replay @p source to exhaustion through @p predictor and
 * @p estimators. Honours the simulation-semantics fields of
 * @p options: BHR/GCIR widths, context-switch interval, and static
 * profiling. Every other field is ignored.
 */
ReferenceResult
referenceReplay(TraceSource &source, BranchPredictor &predictor,
                const std::vector<ConfidenceEstimator *> &estimators,
                const DriverOptions &options);

} // namespace confsim

#endif // CONFSIM_TESTS_SUPPORT_REFERENCE_REPLAY_H
