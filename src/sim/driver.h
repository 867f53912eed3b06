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
 * SweepEngine (sim/sweep_engine.h), which owns the one replay loop,
 * and returns that configuration's result. The caller's components
 * keep their trained state after run().
 */

#ifndef CONFSIM_SIM_DRIVER_H
#define CONFSIM_SIM_DRIVER_H

#include <memory>
#include <vector>

#include "confidence/confidence_estimator.h"
#include "predictor/branch_predictor.h"
#include "sim/driver_options.h"
#include "sim/sweep_engine.h"
#include "trace/trace_source.h"

namespace confsim {

class Checkpoint;
class CheckpointStore;

/**
 * Everything one driver run produces: its configuration's result
 * (sim/sweep_engine.h), labelled with the predictor's name.
 */
using DriverResult = SweepConfigResult;

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
