#include "sim/driver.h"

#include "sim/sweep_engine.h"

namespace confsim {

namespace {

/** A driver run is one configuration replayed inline, in one thread. */
SweepOptions
driverSweepOptions()
{
    SweepOptions sweep;
    sweep.threads = 1;
    sweep.decodeAhead = 1;
    return sweep;
}

DriverResult
toDriverResult(SweepRunResult run)
{
    SweepConfigResult &config = run.perConfig.front();
    DriverResult result;
    result.branches = config.branches;
    result.mispredicts = config.mispredicts;
    result.estimatorStats = std::move(config.estimatorStats);
    result.staticProfile = std::move(config.staticProfile);
    result.branchProfile = std::move(config.branchProfile);
    result.wallMs = run.wallMs;
    result.contextSwitches = config.contextSwitches;
    result.checkpointsWritten = run.checkpointsWritten;
    return result;
}

} // namespace

SimulationDriver::SimulationDriver(
    BranchPredictor &predictor,
    std::vector<ConfidenceEstimator *> estimators, DriverOptions options)
    : engine_(std::make_unique<SweepEngine>(predictor,
                                            std::move(estimators),
                                            options,
                                            driverSweepOptions()))
{}

SimulationDriver::~SimulationDriver() = default;

void
SimulationDriver::checkpointEvery(std::uint64_t n_branches,
                                  CheckpointStore *store)
{
    engine_->checkpointEvery(n_branches, store);
}

DriverResult
SimulationDriver::run(TraceSource &source)
{
    return toDriverResult(engine_->run(source));
}

DriverResult
SimulationDriver::resume(TraceSource &source, const Checkpoint &from)
{
    return toDriverResult(engine_->resume(source, from));
}

} // namespace confsim
