#include "sim/driver.h"

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
    return std::move(engine_->run(source).perConfig.front());
}

DriverResult
SimulationDriver::resume(TraceSource &source, const Checkpoint &from)
{
    return std::move(engine_->resume(source, from).perConfig.front());
}

} // namespace confsim
