#include "apps/dual_path.h"

#include <vector>

#include "predictor/history_register.h"
#include "util/shift_register.h"
#include "util/status.h"

namespace confsim {

DualPathResult
runDualPath(TraceSource &source, BranchPredictor &predictor,
            ConfidenceEstimator &estimator,
            const std::vector<bool> &low_buckets,
            const DualPathConfig &config)
{
    if (low_buckets.size() != estimator.numBuckets())
        fatal("dual-path low-bucket mask does not match estimator");

    if (config.maxForks == 0)
        fatal("dual-path model requires at least one fork slot");

    DualPathResult result;
    HistoryRegister bhr(16);
    ShiftRegister gcir(16, 0);

    // Fork-slot occupancy: each active slot holds the number of
    // further branches until its forked branch resolves.
    std::vector<unsigned> fork_slots(config.maxForks, 0);
    bool fork_armed = false; // a fork belongs to the current branch

    BranchRecord record;
    BranchContext ctx;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;

        ctx.pc = record.pc;
        ctx.bhr = bhr.value();
        ctx.gcir = gcir.value();

        const bool predicted = predictor.predict(record.pc);
        const bool correct = (predicted == record.taken);
        const std::uint64_t bucket =
            estimator.observe(ctx, correct, record.taken);
        const bool low_confidence =
            bucket < low_buckets.size() && low_buckets[bucket];

        ++result.branches;
        result.baselineCycles += config.baseCyclesPerBranch;
        result.dualPathCycles += config.baseCyclesPerBranch;

        fork_armed = false;
        if (low_confidence) {
            ++result.forkRequests;
            for (auto &slot : fork_slots) {
                if (slot == 0) {
                    ++result.forks;
                    slot = config.resolutionWindow;
                    fork_armed = true;
                    result.dualPathCycles += config.forkCost;
                    break;
                }
            }
        }

        if (!correct) {
            ++result.mispredicts;
            result.baselineCycles += config.mispredictPenalty;
            if (fork_armed) {
                ++result.coveredMispredicts;
                result.dualPathCycles += config.forkedMispredictPenalty;
            } else {
                result.dualPathCycles += config.mispredictPenalty;
            }
            // A misprediction squashes wrong-path work; outstanding
            // forks from older branches are squashed with it.
            for (auto &slot : fork_slots)
                slot = 0;
        } else {
            for (auto &slot : fork_slots) {
                if (slot > 0)
                    --slot;
            }
        }

        predictor.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!correct);
    }
    return result;
}

} // namespace confsim
