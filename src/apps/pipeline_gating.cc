#include "apps/pipeline_gating.h"

#include <deque>

#include "predictor/history_register.h"
#include "util/shift_register.h"
#include "util/status.h"

namespace confsim {

namespace {

/** One unresolved conditional branch in flight. */
struct InFlightBranch
{
    std::uint64_t resolveCycle = 0;
    bool mispredicted = false;
    bool lowConfidence = false;
};

} // namespace

GatingResult
runPipelineGating(TraceSource &source, BranchPredictor &predictor,
                  ConfidenceEstimator &estimator,
                  const std::vector<bool> &low_buckets,
                  const GatingConfig &config)
{
    if (low_buckets.size() != estimator.numBuckets())
        fatal("pipeline-gating low-bucket mask does not match "
              "estimator");
    if (config.fetchWidth == 0)
        fatal("fetch width must be >= 1");

    GatingResult result;
    HistoryRegister bhr(16);
    ShiftRegister gcir(16, 0);
    std::deque<InFlightBranch> inflight;
    unsigned low_outstanding = 0;
    bool wrong_path = false;
    bool trace_done = false;
    unsigned until_branch = config.instrsPerBranch;

    BranchRecord record;
    BranchContext ctx;

    for (std::uint64_t cycle = 0;; ++cycle) {
        // 1. Resolve branches whose latency elapsed (FIFO order).
        while (!inflight.empty() &&
               inflight.front().resolveCycle <= cycle) {
            const InFlightBranch branch = inflight.front();
            inflight.pop_front();
            if (branch.lowConfidence)
                --low_outstanding;
            if (branch.mispredicted) {
                // Redirect: everything fetched behind it was junk and
                // has already been counted as wrong-path at fetch
                // time; correct-path fetch resumes this cycle.
                wrong_path = false;
            }
        }

        // Termination: trace consumed and the pipeline drained.
        if ((trace_done || result.branches >= config.branches) &&
            inflight.empty()) {
            result.cycles = cycle;
            break;
        }

        // 2. Gating decision for this cycle's fetch.
        const bool fetch_ended =
            trace_done || result.branches >= config.branches;
        if (fetch_ended)
            continue; // draining: no more fetch, just resolutions
        if (config.enableGating &&
            low_outstanding > config.gateThreshold) {
            ++result.gatedCycles;
            continue;
        }

        // 3. Fetch up to fetchWidth instructions.
        for (unsigned slot = 0; slot < config.fetchWidth; ++slot) {
            ++result.fetchedInstructions;
            if (wrong_path) {
                ++result.wrongPathInstructions;
                continue;
            }
            ++result.committedInstructions;
            if (until_branch > 0) {
                --until_branch;
                continue;
            }

            // This instruction is the next conditional branch.
            if (!source.next(record)) {
                trace_done = true;
                until_branch = config.instrsPerBranch;
                break;
            }
            ctx.pc = record.pc;
            ctx.bhr = bhr.value();
            ctx.gcir = gcir.value();

            const bool predicted = predictor.predict(record.pc);
            const bool correct = (predicted == record.taken);
            const std::uint64_t bucket =
                estimator.observe(ctx, correct, record.taken);
            const bool low = low_buckets[bucket];

            ++result.branches;
            if (!correct)
                ++result.mispredicts;
            predictor.update(record.pc, record.taken);
            bhr.recordOutcome(record.taken);
            gcir.shiftIn(!correct);

            inflight.push_back(
                {cycle + config.resolveLatency, !correct, low});
            if (low)
                ++low_outstanding;
            if (!correct)
                wrong_path = true; // the rest of fetch is junk
            until_branch = config.instrsPerBranch;

            if (result.branches >= config.branches)
                break;
        }
    }
    return result;
}

} // namespace confsim
