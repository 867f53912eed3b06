#include "apps/smt_fetch.h"

#include <algorithm>

#include "predictor/history_register.h"
#include "util/shift_register.h"
#include "util/status.h"

namespace confsim {

namespace {

/** Per-thread microstate of the fetch model. */
struct ThreadState
{
    HistoryRegister bhr{16};
    ShiftRegister gcir{16, 0};
    std::uint64_t wrongPathUntilSlot = 0; //!< fetching junk before this
    std::uint64_t gateUntilSlot = 0;      //!< deprioritized before this
    unsigned untilNextBranch = 0;         //!< correct-path countdown
};

} // namespace

SmtFetchResult
runSmtFetch(std::vector<SmtThreadSpec> &threads,
            const SmtFetchConfig &config)
{
    if (threads.empty())
        fatal("SMT fetch model needs at least one thread");
    for (const auto &spec : threads) {
        if (!spec.source || !spec.predictor || !spec.estimator)
            fatal("SMT thread spec is missing a component");
        if (spec.lowBuckets.size() != spec.estimator->numBuckets())
            fatal("SMT thread low-bucket mask does not match estimator");
    }

    const std::uint64_t latency_slots = std::max<std::uint64_t>(
        1, config.resolutionLatency / config.fetchBlock);

    SmtFetchResult result;
    std::vector<ThreadState> state(threads.size());
    for (auto &ts : state)
        ts.untilNextBranch = config.instrsPerBranch;

    std::size_t rr = 0; // round-robin pointer
    BranchRecord record;
    BranchContext ctx;

    for (std::uint64_t slot = 0; slot < config.fetchSlots; ++slot) {
        // Pick the next eligible thread round-robin; count every
        // gated thread we skip over.
        std::size_t chosen = threads.size();
        for (std::size_t k = 0; k < threads.size(); ++k) {
            const std::size_t t = (rr + k) % threads.size();
            if (config.gateOnLowConfidence &&
                slot < state[t].gateUntilSlot) {
                ++result.gatedSlots;
                continue;
            }
            chosen = t;
            break;
        }
        if (chosen == threads.size()) {
            continue; // every thread gated: fetch idles this slot
        }
        rr = (chosen + 1) % threads.size();

        ThreadState &ts = state[chosen];
        SmtThreadSpec &spec = threads[chosen];

        if (slot < ts.wrongPathUntilSlot) {
            // The whole block is wrong-path junk.
            result.fetchedInstructions += config.fetchBlock;
            result.wastedInstructions += config.fetchBlock;
            continue;
        }

        for (unsigned i = 0; i < config.fetchBlock; ++i) {
            ++result.fetchedInstructions;
            if (ts.untilNextBranch > 0) {
                --ts.untilNextBranch;
                continue;
            }

            // Fetch reached the next conditional branch.
            if (!spec.source->next(record)) {
                spec.source->reset(); // loop the trace
                if (!spec.source->next(record))
                    fatal("SMT thread trace is empty");
            }
            ctx.pc = record.pc;
            ctx.bhr = ts.bhr.value();
            ctx.gcir = ts.gcir.value();

            const bool predicted = spec.predictor->predict(record.pc);
            const bool correct = (predicted == record.taken);
            const std::uint64_t bucket =
                spec.estimator->observe(ctx, correct, record.taken);
            const bool low = spec.lowBuckets[bucket];

            ++result.branches;
            spec.predictor->update(record.pc, record.taken);
            ts.bhr.recordOutcome(record.taken);
            ts.gcir.shiftIn(!correct);
            ts.untilNextBranch = config.instrsPerBranch;

            if (low)
                ts.gateUntilSlot = slot + 1 + latency_slots;

            if (!correct) {
                ++result.mispredicts;
                ts.wrongPathUntilSlot = slot + 1 + latency_slots;
                // The rest of this block is already wrong-path.
                const unsigned remaining = config.fetchBlock - 1 - i;
                result.fetchedInstructions += remaining;
                result.wastedInstructions += remaining;
                break;
            }
        }
    }
    return result;
}

} // namespace confsim
