#include "support/reference_replay.h"

namespace confsim {

namespace {

/** Low @p bits bits set (all 64 when bits >= 64). */
std::uint64_t
lowBits(unsigned bits)
{
    return bits >= 64 ? ~std::uint64_t{0}
                      : (std::uint64_t{1} << bits) - 1;
}

} // namespace

ReferenceResult
referenceReplay(TraceSource &source, BranchPredictor &predictor,
                const std::vector<ConfidenceEstimator *> &estimators,
                const DriverOptions &options)
{
    ReferenceResult result;
    for (ConfidenceEstimator *estimator : estimators)
        result.estimatorStats.emplace_back(estimator->numBuckets());

    const std::uint64_t bhr_mask = lowBits(options.bhrBits);
    const std::uint64_t gcir_mask = lowBits(options.gcirBits);
    std::uint64_t bhr = 0;  // newest outcome in bit 0
    std::uint64_t gcir = 0; // newest "was incorrect" in bit 0

    BranchRecord record;
    while (source.next(record)) {
        if (!record.isConditional())
            continue;

        // Every estimator reads the context from before this branch.
        BranchContext context;
        context.pc = record.pc;
        context.bhr = bhr;
        context.bhrBits = options.bhrBits;
        context.gcir = gcir;
        context.gcirBits = options.gcirBits;

        const bool correct = predictor.predict(record.pc) == record.taken;
        result.branches += 1;
        if (!correct)
            result.mispredicts += 1;
        if (options.profileStatic)
            result.staticProfile.record(record.pc, !correct, record.taken);

        // Confidence tables learn whether the prediction was right.
        // The split bucketOf()/update() pair, not the engine's fused
        // observe(), so the buckets the engine records are checked
        // against each estimator's read-only bucketOf().
        for (std::size_t i = 0; i < estimators.size(); ++i) {
            const std::uint64_t bucket = estimators[i]->bucketOf(context);
            result.estimatorStats[i].record(bucket, !correct);
            estimators[i]->update(context, correct, record.taken);
        }

        // The predictor and the global registers learn the outcome.
        predictor.update(record.pc, record.taken);
        bhr = ((bhr << 1) | (record.taken ? 1 : 0)) & bhr_mask;
        gcir = ((gcir << 1) | (correct ? 0 : 1)) & gcir_mask;

        // Section 5.4: every interval branches the process is switched
        // out, and every structure restarts from power-on.
        const std::uint64_t interval = options.contextSwitchInterval;
        if (interval != 0 && result.branches % interval == 0) {
            predictor.reset();
            for (ConfidenceEstimator *estimator : estimators)
                estimator->reset();
            bhr = 0;
            gcir = 0;
            result.contextSwitches += 1;
        }
    }
    return result;
}

} // namespace confsim
