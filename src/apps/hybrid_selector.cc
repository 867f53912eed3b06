#include "apps/hybrid_selector.h"

#include "predictor/history_register.h"
#include "util/shift_register.h"
#include "util/status.h"

namespace confsim {

HybridSelectorResult
runHybridSelector(TraceSource &source, BranchPredictor &first,
                  ConfidenceEstimator &first_confidence,
                  BranchPredictor &second,
                  ConfidenceEstimator &second_confidence)
{
    if (!first_confidence.bucketsAreOrdered() ||
        !second_confidence.bucketsAreOrdered()) {
        fatal("hybrid selection requires ordered-bucket (counter) "
              "confidence estimators");
    }
    // Each observe() trains its estimator before the other reads, so
    // one estimator cannot grade both constituents.
    if (&first_confidence == &second_confidence)
        fatal("hybrid selection requires two distinct confidence "
              "estimators");

    HybridSelectorResult result;
    HistoryRegister bhr(16);
    ShiftRegister gcir(16, 0);
    BranchRecord record;
    BranchContext ctx;

    while (source.next(record)) {
        if (!record.isConditional())
            continue;
        ctx.pc = record.pc;
        ctx.bhr = bhr.value();
        ctx.gcir = gcir.value();

        const bool p1 = first.predict(record.pc);
        const bool p2 = second.predict(record.pc);
        const bool correct1 = (p1 == record.taken);
        const bool correct2 = (p2 == record.taken);

        // Each estimator tracks its own constituent's correctness.
        const std::uint64_t c1 =
            first_confidence.observe(ctx, correct1, record.taken);
        const std::uint64_t c2 =
            second_confidence.observe(ctx, correct2, record.taken);

        // Confidence arbitration: the more confident constituent wins;
        // ties go to the second constituent.
        const bool selected = (c1 > c2) ? p1 : p2;
        const bool correct_sel = (selected == record.taken);

        ++result.branches;
        if (!correct1)
            ++result.firstMispredicts;
        if (!correct2)
            ++result.secondMispredicts;
        if (!correct_sel)
            ++result.selectedMispredicts;
        if (p1 != p2)
            ++result.disagreements;
        if (!correct1 && !correct2)
            ++result.oracleMispredicts;

        first.update(record.pc, record.taken);
        second.update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!correct1); // GCIR convention: track constituent 1
    }
    return result;
}

} // namespace confsim
