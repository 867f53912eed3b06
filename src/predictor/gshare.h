/**
 * @file
 * The gshare predictor [McFarling 1993] — the paper's underlying
 * predictor (Section 1.2).
 *
 * A table of 2^m two-bit saturating counters is indexed with the
 * exclusive-OR of PC bits [m+1 : 2] and the most recent h global branch
 * outcomes (h <= m). The paper's two configurations:
 *  - large: m = 16, h = 16 (PC bits 17..2 XOR 16-bit BHR), 3.85%
 *    composite misprediction rate on IBS;
 *  - small: m = 12, h = 12 (PC bits 13..2 XOR 12-bit BHR), 8.6%.
 * Counters initialize to "weakly taken".
 */

#ifndef CONFSIM_PREDICTOR_GSHARE_H
#define CONFSIM_PREDICTOR_GSHARE_H

#include "predictor/branch_predictor.h"
#include "predictor/history_register.h"
#include "util/fixed_vector_table.h"
#include "util/saturating_counter.h"

namespace confsim {

/** Global-history XOR PC indexed two-bit counter predictor. */
class GsharePredictor : public BranchPredictor
{
  public:
    /**
     * @param num_entries Counter table size (power of two), 2^m.
     * @param history_bits Global history depth h; must be <= m.
     * @param counter_bits Counter width (2 in the paper).
     */
    GsharePredictor(std::size_t num_entries, unsigned history_bits,
                    unsigned counter_bits = 2);

    /** Convenience factory for the paper's 64K-entry configuration. */
    static GsharePredictor makeLargePaperConfig();

    /** Convenience factory for the paper's 4K-entry configuration. */
    static GsharePredictor makeSmallPaperConfig();

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;
    bool sameDesignAs(const BranchPredictor &other) const override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    /** @return the predictor's internal global history value. */
    std::uint64_t historyValue() const { return history_.value(); }

    /** @return the history depth in bits. */
    unsigned historyBits() const { return history_.width(); }

  private:
    std::uint64_t indexOf(std::uint64_t pc) const;

    FixedVectorTable<SaturatingCounter> table_;
    HistoryRegister history_;
    unsigned counterBits_;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_GSHARE_H
