/**
 * @file
 * TAGE — TAgged GEometric-history-length branch predictor
 * [Seznec & Michaud 2006], the modern successor to the paper's gshare
 * baseline.
 *
 * A bimodal base table backs N tagged tables whose history lengths form
 * a geometric series. Each tagged entry holds a partial tag, a signed
 * prediction counter, and a "useful" counter. The *provider* is the
 * matching entry with the longest history; the *alternate* prediction
 * comes from the next-longest match (or the base table). A saturating
 * use_alt_on_na counter learns whether newly allocated provider entries
 * should be overridden by the alternate prediction, and the useful
 * counters are periodically aged (halved) so stale entries can be
 * reclaimed by allocation.
 *
 * The index and tag hashes fold a table's slice of the global history
 * down to the index or tag width. Rather than refolding 64 history bits
 * per table on every lookup, the predictor keeps three folded-history
 * registers per table (index width, tag width, tag width - 1) and
 * updates each in O(1) per outcome, as Seznec's circular shift
 * registers do; indexOf()/tagOf() read them and equal the direct
 * formula xorFold(history & mask(length), width) bit for bit. The
 * pc's own per-table fold is stepped from one table to the next the
 * same way instead of being refolded. Each
 * table's index and tag are computed once per branch: predict(),
 * predictDetail() and update() for the same pc share one memoized
 * lookup, dropped on every state change.
 *
 * TAGE matters to this repo because its provider counter magnitude and
 * provider-vs-alternate agreement are a *built-in* confidence signal
 * (exposed by confidence/tage_confidence.h, which reads this
 * predictor's predictDetail()) that the paper's CIR estimators can be
 * compared against head-to-head.
 */

#ifndef CONFSIM_PREDICTOR_TAGE_H
#define CONFSIM_PREDICTOR_TAGE_H

#include <cstdint>
#include <vector>

#include "predictor/branch_predictor.h"
#include "predictor/history_register.h"
#include "util/fixed_vector_table.h"
#include "util/saturating_counter.h"

namespace confsim {

/** Geometry and policy knobs for TagePredictor. */
struct TageConfig
{
    /** Base bimodal table entries (power of two). */
    std::size_t bimodalEntries = std::size_t{1} << 12;

    /** Entries per tagged table (power of two). */
    std::size_t taggedEntries = std::size_t{1} << 10;

    /** Partial-tag width in bits (1..16). */
    unsigned tagBits = 9;

    /** Tagged-table prediction counter width; taken iff value is in
     *  the upper half. 3 bits in the reference design. */
    unsigned counterBits = 3;

    /** Useful-counter width (2 bits in the reference design). */
    unsigned usefulBits = 2;

    /**
     * Per-table global-history depths, strictly increasing, each
     * <= 64 so the whole history fits one register. The reference
     * series is geometric (ratio ~2.2).
     */
    std::vector<unsigned> historyLengths = {5, 11, 24, 52};

    /** use_alt_on_na counter width. */
    unsigned useAltBits = 4;

    /**
     * Updates between useful-counter agings; every agingPeriod-th
     * update halves every u counter. 0 disables aging.
     */
    std::uint64_t agingPeriod = 262'144;

    /** The default paper-scale configuration. */
    static TageConfig makeDefault() { return TageConfig{}; }

    /** A small geometry for unit/differential tests. */
    static TageConfig makeSmall();

    /** Same geometry and policy, field for field. */
    bool operator==(const TageConfig &other) const = default;
};

/** Everything TAGE knows about one prediction, for confidence
 *  estimation and white-box tests. */
struct TagePrediction
{
    bool taken = false;         //!< final predicted direction
    bool providerTaken = false; //!< provider component's direction
    bool altTaken = false;      //!< alternate prediction's direction
    int providerTable = -1;     //!< tagged table index, -1 = bimodal
    int altTable = -1;          //!< alternate's table, -1 = bimodal
    std::uint32_t providerCtr = 0;   //!< provider counter raw value
    std::uint64_t providerStrength = 0; //!< distance from weak boundary
    bool newlyAllocated = false; //!< provider entry looks newly allocated
    bool usedAlt = false;        //!< use_alt_on_na overrode the provider
};

/** One tagged-table entry (exposed for white-box property tests). */
struct TageEntry
{
    std::uint16_t tag = 0;
    std::uint8_t ctr = 0; //!< unsigned encoding; taken iff upper half
    std::uint8_t u = 0;   //!< useful counter
};

/**
 * TAgged GEometric-history predictor with native confidence hooks.
 *
 * predict() memoizes the lookup for its pc, so one predictor is used
 * by one thread at a time.
 */
class TagePredictor : public BranchPredictor
{
  public:
    explicit TagePredictor(TageConfig config = TageConfig::makeDefault());

    bool predict(std::uint64_t pc) const override;
    void update(std::uint64_t pc, bool taken) override;
    std::uint64_t storageBits() const override;
    std::string name() const override;
    void reset() override;
    bool sameDesignAs(const BranchPredictor &other) const override;

    bool checkpointable() const override { return true; }
    void saveState(StateWriter &out) const override;
    void loadState(StateReader &in) override;

    /** Full provider/alternate breakdown of the prediction for @p pc. */
    TagePrediction predictDetail(std::uint64_t pc) const;

    /** @return the number of confidence-strength levels the provider
     *  counter distinguishes: 2^(counterBits-1). */
    std::uint64_t strengthLevels() const;

    // --- white-box introspection (property tests) -------------------
    const TageConfig &config() const { return config_; }
    std::size_t numTables() const { return folds_.size(); }
    const TageEntry &entryAt(std::size_t table, std::uint64_t index) const;
    std::uint64_t indexOf(std::size_t table, std::uint64_t pc) const;
    std::uint16_t tagOf(std::size_t table, std::uint64_t pc) const;
    std::uint32_t useAltValue() const { return useAltOnNa_.value(); }
    std::uint64_t updateCount() const { return updates_; }
    std::uint64_t historyValue() const { return history_.value(); }

  private:
    /**
     * xorFold(history & mask(length), width) for its table's length,
     * kept up to date in O(1) per outcome (Seznec's circular shift
     * register).
     */
    struct FoldedHistory
    {
        FoldedHistory() = default;
        FoldedHistory(unsigned length, unsigned width);

        std::uint64_t value = 0;
        std::uint64_t widthMask = 0; //!< mask(width)
        /** 1 << (length % width), 0 when width is 0: where the
         *  outcome leaving the window sits after the shift. */
        std::uint64_t outBit = 0;

        /**
         * Shift in @p taken (0 or 1). @p leaving is all ones iff the
         * outcome leaving the length-bit window was taken.
         */
        void push(std::uint64_t taken, std::uint64_t leaving);
    };

    /** One table's history length and its three folds: index, tag,
     *  and the tag's second (one bit narrower) fold. */
    struct TableFolds
    {
        unsigned length = 0;
        FoldedHistory index;
        FoldedHistory tag;
        FoldedHistory tagLow;
    };

    /** Where one table is probed for the memoized pc. */
    struct Probe
    {
        std::size_t slot = 0; //!< flat entries_ position
        std::uint16_t tag = 0;
    };

    /** Every table's probe plus the prediction for one pc. */
    struct Lookup
    {
        bool valid = false;
        std::uint64_t pc = 0;
        std::vector<Probe> probes;
        TagePrediction detail;
    };

    bool ctrTaken(std::uint8_t ctr) const;
    std::uint64_t ctrStrength(std::uint8_t ctr) const;
    std::uint64_t bimodalIndex(std::uint64_t pc) const;
    std::uint64_t shiftPcFold(std::uint64_t fold,
                              std::uint64_t rest) const;
    std::uint64_t indexHash(std::size_t table, std::uint64_t pc_fold,
                            std::uint64_t pc_table_fold) const;
    std::uint16_t tagHash(std::size_t table, std::uint64_t pc_fold) const;
    const Lookup &lookup(std::uint64_t pc) const;
    /** Recompute what derives from the state (folds, aging
     *  countdown) and drop the memoized lookup. */
    void syncDerived();
    void ageUsefulCounters();

    TageConfig config_;
    unsigned indexBits_;
    std::uint64_t indexMask_;
    std::uint64_t indexTopBit_; //!< 1 << (indexBits_ - 1), or 0
    std::uint64_t tagMask_;
    FixedVectorTable<SaturatingCounter> bimodal_;
    /** Every tagged table, table-major: table t, index i is at
     *  (t << indexBits_) | i. */
    std::vector<TageEntry> entries_;
    std::vector<TableFolds> folds_;
    HistoryRegister history_;
    SaturatingCounter useAltOnNa_;
    std::uint64_t updates_ = 0;
    /** Updates left to the next aging: agingPeriod - updates_ %
     *  agingPeriod, kept so update() never divides. */
    std::uint64_t untilAging_ = 0;
    std::uint8_t ctrMax_;
    std::uint8_t uMax_;
    mutable Lookup lookup_;
};

} // namespace confsim

#endif // CONFSIM_PREDICTOR_TAGE_H
