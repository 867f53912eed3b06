#include "layers.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <tuple>

#include "host.h"
#include "obs/span.h"
#include "predictor/history_register.h"
#include "sim/driver.h"
#include "sim/sampling_engine.h"
#include "sim/sweep_engine.h"
#include "trace/trace_io.h"
#include "trace/vector_trace_source.h"
#include "util/shift_register.h"
#include "workload/workload_generator.h"
#include "workloads.h"

using namespace confsim;

namespace perfbench {

namespace {

/** What an estimator sees for one conditional branch. */
struct Outcome
{
    BranchContext ctx;
    bool correct = false;
    bool taken = false;
};

double
nsSince(Clock::time_point start)
{
    return msSince(start) * 1e6;
}

/** Predict + update every conditional record; @return elapsed ns. */
double
timePredictor(const PredictorFactory &factory,
              const std::vector<BranchRecord> &records,
              std::uint64_t *mispredicts)
{
    const auto predictor = factory();
    std::uint64_t misses = 0;
    const Clock::time_point start = Clock::now();
    for (const BranchRecord &record : records) {
        if (!record.isConditional())
            continue;
        misses += predictor->predict(record.pc) != record.taken ? 1 : 0;
        predictor->update(record.pc, record.taken);
    }
    const double ns = nsSince(start);
    *mispredicts = misses;
    return ns;
}

/**
 * The contexts the driver hands its estimators when @p factory's
 * predictor runs over @p records: pre-update history registers and the
 * prediction's correctness.
 */
std::vector<Outcome>
outcomesOf(const PredictorFactory &factory,
           const std::vector<BranchRecord> &records)
{
    const auto predictor = factory();
    HistoryRegister bhr(paper::kLargeHistoryBits);
    ShiftRegister gcir(paper::kCirBits, 0);
    std::vector<Outcome> out;
    out.reserve(records.size());
    for (const BranchRecord &record : records) {
        if (!record.isConditional())
            continue;
        Outcome outcome;
        outcome.ctx.pc = record.pc;
        outcome.ctx.bhr = bhr.value();
        outcome.ctx.bhrBits = paper::kLargeHistoryBits;
        outcome.ctx.gcir = gcir.value();
        outcome.ctx.gcirBits = paper::kCirBits;
        outcome.correct = predictor->predict(record.pc) == record.taken;
        outcome.taken = record.taken;
        out.push_back(outcome);
        predictor->update(record.pc, record.taken);
        bhr.recordOutcome(record.taken);
        gcir.shiftIn(!outcome.correct);
    }
    return out;
}

/** bucketOf + update over @p outcomes; @return elapsed ns. */
double
timeEstimator(const EstimatorConfig &config,
              const std::vector<Outcome> &outcomes,
              std::vector<std::uint64_t> *buckets,
              std::uint64_t *num_buckets)
{
    const auto estimator = config.make();
    *num_buckets = estimator->numBuckets();
    buckets->resize(outcomes.size());
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const Outcome &o = outcomes[i];
        (*buckets)[i] = estimator->bucketOf(o.ctx);
        estimator->update(o.ctx, o.correct, o.taken);
    }
    return nsSince(start);
}

/** Running totals over the probe's benchmarks. */
struct Totals
{
    std::uint64_t records = 0;
    std::uint64_t branches = 0;
    double genNs = 0.0;
    double readNs = 0.0;
    double bytes = 0.0;
    std::map<std::string, double> predictorNs;
    std::map<std::string, double> familyNs; //!< summed over members
    double recordNs = 0.0;
    std::uint64_t recordCalls = 0;
    double curveMs = 0.0;
    double driverNs = 0.0;
    std::map<std::string, double> configMs;
    double sweepWallMs = 0.0;
    double sweepBusyMs = 0.0;
    double decodeStallMs = 0.0;
    double prepassMs = 0.0;
    double replayMs = 0.0;
    std::uint64_t recorded = 0;
    std::uint64_t traceBranches = 0;
    std::vector<std::vector<double>> sampledRates; //!< [bench][subsample]
    std::vector<double> exactRates;                //!< [bench]
};

/** Times every layer over one benchmark's records at a time. */
class Probe
{
  public:
    Probe(std::uint64_t branches, unsigned nproc, std::string work_dir,
          SpanTracer *spans)
        : branches_(branches), nproc_(nproc),
          workDir_(std::move(work_dir)), spans_(spans)
    {
    }

    void
    run(const BenchmarkProfile &profile)
    {
        name_ = profile.name;
        decode(profile);
        traceLayer();
        predictors();
        confidence();
        curve();
        driver();
        sweeps();
        sampling();
        std::filesystem::remove(path_);
    }

    Totals t;
    LayerReport report;

  private:
    /** Count one cross-check; keep @p what if it failed. */
    void
    check(bool ok, const std::string &what)
    {
        ++report.checks;
        if (!ok)
            report.problems.push_back(name_ + what);
    }

    /** The generator produces the records every layer replays. */
    void
    decode(const BenchmarkProfile &profile)
    {
        ScopedSpan span(spans_, "workload.generate");
        records_.clear();
        records_.reserve(branches_);
        const Clock::time_point start = Clock::now();
        WorkloadGenerator generator(profile, branches_);
        BranchRecord record;
        while (generator.next(record))
            records_.push_back(record);
        t.genNs += nsSince(start);
        conditionals_ = 0;
        for (const BranchRecord &r : records_)
            conditionals_ += r.isConditional() ? 1 : 0;
        t.records += records_.size();
        t.branches += conditionals_;
    }

    /** CBT2 encode (untimed) and decode (timed). */
    void
    traceLayer()
    {
        path_ = workDir_ + "/probe-" + name_ + ".cbt";
        {
            ScopedSpan span(spans_, "trace.cbt2_write");
            VectorTraceSource source(records_);
            writeTraceFile(source, path_, TraceFormat::kCbt2);
        }
        t.bytes += static_cast<double>(std::filesystem::file_size(path_));
        ScopedSpan span(spans_, "trace.cbt2_read");
        std::size_t read = 0;
        bool same = true;
        const Clock::time_point start = Clock::now();
        TraceFileReader reader(path_);
        BranchRecord record;
        while (reader.next(record)) {
            same = same && read < records_.size() && record == records_[read];
            ++read;
        }
        t.readNs += nsSince(start);
        check(same && read == records_.size(),
              ": CBT2 file does not read back as written");
    }

    void
    predictors()
    {
        const std::vector<std::pair<std::string, PredictorFactory>> families =
            {{"gshare", largeGshareFactory()},
             {"tage", tageFactory()},
             {"perceptron", perceptronFactory()}};
        for (const auto &[family, factory] : families) {
            const std::string span_name = "predictor." + family;
            ScopedSpan span(spans_, span_name.c_str());
            std::uint64_t misses = 0;
            t.predictorNs[family] += timePredictor(factory, records_, &misses);
            if (family == "gshare")
                gshareMisses_ = misses;
        }
    }

    /**
     * The paper bank over gshare outcomes, recording each estimator's
     * buckets as the metrics layer's input, and each native estimator
     * over its own predictor's outcomes.
     */
    void
    confidence()
    {
        const std::vector<Outcome> outcomes =
            outcomesOf(largeGshareFactory(), records_);
        bankStats_.clear();
        for (const BankEntry &entry : paperBank()) {
            std::vector<std::uint64_t> buckets;
            std::uint64_t num_buckets = 0;
            {
                const std::string span_name = "confidence." + entry.slug;
                ScopedSpan span(spans_, span_name.c_str());
                t.familyNs[entry.family] += timeEstimator(
                    entry.config, outcomes, &buckets, &num_buckets);
            }
            ScopedSpan span(spans_, "metrics.record");
            BucketStats stats(num_buckets);
            const Clock::time_point start = Clock::now();
            for (std::size_t i = 0; i < buckets.size(); ++i)
                stats.record(buckets[i], !outcomes[i].correct);
            t.recordNs += nsSince(start);
            t.recordCalls += buckets.size();
            bankStats_.push_back(std::move(stats));
        }
        for (const auto &[slug, factory, config] :
             {std::make_tuple("tage_provider", tageFactory(),
                              tageProviderConfig()),
              std::make_tuple("perceptron_margin", perceptronFactory(),
                              perceptronMarginConfig())}) {
            const std::vector<Outcome> native = outcomesOf(factory, records_);
            const std::string span_name = std::string("confidence.") + slug;
            ScopedSpan span(spans_, span_name.c_str());
            std::vector<std::uint64_t> buckets;
            std::uint64_t num_buckets = 0;
            t.familyNs[slug] +=
                timeEstimator(config, native, &buckets, &num_buckets);
        }
    }

    /** Curve over the PCxorBHR ideal statistics. */
    void
    curve()
    {
        const std::vector<BankEntry> bank = paperBank();
        for (std::size_t e = 0; e < bank.size(); ++e) {
            if (bank[e].slug != "pcxorbhr_ideal")
                continue;
            ScopedSpan span(spans_, "metrics.curve");
            const Clock::time_point start = Clock::now();
            const ConfidenceCurve curve =
                ConfidenceCurve::fromBucketStats(bankStats_[e]);
            const double coverage = curve.mispredCoverageAt(0.20);
            t.curveMs += msSince(start);
            check(coverage > 0.0 && coverage <= 1.0,
                  ": coverage@20% out of range");
        }
    }

    /** The whole driver loop; its overhead is the whole minus the parts. */
    void
    driver()
    {
        ScopedSpan span(spans_, "sim.driver.run");
        const auto predictor = largeGshareFactory()();
        std::vector<std::unique_ptr<ConfidenceEstimator>> owned;
        std::vector<ConfidenceEstimator *> raw;
        for (const BankEntry &entry : paperBank()) {
            owned.push_back(entry.config.make());
            raw.push_back(owned.back().get());
        }
        SimulationDriver driver(*predictor, raw, paperDriverOptions(true));
        VectorTraceSource source(records_);
        const Clock::time_point start = Clock::now();
        const DriverResult result = driver.run(source);
        t.driverNs += nsSince(start);
        check(exactWords(result.branches, result.mispredicts,
                         result.estimatorStats, nullptr) ==
                  exactWords(conditionals_, gshareMisses_, bankStats_,
                             nullptr),
              ": driver counts differ from the isolated "
              "predictor/estimator loops");
    }

    /** Each config alone, then all ten in one pass. */
    void
    sweeps()
    {
        const std::vector<SweepConfiguration> configs = mixedConfigs();
        const std::size_t gshare_configs = gshareCirConfigs().size();
        std::vector<std::vector<std::uint64_t>> alone;
        for (const SweepConfiguration &config : configs) {
            const std::string span_name = "sweep." + config.label;
            ScopedSpan span(spans_, span_name.c_str());
            SweepOptions one;
            one.threads = 1;
            one.decodeAhead = 1;
            SweepEngine engine({config}, paperDriverOptions(true), one);
            VectorTraceSource source(records_);
            const SweepRunResult result = engine.run(source);
            t.configMs[config.label] += result.wallMs;
            const SweepConfigResult &r = result.perConfig.at(0);
            alone.push_back(exactWords(r.branches, r.mispredicts,
                                       r.estimatorStats, nullptr));
        }
        ScopedSpan span(spans_, "sweep.all_configs");
        SweepOptions sweep;
        sweep.threads = sweepWorkers(nproc_);
        SweepEngine engine(configs, paperDriverOptions(true), sweep);
        VectorTraceSource source(records_);
        const SweepRunResult result = engine.run(source);
        t.sweepWallMs += result.wallMs;
        t.sweepBusyMs += result.shardBusyFrac * result.wallMs;
        t.decodeStallMs += result.decodeStallMs;
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const SweepConfigResult &r = result.perConfig.at(c);
            const std::string key = "/" + configs[c].label;
            check(exactWords(r.branches, r.mispredicts, r.estimatorStats,
                             nullptr) == alone[c],
                  key + ": sweep differs from its one-config run");
            if (c < gshare_configs)
                check(r.mispredicts == gshareMisses_,
                      key + ": gshare misses differ from the isolated "
                            "predictor");
        }
    }

    /** The CBT2 file, sampled at 10%. */
    void
    sampling()
    {
        ScopedSpan span(spans_, "sampling.run_trace");
        SamplingEngine engine(gshareCirConfigs(), paperDriverOptions(false),
                              sampledOptions(branches_, nproc_));
        const std::string &path = path_;
        const SamplingBenchmarkResult result = engine.runTrace(
            name_, [&path] { return std::make_unique<TraceFileReader>(path); });
        t.prepassMs += result.prePassMs;
        t.replayMs += result.replayMs;
        t.recorded += result.recordedBranches;
        t.traceBranches += result.totalBranches;
        t.sampledRates.push_back(result.perConfig.at(0).rateSubsamples);
        t.exactRates.push_back(static_cast<double>(gshareMisses_) /
                               static_cast<double>(conditionals_));
    }

    std::uint64_t branches_;
    unsigned nproc_;
    std::string workDir_;
    SpanTracer *spans_;

    // The benchmark being probed.
    std::string name_;
    std::vector<BranchRecord> records_;
    std::uint64_t conditionals_ = 0;
    std::string path_;
    std::uint64_t gshareMisses_ = 0;
    std::vector<BucketStats> bankStats_;
};

} // namespace

LayerReport
probeLayers(const std::vector<BenchmarkProfile> &profiles,
            std::uint64_t branches, unsigned nproc,
            const std::string &work_dir, SpanTracer *spans)
{
    Probe probe(branches, nproc, work_dir, spans);
    for (const BenchmarkProfile &profile : profiles)
        probe.run(profile);
    const Totals &t = probe.t;
    LayerReport report = std::move(probe.report);

    const double n = static_cast<double>(t.branches);
    auto &m = report.metrics;
    m.push_back({"workload.gen_ns_per_record",
                 t.genNs / static_cast<double>(t.records), "ns/record"});
    m.push_back({"trace.cbt2_read_ns_per_record",
                 t.readNs / static_cast<double>(t.records), "ns/record"});
    m.push_back({"trace.cbt2_bytes_per_record",
                 t.bytes / static_cast<double>(t.records), "B/record"});
    for (const auto &[family, ns] : t.predictorNs)
        m.push_back({"predictor." + family + ".ns_per_branch", ns / n,
                     "ns/branch"});
    // A family's cost is the mean over its members in the bank; the
    // native estimators are families of one.
    std::map<std::string, double> members;
    for (const BankEntry &entry : paperBank())
        members[entry.family] += 1.0;
    double bank_ns = 0.0;
    for (const auto &[family, ns] : t.familyNs) {
        const bool in_bank = members.count(family) != 0;
        m.push_back({"confidence." + family + ".ns_per_branch",
                     ns / (n * (in_bank ? members[family] : 1.0)),
                     "ns/branch"});
        if (in_bank)
            bank_ns += ns;
    }
    m.push_back({"metrics.record_ns_per_branch",
                 t.recordNs / static_cast<double>(t.recordCalls),
                 "ns/branch"});
    m.push_back({"metrics.curve_ms",
                 t.curveMs / static_cast<double>(profiles.size()), "ms"});
    m.push_back({"sim.driver.overhead_ns_per_branch",
                 (t.driverNs - t.predictorNs.at("gshare") - bank_ns -
                  t.recordNs) /
                     n,
                 "ns/branch"});

    // The heaviest config's share of the summed one-config time: no
    // assignment of configs to shards finishes a sweep in less than
    // that share of the serial time.
    double config_sum = 0.0;
    double config_max = 0.0;
    for (const auto &[label, ms] : t.configMs) {
        m.push_back({"sim.sweep.config_ms." + label, ms, "ms"});
        config_sum += ms;
        config_max = std::max(config_max, ms);
    }
    m.push_back({"sim.sweep.critical_config_share", config_max / config_sum,
                 "ratio"});
    m.push_back({"sim.sweep.shard_busy_frac", t.sweepBusyMs / t.sweepWallMs,
                 "ratio"});
    m.push_back({"sim.sweep.decode_stall_ms", t.decodeStallMs, "ms"});

    m.push_back({"sim.sampling.prepass_ms", t.prepassMs, "ms"});
    m.push_back({"sim.sampling.replay_ms", t.replayMs, "ms"});
    m.push_back({"sim.sampling.replayed_frac",
                 static_cast<double>(t.recorded) /
                     static_cast<double>(t.traceBranches),
                 "ratio"});

    // Equal-weight composite of the per-benchmark subsample estimates,
    // against the exact composite rate of the same traces.
    std::vector<double> composite(t.sampledRates.front().size(), 0.0);
    for (const auto &rates : t.sampledRates) {
        for (std::size_t r = 0; r < composite.size(); ++r)
            composite[r] += rates.at(r) / t.sampledRates.size();
    }
    const IntervalEstimate estimate = estimateFromSubsamples(composite);
    double exact = 0.0;
    for (const double rate : t.exactRates)
        exact += rate / t.exactRates.size();
    m.push_back({"sample_abs_err_pp", 100.0 * std::abs(estimate.mean - exact),
                 "pp"});
    m.push_back({"ci_halfwidth_pp", 100.0 * estimate.ciHalf, "pp"});
    return report;
}

Fidelity
paperFidelity(std::uint64_t seed, SpanTracer *spans)
{
    ScopedSpan span(spans, "model.paper_fidelity");
    const EstimatorConfig pcxorbhr = oneLevelIdealConfig(IndexScheme::PcXorBhr);
    double rate_sum = 0.0;
    std::unique_ptr<EqualWeightComposite> composite;
    const std::vector<BenchmarkProfile> profiles =
        seededProfiles(ibsProfileNames(), seed);
    for (const BenchmarkProfile &profile : profiles) {
        WorkloadGenerator generator(profile); // default trace length
        const auto predictor = largeGshareFactory()();
        const auto estimator = pcxorbhr.make();
        if (!composite)
            composite = std::make_unique<EqualWeightComposite>(
                estimator->numBuckets());
        SimulationDriver driver(*predictor, {estimator.get()},
                                paperDriverOptions(false));
        const DriverResult result = driver.run(generator);
        rate_sum += result.mispredictRate();
        composite->add(result.estimatorStats.at(0));
    }
    constexpr double kPaperMispredictPct = 3.85;
    constexpr double kPaperCoverage20Pct = 89.0;
    Fidelity fidelity;
    fidelity.mispredictPp =
        std::abs(100.0 * rate_sum / profiles.size() - kPaperMispredictPct);
    fidelity.coverage20Pp = std::abs(
        100.0 * ConfidenceCurve::fromBucketStats(composite->result())
                    .mispredCoverageAt(0.20) -
        kPaperCoverage20Pct);
    return fidelity;
}

} // namespace perfbench
