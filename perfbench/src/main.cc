/**
 * @file
 * The perfbench program: builds one workload from a seed, times the calls
 * into confsim's public entry points, checks the simulated results,
 * and prints one JSON object as its last line of output.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             --work-dir <dir>
 *
 * --trace 0 measures the end-to-end metrics: passes over the
 * workload's benchmarks repeat until --seconds have elapsed, after one
 * untimed warm-up pass. --trace 1 measures the per-layer metrics
 * instead: after the warm-up pass, three untraced and three traced
 * passes in turn (for the tracing overhead), the layer probe over the
 * same traces, and the paper fidelity context, with every call wrapped
 * in a span of a Perfetto trace written to the work directory.
 *
 * Every pass's results must equal the first pass's, digest for digest;
 * run.py beside this package compares them with the stored digests.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "host.h"
#include "layers.h"
#include "obs/json.h"
#include "obs/span.h"
#include "trace/trace_stats.h"
#include "workload/workload_generator.h"
#include "workloads.h"

using namespace confsim;
using namespace perfbench;

namespace {

/** Set-ups per run; their median is setup_s. */
constexpr int kSetupRuns = 3;

/** Timed passes per untraced run, at least. */
constexpr std::size_t kMinPasses = 3;

/** A seed with no part in calibrating the synthetic suite. */
constexpr std::uint64_t kHeldOutSeed = 99991;

struct Args
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".bench_build/work";
};

Args
parseArgs(int argc, char **argv)
{
    Args args;
    std::map<std::string, std::string> values;
    for (int i = 1; i + 1 < argc; i += 2)
        values[argv[i]] = argv[i + 1];
    if (argc % 2 != 1 || values.count("--workload") == 0)
        throw std::invalid_argument(
            "usage: perfbench --workload <name> --seed <n> --seconds <s> "
            "--trace <0|1> [--work-dir <dir>]");
    args.workload = values["--workload"];
    if (values.count("--seed"))
        args.seed = std::stoull(values["--seed"]);
    if (values.count("--seconds"))
        args.seconds = std::stod(values["--seconds"]);
    if (values.count("--trace"))
        args.trace = values["--trace"] == "1";
    if (values.count("--work-dir"))
        args.workDir = values["--work-dir"];
    return args;
}

std::string
hex(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

/** Checks made and failed over the whole run. */
struct Tally
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            problems.push_back(what);
        }
    }

    /**
     * Count @p pass's results: a result fails when the pass threw, its
     * invariants do not hold, or it differs from @p reference's.
     */
    void
    countPass(const Pass &pass, const Pass &reference, std::size_t expected,
              const char *what)
    {
        problems.insert(problems.end(), pass.problems.begin(),
                        pass.problems.end());
        attempted += expected;
        if (pass.results.size() != expected ||
            reference.results.size() != expected) {
            failed += expected;
            return;
        }
        for (std::size_t i = 0; i < expected; ++i) {
            const ResultWords &r = pass.results[i];
            const bool same = r.key == reference.results[i].key &&
                              r.words == reference.results[i].words;
            if (!r.ok || !same)
                ++failed;
            if (r.ok && !same)
                problems.push_back(r.key + ": " + what);
        }
    }
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i ? "," : "") << jsonString(metrics[i].name) << ":{"
            << jsonString("value") << ":" << jsonNumber(metrics[i].value)
            << "," << jsonString("unit") << ":"
            << jsonString(metrics[i].unit) << "}";
    }
    out << "}";
    return out.str();
}

/**
 * A different seed must draw different programs: every trace's
 * checksum at seed + 1 differs from this seed's.
 */
bool
seedChangesTraces(const Workload &workload, std::uint64_t seed)
{
    std::vector<std::string> names;
    for (const BenchmarkProfile &profile : workload.profiles())
        names.push_back(profile.name);
    const std::vector<BenchmarkProfile> next = seededProfiles(names, seed + 1);
    for (std::size_t b = 0; b < next.size(); ++b) {
        WorkloadGenerator generator(next[b], workload.branches());
        if (streamChecksum(generator) == workload.checksums().at(b))
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        args = parseArgs(argc, argv);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }
    std::filesystem::create_directories(args.workDir);
    const unsigned nproc = hostThreads();

    // Host ceiling first: its kernels use nproc threads of their own.
    const double mem_scaling = memScalingX(nproc);
    ThreadSampler sampler(std::chrono::milliseconds(2));

    std::unique_ptr<SpanTracer> spans;
    const std::string trace_path =
        args.workDir + "/trace-" + args.workload + ".json";
    if (args.trace) {
        SpanTracerOptions options;
        options.path = trace_path;
        spans = SpanTracer::fromOptions(options);
        spans->setCurrentThreadName("perfbench");
    }

    std::unique_ptr<Workload> workload;
    try {
        workload = makeWorkload(args.workload, args.seed, nproc, args.workDir);
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 2;
    }

    std::vector<double> setup_s;
    for (int i = 0; i < kSetupRuns; ++i) {
        ScopedSpan span(spans.get(), "workload.setup");
        const Clock::time_point start = Clock::now();
        workload->setup();
        setup_s.push_back(msSince(start) / 1000.0);
    }

    Tally tally;
    tally.check(seedChangesTraces(*workload, args.seed),
                "seed " + std::to_string(args.seed + 1) +
                    " draws a trace identical to this seed's");

    const std::size_t expected = workload->resultsPerPass();
    const Pass reference = workload->run(nullptr);
    tally.countPass(reference, reference, expected, "");
    std::size_t passes = 1;

    std::vector<Metric> metrics;
    std::ostringstream info;
    if (!args.trace) {
        // Throughput is all updates over all timed wall time: on a
        // shared host whose speed drifts over seconds, this average is
        // steadier than a median of per-pass rates.
        double updates = 0.0;
        double wall_ms = 0.0;
        std::size_t timed = 0;
        std::vector<double> pass_ms;
        const Clock::time_point start = Clock::now();
        while (timed < kMinPasses || msSince(start) < args.seconds * 1000.0) {
            const Pass pass = workload->run(nullptr);
            tally.countPass(pass, reference, expected,
                            "differs from the first pass");
            ++passes;
            ++timed;
            updates += static_cast<double>(pass.updates);
            wall_ms += pass.wallMs;
            pass_ms.insert(pass_ms.end(), pass.benchMs.begin(),
                           pass.benchMs.end());
        }
        const Tail tail = tailOf(pass_ms);
        metrics = {
            {"updates_per_s", updates / (wall_ms / 1000.0), "1/s"},
            {"pass_ms_p50", median(pass_ms), "ms"},
            {"pass_ms_tail", tail.value, "ms"},
            {"setup_s", median(setup_s), "s"},
            {"peak_rss_mb", peakRssMb(), "MB"},
        };
        info << jsonString("pass_ms_tail_percentile") << ":"
             << jsonNumber(tail.percentile) << ","
             << jsonString("pass_samples") << ":" << tail.samples << ",";
    } else {
        // After the warm-up pass, alternate untraced and traced passes;
        // the traced ones must simulate exactly what the untraced did.
        std::vector<double> untraced_ms;
        std::vector<double> traced_ms;
        for (int round = 0; round < 3; ++round) {
            {
                const Pass pass = workload->run(nullptr);
                tally.countPass(pass, reference, expected,
                                "differs from the first pass");
                untraced_ms.push_back(pass.wallMs);
                ++passes;
            }
            const Pass pass = workload->run(spans.get());
            tally.countPass(pass, reference, expected,
                            "traced result differs from the untraced one");
            traced_ms.push_back(pass.wallMs);
            ++passes;
        }
        const LayerReport layers =
            probeLayers(workload->profiles(), workload->branches(), nproc,
                        args.workDir, spans.get());
        tally.attempted += layers.checks;
        tally.failed += layers.problems.size();
        tally.problems.insert(tally.problems.end(), layers.problems.begin(),
                              layers.problems.end());
        metrics = layers.metrics;
        metrics.push_back({"obs.trace_overhead_frac",
                           median(traced_ms) / median(untraced_ms) - 1.0,
                           "ratio"});
        const Fidelity canonical = paperFidelity(kDefaultSeed, spans.get());
        const Fidelity held_out = paperFidelity(kHeldOutSeed, spans.get());
        metrics.push_back({"model.paper_err_mispredict_pp",
                           canonical.mispredictPp, "pp"});
        metrics.push_back({"model.paper_err_coverage20_pp",
                           canonical.coverage20Pp, "pp"});
        metrics.push_back({"model.heldout.paper_err_mispredict_pp",
                           held_out.mispredictPp, "pp"});
        metrics.push_back({"model.heldout.paper_err_coverage20_pp",
                           held_out.coverage20Pp, "pp"});
    }

    const unsigned threads_peak = sampler.peak();
    tally.check(threads_peak <= nproc,
                "peak live threads " + std::to_string(threads_peak) +
                    " exceed nproc " + std::to_string(nproc));
    const std::vector<Metric> host = {
        {"sim.threads_peak", static_cast<double>(threads_peak), "count"},
        {"host.nproc", static_cast<double>(nproc), "count"},
        {"host.mem_scaling_x", mem_scaling, "x"},
    };
    if (args.trace)
        metrics.insert(metrics.end(), host.begin(), host.end());
    for (const Metric &metric : host)
        info << jsonString(metric.name) << ":" << jsonNumber(metric.value)
             << ",";
    info << jsonString("failed_frac") << ":"
         << jsonNumber(static_cast<double>(tally.failed) /
                       static_cast<double>(tally.attempted));

    std::string trace_file;
    if (spans) {
        spans->finish();
        trace_file = trace_path;
    }

    std::ostringstream out;
    out << "{" << jsonString("workload") << ":" << jsonString(args.workload)
        << "," << jsonString("seed") << ":" << args.seed << ","
        << jsonString("attempted") << ":" << tally.attempted << ","
        << jsonString("failed") << ":" << tally.failed << ","
        << jsonString("passes") << ":" << passes << ","
        << jsonString("metrics") << ":" << metricsJson(metrics) << ","
        << jsonString("info") << ":{" << info.str() << "},"
        << jsonString("problems") << ":[";
    for (std::size_t i = 0; i < tally.problems.size(); ++i)
        out << (i ? "," : "") << jsonString(tally.problems[i]);
    out << "]," << jsonString("checksums") << ":[";
    for (std::size_t b = 0; b < workload->checksums().size(); ++b)
        out << (b ? "," : "") << jsonString(hex(workload->checksums()[b]));
    out << "]," << jsonString("digests") << ":{";
    for (std::size_t i = 0; i < reference.results.size(); ++i) {
        const ResultWords &r = reference.results[i];
        out << (i ? "," : "") << jsonString(r.key) << ":"
            << jsonString(hex(digestOf(r.words)));
    }
    out << "}";
    if (!reference.results.empty()) {
        // The first result with one count off (its second word: the
        // mispredictions of an exact result, the recorded branches of
        // a sampled one), for the digest comparison's self-test.
        ResultWords off = reference.results.front();
        off.words.at(1) += 1;
        out << "," << jsonString("one_off") << ":{" << jsonString("key")
            << ":" << jsonString(off.key) << "," << jsonString("digest")
            << ":" << jsonString(hex(digestOf(off.words))) << "}";
    }
    out << "," << jsonString("trace_file") << ":" << jsonString(trace_file)
        << "}";
    std::cout << out.str() << std::endl;
    return 0;
}
