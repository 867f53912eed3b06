/**
 * @file
 * Per-layer costs for the traced run. Each layer's public functions
 * are timed in isolation over the same decoded records — the traces
 * of the workload being measured — and every timed call is wrapped
 * in a span. Two layers are left out on purpose: ckpt, whose every
 * checkpoint fsyncs, so its host time is the disk's; and serve, which
 * is off the roadmap.
 *
 * The probe also checks its layers against each other: the isolated
 * predictor and estimator loops must reproduce the driver's counts,
 * each config of a full sweep must equal its one-config run, and
 * CBT2 files must read back as written. Every disagreement is a
 * problem the run reports as failed.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <string>
#include <vector>

#include "workload/benchmark_profile.h"

namespace confsim {
class SpanTracer;
}

namespace perfbench {

/** One named measurement with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-layer metrics and the cross-checks made and failed. */
struct LayerReport
{
    std::vector<Metric> metrics;
    std::size_t checks = 0;
    std::vector<std::string> problems;
};

/**
 * Time every layer over @p profiles' traces of @p branches branches.
 * Sweeps use sweepWorkers(@p nproc); CBT2 files go under @p work_dir.
 */
LayerReport probeLayers(const std::vector<confsim::BenchmarkProfile> &profiles,
                        std::uint64_t branches, unsigned nproc,
                        const std::string &work_dir,
                        confsim::SpanTracer *spans);

/**
 * Model fidelity against the paper: the distance of the composite
 * 64K-gshare misprediction rate from 3.85%, and of PCxorBHR ideal
 * coverage at 20% of dynamic branches from 89%, both in percentage
 * points, over the full IBS suite at its default trace length, drawn
 * for @p seed.
 */
struct Fidelity
{
    double mispredictPp = 0.0;
    double coverage20Pp = 0.0;
};

Fidelity paperFidelity(std::uint64_t seed, confsim::SpanTracer *spans);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
