#include "apps/reverser.h"

#include "sim/driver.h"

namespace confsim {

ReverserResult
runReverser(TraceSource &source, BranchPredictor &predictor,
            ConfidenceEstimator &estimator, double rate_threshold,
            double min_bucket_refs)
{
    // Profile per-bucket accuracy. Every structure trains on the base
    // prediction, so a replay that reverses some buckets sees the same
    // buckets and misses: its counts follow from the profile alone.
    const DriverResult profile =
        SimulationDriver(predictor, {&estimator}).run(source);
    const BucketStats &stats = profile.estimatorStats.front();

    ReverserResult result;
    result.branches = profile.branches;
    result.baseMispredicts = profile.mispredicts;
    for (std::uint64_t b = 0; b < estimator.numBuckets(); ++b) {
        const BucketCounts &counts = stats[b];
        const auto refs = static_cast<std::uint64_t>(counts.refs);
        const auto misses = static_cast<std::uint64_t>(counts.mispredicts);
        if (counts.refs >= min_bucket_refs &&
            counts.rate() > rate_threshold) {
            // Inverting a bucket's predictions swaps hits and misses.
            result.reversalBuckets.push_back(b);
            result.reversals += refs;
            result.reversedMispredicts += refs - misses;
        } else {
            result.reversedMispredicts += misses;
        }
    }
    return result;
}

} // namespace confsim
