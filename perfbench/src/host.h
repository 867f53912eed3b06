/**
 * @file
 * Host-side measurement helpers for the benchmark: clocks,
 * order statistics, peak memory, a live-thread sampler, and the
 * private-table memory-scaling kernel that calibrates how much a
 * multi-threaded run can gain on this host at all.
 */

#ifndef PERFBENCH_HOST_H
#define PERFBENCH_HOST_H

#include <atomic>
#include <chrono>
#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** @return milliseconds elapsed since @p start. */
inline double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** @return the median of @p values (0 when empty). */
double median(std::vector<double> values);

/**
 * The tail of a latency sample: the highest percentile that still has
 * at least ten samples above it, its value, and the sample count.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0; //!< in percent, e.g. 95.8
    std::size_t samples = 0;
};

/** @return the tail of @p values (value = max when < 11 samples). */
Tail tailOf(std::vector<double> values);

/** @return the hardware threads this process may use (>= 1). */
unsigned hostThreads();

/** @return the process's peak resident set size in MiB. */
double peakRssMb();

/** @return the `Threads:` count of /proc/self/status (0 if unknown). */
unsigned liveThreads();

/**
 * Polls /proc/self/status on its own thread and keeps the largest
 * `Threads:` count seen, not counting the sampler itself. Short-lived
 * threads that start and end between two polls can be missed; every
 * thread the simulator keeps for a whole benchmark pass is seen.
 */
class ThreadSampler
{
  public:
    explicit ThreadSampler(std::chrono::microseconds period);
    ~ThreadSampler();

    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    /** @return peak live threads other than the sampler so far. */
    unsigned peak() const;

  private:
    void loop();

    std::chrono::microseconds period_;
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> peak_{0};
    std::thread thread_;
};

/**
 * Throughput of a private 128 KiB random-access kernel on @p threads
 * threads relative to one thread: threads * t(1) / t(threads), each
 * time the median of three trials. 1.0 means extra threads add no
 * throughput on this host; @p threads means perfect scaling.
 */
double memScalingX(unsigned threads);

} // namespace perfbench

#endif // PERFBENCH_HOST_H
