#include "host.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    constexpr std::size_t kBeyond = 10;
    if (n <= kBeyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        return tail;
    }
    // Index n-1-kBeyond leaves exactly kBeyond samples above it.
    const std::size_t index = n - 1 - kBeyond;
    tail.value = values[index];
    tail.percentile = 100.0 * static_cast<double>(index + 1) /
                      static_cast<double>(n);
    return tail;
}

unsigned
hostThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : n;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

unsigned
liveThreads()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    }
    return 0;
}

ThreadSampler::ThreadSampler(std::chrono::microseconds period)
    : period_(period), thread_([this] { loop(); })
{
}

ThreadSampler::~ThreadSampler()
{
    stop_.store(true);
    thread_.join();
}

unsigned
ThreadSampler::peak() const
{
    return peak_.load();
}

void
ThreadSampler::loop()
{
    while (!stop_.load()) {
        const unsigned live = liveThreads();
        const unsigned others = live == 0 ? 0 : live - 1;
        if (others > peak_.load())
            peak_.store(others);
        std::this_thread::sleep_for(period_);
    }
}

namespace {

/** Random read-modify-writes over a private 128 KiB table. */
std::uint64_t
memKernel(std::uint64_t seed)
{
    constexpr std::size_t kWords = (128 * 1024) / sizeof(std::uint32_t);
    constexpr std::uint64_t kSteps = 4'000'000;
    std::vector<std::uint32_t> table(kWords, 1);
    std::uint64_t x = seed | 1;
    std::uint64_t sum = 0;
    for (std::uint64_t i = 0; i < kSteps; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        std::uint32_t &slot = table[(x >> 33) & (kWords - 1)];
        sum += slot;
        slot += static_cast<std::uint32_t>(sum);
    }
    return sum;
}

/** @return wall ms for @p threads concurrent kernels. */
double
timeKernels(unsigned threads)
{
    std::vector<std::uint64_t> sinks(threads, 0);
    const Clock::time_point start = Clock::now();
    // The calling thread runs one kernel itself, so at most @p threads
    // threads are live.
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back([&sinks, t] { sinks[t] = memKernel(t + 1); });
    sinks[0] = memKernel(1);
    for (auto &thread : pool)
        thread.join();
    const double ms = msSince(start);
    volatile std::uint64_t keep = 0;
    for (const std::uint64_t s : sinks)
        keep = keep + s;
    (void)keep;
    return ms;
}

} // namespace

double
memScalingX(unsigned threads)
{
    std::vector<double> one;
    std::vector<double> many;
    for (int trial = 0; trial < 3; ++trial) {
        one.push_back(timeKernels(1));
        many.push_back(timeKernels(threads));
    }
    const double t_many = median(many);
    return t_many <= 0.0
               ? 0.0
               : static_cast<double>(threads) * median(one) / t_many;
}

} // namespace perfbench
