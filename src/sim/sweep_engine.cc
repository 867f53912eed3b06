#include "sim/sweep_engine.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "ckpt/checkpoint.h"
#include "ckpt/checkpoint_store.h"
#include "fault/fault_plan.h"
#include "obs/span.h"
#include "obs/telemetry.h"
#include "predictor/history_register.h"
#include "sim/run_policy.h"
#include "util/cancellation.h"
#include "util/error.h"
#include "util/running_stats.h"
#include "util/shift_register.h"
#include "util/status.h"

namespace confsim {

namespace {

std::string
cfgPrefix(std::size_t config)
{
    return "cfg" + std::to_string(config) + ":";
}

/**
 * Cooperative unwinding inside worker shards: carries the pass's
 * cancellation token and wall-clock deadline into the per-record replay
 * loop, so a hung or cancelled configuration unwinds from inside the
 * shard (satellite of the pass-granularity check the consumer loop
 * performs between batches). Pure control flow — checking never
 * perturbs simulation results.
 */
struct ReplayGuard
{
    using Clock = std::chrono::steady_clock;

    const CancellationToken *cancel = nullptr;
    bool hasDeadline = false;
    Clock::time_point deadline{};
    std::uint64_t limitMs = 0;

    bool
    active() const
    {
        return cancel != nullptr || hasDeadline;
    }

    void
    checkNow(std::uint64_t at_records) const
    {
        if (cancel != nullptr)
            cancel->throwIfCancelled("sweep shard");
        if (hasDeadline && Clock::now() > deadline) {
            throw WatchdogTimeout(
                "sweep exceeded its wall-clock budget of " +
                std::to_string(limitMs) + " ms after " +
                std::to_string(at_records) + " records");
        }
    }

    /**
     * Injected hang: park until the watchdog or cancellation unwinds
     * this shard. A 30 s safety cap turns a hang nobody is set up to
     * interrupt into a timeout instead of a wedged test run.
     */
    [[noreturn]] void
    park() const
    {
        const Clock::time_point cap =
            Clock::now() + std::chrono::seconds(30);
        for (;;) {
            checkNow(0);
            if (Clock::now() > cap) {
                throw WatchdogTimeout(
                    "injected hang exceeded its 30 s safety cap with "
                    "no watchdog or cancellation configured");
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
};

/** Nanoseconds elapsed since @p start. */
double
nsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Version of the replay checkpoint layout (sweep:meta plus per-config
 * cfgN:meta). Version 1 was the sweep-only layout that sat beside the
 * sequential driver's driver:meta layout; both are rejected as
 * kCheckpoint rather than misread.
 */
constexpr std::uint32_t kLayoutVersion = 2;

/** The pass-wide shape a checkpoint must match to be resumed. */
struct PassShape
{
    std::uint64_t bhrBits = 0;
    std::uint64_t gcirBits = 0;
    std::uint64_t configs = 0;
    std::uint64_t profileStatic = 0;

    static PassShape
    of(const DriverOptions &options, std::size_t configs)
    {
        return {options.bhrBits, options.gcirBits, configs,
                options.profileStatic ? 1u : 0u};
    }

    void
    saveState(StateWriter &out) const
    {
        out.putU64(bhrBits);
        out.putU64(gcirBits);
        out.putU64(configs);
        out.putU64(profileStatic);
    }

    void
    loadState(StateReader &in) const
    {
        in.expectU64(bhrBits, "checkpoint BHR width");
        in.expectU64(gcirBits, "checkpoint GCIR width");
        in.expectU64(configs, "checkpoint config count");
        in.expectU64(profileStatic, "checkpoint static-profile flag");
    }
};

/** fatal() unless every component can be checkpointed faithfully. */
void
requireCheckpointable(const BranchPredictor &predictor,
                      const std::vector<ConfidenceEstimator *> &estimators)
{
    // An unaudited component would write checkpoints that resume into
    // silently wrong state, so refuse it before any simulation.
    if (!predictor.checkpointable()) {
        fatal(ErrorCategory::kConfig, "predictor '" + predictor.name() +
              "' is not checkpointable");
    }
    for (const auto *estimator : estimators) {
        if (!estimator->checkpointable()) {
            fatal(ErrorCategory::kConfig, "estimator '" +
                  estimator->name() + "' is not checkpointable");
        }
    }
}

/**
 * Longest-processing-time assignment of configurations to @p shards:
 * heaviest @p cost first, each to the shard with the least cost so far
 * (ties go to the lower shard, equal costs keep configuration order).
 */
std::vector<std::vector<std::size_t>>
lptShards(const std::vector<std::uint64_t> &cost, std::size_t shards)
{
    std::vector<std::size_t> order(cost.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&cost](std::size_t a, std::size_t b) {
                         return cost[a] > cost[b];
                     });
    std::vector<std::vector<std::size_t>> out(shards);
    std::vector<std::uint64_t> load(shards, 0);
    for (const std::size_t c : order) {
        const auto s = static_cast<std::size_t>(
            std::min_element(load.begin(), load.end()) - load.begin());
        out[s].push_back(c);
        load[s] += cost[c];
    }
    return out;
}

/**
 * Everything one configuration owns: its predictor, estimator bank,
 * private replicas of the architectural context registers, the
 * recording-plan cursor, and its accumulating result. This is the one
 * replay state of the simulator: step() is the paper's per-branch loop
 * body, and forEachPart() lists its one checkpoint layout. One worker
 * shard touches one state at a time, so no field needs
 * synchronization. Internal linkage lets the compiler inline step()
 * into the batch loop.
 */
struct ReplayState
{
    ReplayState(const DriverOptions &options, std::string label)
        : options(options),
          registers{HistoryRegister(options.bhrBits),
                    ShiftRegister(options.gcirBits, 0), 0,
                    options.contextSwitchInterval, 0, 0}
    {
        ctx.bhrBits = options.bhrBits;
        ctx.gcirBits = options.gcirBits;
        result.label = std::move(label);
    }

    const DriverOptions &options;

    /** Set when the components came from factories (else borrowed). */
    std::unique_ptr<BranchPredictor> ownedPredictor;
    std::vector<std::unique_ptr<ConfidenceEstimator>> ownedEstimators;

    BranchPredictor *predictor = nullptr;
    std::vector<ConfidenceEstimator *> estimators;

    /**
     * What step() advances on every branch. replay() works on a local
     * copy for the length of a batch: the predictor's and estimators'
     * virtual calls cannot alias a local, so the compiler need not
     * store and reload these through this state around every call.
     */
    struct Registers
    {
        HistoryRegister bhr;
        ShiftRegister gcir;
        std::uint64_t simulated;   //!< conditionals stepped so far
        std::uint64_t untilSwitch; //!< branches to the next switch
        std::uint64_t branches;    //!< recorded (result.branches)
        std::uint64_t mispredicts; //!< recorded (result.mispredicts)
    } registers;

    BranchContext ctx;
    std::uint64_t guardTick = 0;

    /** Attribution profile; null unless DriverOptions::profileBranches. */
    BranchProfile *profile = nullptr;

    /**
     * Recording plan (null = record everything) plus its cursor: the
     * current region's mode and how many conditionals of the region
     * remain. The cursor is a pure function of `simulated`, so plan
     * resolution is batch-boundary independent — the bit-exactness
     * contract extends to planned runs unchanged.
     */
    const SweepRecordingPlan *plan = nullptr;
    std::uint32_t planSlot = SweepRecordingPlan::kWarmOnly;
    std::uint64_t planLeft = 0;

    SweepConfigResult result;

    /** Size the result banks for the attached components. */
    void
    attach(const SweepRecordingPlan *recording_plan)
    {
        std::vector<BranchProfileEstimatorInfo> infos;
        for (const auto *estimator : estimators) {
            result.estimatorStats.emplace_back(estimator->numBuckets());
            result.estimatorNames.push_back(estimator->name());
            infos.push_back({estimator->name(), estimator->numBuckets(),
                             estimator->bucketsAreOrdered()});
        }
        if (options.profileBranches) {
            result.branchProfile.configure(options.branchProfile,
                                           std::move(infos));
            profile = &result.branchProfile;
        }
        plan = recording_plan;
        if (plan != nullptr) {
            result.slotStats.resize(plan->numSlots);
            for (auto &slot_bank : result.slotStats)
                slot_bank.estimatorStats = result.estimatorStats;
        }
    }

    /**
     * Replay @p batch: step() every conditional record, polling the
     * guard every few thousand records so a hung or cancelled pass
     * unwinds from inside the shard. Any change here must keep
     * tests/integration/sweep_differential_test.cc green.
     */
    void
    replay(const RecordBatch &batch, const ReplayGuard &guard)
    {
        constexpr std::uint64_t kGuardStride = 4096;
        const bool guarded = guard.active();
        Registers regs = registers;
        try {
            for (const BranchRecord &record : batch) {
                if (guarded && (++guardTick % kGuardStride) == 0)
                    guard.checkNow(regs.simulated);
                if (record.isConditional())
                    step(record, regs);
            }
        } catch (...) {
            registers = regs;
            throw;
        }
        registers = regs;
    }

    /**
     * Simulate one conditional branch in the paper's order (Section
     * 1.2): one observe() per estimator reads its bucket with the
     * context from before this branch and trains it on whether the
     * prediction was correct, then the predictor and the BHR/GCIR
     * train on the outcome. A kSkip plan region fast-forwards: only
     * the branch cursor and the context-switch clock advance, and a
     * kWarmOnly window ahead of each detailed region re-converges the
     * state.
     */
    void
    step(const BranchRecord &record, Registers &regs)
    {
        bool recording = true;
        SweepSlotStats *slot_bank = nullptr;
        if (plan != nullptr) {
            if (planLeft == 0) {
                planSlot = plan->slotForRegion(regs.simulated /
                                               plan->regionBranches);
                planLeft = plan->regionBranches;
            }
            --planLeft;
            if (planSlot == SweepRecordingPlan::kSkip) {
                tick(regs);
                return;
            }
            recording = planSlot != SweepRecordingPlan::kWarmOnly;
            if (recording)
                slot_bank = &result.slotStats[planSlot];
        }

        ctx.pc = record.pc;
        ctx.bhr = regs.bhr.value();
        ctx.gcir = regs.gcir.value();
        const bool correct = predictor->predict(record.pc) == record.taken;

        if (recording) {
            ++regs.branches;
            if (!correct)
                ++regs.mispredicts;
            if (slot_bank != nullptr) {
                ++slot_bank->branches;
                if (!correct)
                    ++slot_bank->mispredicts;
            }
        }
        for (std::size_t i = 0; i < estimators.size(); ++i) {
            const std::uint64_t bucket =
                estimators[i]->observe(ctx, correct, record.taken);
            if (recording) {
                result.estimatorStats[i].record(bucket, !correct);
                if (slot_bank != nullptr)
                    slot_bank->estimatorStats[i].record(bucket, !correct);
                if (profile != nullptr)
                    profile->onBucket(i, bucket, correct);
            }
        }
        if (recording && options.profileStatic)
            result.staticProfile.record(record.pc, !correct, record.taken);
        if (recording && profile != nullptr)
            profile->onBranch(record.pc, !correct);

        predictor->update(record.pc, record.taken);
        regs.bhr.recordOutcome(record.taken);
        regs.gcir.shiftIn(!correct);
        tick(regs);
    }

    /**
     * Count one simulated branch and model a context switch every
     * contextSwitchInterval branches (Section 5.4): the predictor, the
     * estimators, and the BHR/GCIR restart from power-on. Accumulated
     * statistics are never cleared.
     */
    void
    tick(Registers &regs)
    {
        ++regs.simulated;
        if (options.contextSwitchInterval == 0 || --regs.untilSwitch != 0)
            return;
        regs.untilSwitch = options.contextSwitchInterval;
        predictor->reset();
        for (auto *estimator : estimators)
            estimator->reset();
        regs.bhr.reset();
        regs.gcir.clear();
        ++result.contextSwitches;
    }

    /** Registers and counters: the cfgN:meta entry. */
    void
    saveState(StateWriter &out) const
    {
        out.putString(result.label);
        out.putU64(estimators.size());
        out.putU64(registers.simulated);
        out.putU64(registers.untilSwitch);
        out.putU64(registers.bhr.value());
        out.putU64(registers.gcir.value());
        out.putU64(registers.branches);
        out.putU64(registers.mispredicts);
        out.putU64(result.contextSwitches);
    }

    void
    loadState(StateReader &in)
    {
        const std::string label = in.getString();
        if (label != result.label) {
            fatal(ErrorCategory::kCheckpoint, "checkpoint config is '" +
                  label + "', expected '" + result.label + "'");
        }
        in.expectU64(estimators.size(), "checkpoint estimator count");
        registers.simulated = in.getU64();
        registers.untilSwitch = in.getU64();
        registers.bhr.setValue(in.getU64());
        registers.gcir.set(in.getU64());
        registers.branches = in.getU64();
        registers.mispredicts = in.getU64();
        result.contextSwitches = in.getU64();
    }

    /**
     * Call @p visit(name, version, part) for every checkpointed part
     * of this configuration, named under @p prefix: the one layout
     * that save() writes and restore() reads back.
     */
    template <typename Visit>
    void
    forEachPart(const std::string &prefix, Visit &&visit)
    {
        visit(prefix + "meta", kLayoutVersion, *this);
        visit(prefix + "predictor:" + predictor->name(),
              predictor->stateVersion(), *predictor);
        for (std::size_t i = 0; i < estimators.size(); ++i) {
            const std::string index = std::to_string(i);
            visit(prefix + "estimator" + index + ":" +
                      estimators[i]->name(),
                  estimators[i]->stateVersion(), *estimators[i]);
            visit(prefix + "stats" + index, 1u, result.estimatorStats[i]);
        }
        if (options.profileStatic)
            visit(prefix + "static_profile", 1u, result.staticProfile);
    }

    void
    save(Checkpoint &ckpt, const std::string &prefix)
    {
        forEachPart(prefix, [&](const std::string &name,
                                std::uint32_t version, auto &part) {
            ckpt.addState(name, version, part);
        });
    }

    /** Restore everything save() wrote; fatal() on any mismatch. */
    void
    restore(const Checkpoint &ckpt, const std::string &prefix)
    {
        forEachPart(prefix, [&](const std::string &name,
                                std::uint32_t version, auto &part) {
            ckpt.restoreState(name, version, part);
        });
    }
};

} // namespace

/** The engine's opaque per-configuration state (sweep_engine.h). */
struct SweepEngine::ConfigState : ReplayState
{
    using ReplayState::ReplayState;
};

SweepWorkerPool::SweepWorkerPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this] { workerMain(); });
}

SweepWorkerPool::~SweepWorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    cvWork_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
SweepWorkerPool::runAll(std::vector<std::function<void()>> tasks,
                        const CancellationToken *cancel)
{
    if (tasks.empty())
        return;
    if (threads_.empty()) {
        for (auto &task : tasks) {
            if (cancel != nullptr)
                cancel->throwIfCancelled("sweep task group");
            task();
        }
        return;
    }
    WaitGroup group;
    group.remaining = tasks.size();
    group.cancel = cancel;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (auto &task : tasks)
            queue_.push_back(Task{std::move(task), &group});
    }
    cvWork_.notify_all();
    std::unique_lock<std::mutex> lock(group.mu);
    group.cv.wait(lock, [&group] { return group.remaining == 0; });
    if (group.error)
        std::rethrow_exception(group.error);
}

RunningStats
SweepWorkerPool::occupancyStats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return occupancy_;
}

unsigned
SweepWorkerPool::busyNow() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return busy_;
}

void
SweepWorkerPool::workerMain()
{
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        cvWork_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
        if (stop_)
            return;
        Task task = std::move(queue_.front());
        queue_.pop_front();
        ++busy_;
        occupancy_.add(static_cast<double>(busy_));
        lock.unlock();

        std::exception_ptr raised;
        try {
            // Skip tasks whose group was cancelled while they sat in
            // the queue; running tasks unwind via their own checks.
            if (task.group->cancel != nullptr)
                task.group->cancel->throwIfCancelled("sweep task group");
            task.fn();
        } catch (...) {
            raised = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> done(task.group->mu);
            if (raised && !task.group->error)
                task.group->error = raised;
            if (--task.group->remaining == 0)
                task.group->cv.notify_all();
        }

        lock.lock();
        --busy_;
    }
}

namespace {

/**
 * Decode-ahead batch ring. A producer thread refills slots from the
 * TraceSource while the consumer (the engine's broadcast loop) drains
 * them in order, so replay never waits on decode unless the ring runs
 * dry. At depth 1 there is no producer thread: next() refills the one
 * slot synchronously, through the same fill() code.
 *
 * fill() owns the shared cursors (records consumed, branches
 * simulated) and the checkpoint cadence — the first batch boundary at
 * or after each multiple of the period — so checkpoints land on the
 * same batch boundaries at any depth. A slot that crosses a
 * checkpoint multiple is flagged checkpointDue and the producer
 * *blocks before touching the source again* until the consumer has
 * written the checkpoint — the source is therefore quiescent and
 * positioned exactly at the checkpointed record when it is
 * serialized (or when its watermark is recorded), which is what makes
 * pipelined checkpoint/resume bit-exact.
 *
 * A decode error is published in order as an error slot: the consumer
 * replays every batch decoded before it, then rethrows.
 */
class DecodeAheadRing
{
  public:
    struct Slot
    {
        RecordBatch batch;
        std::uint64_t consumedAfter = 0;
        std::uint64_t simulatedAfter = 0;
        bool checkpointDue = false;
        std::exception_ptr error;
    };

    DecodeAheadRing(TraceSource &source, std::size_t depth,
                    std::size_t batch_size, std::uint64_t consumed,
                    std::uint64_t simulated, std::uint64_t ckpt_every,
                    std::string scope,
                    const CancellationToken *cancel,
                    SpanTracer *spans)
        : source_(source), ckptEvery_(ckpt_every), scope_(std::move(scope)),
          cancel_(cancel), spans_(spans), consumed_(consumed),
          simulated_(simulated)
    {
        nextCkpt_ = ckptEvery_ == 0
                        ? 0
                        : (simulated_ / ckptEvery_ + 1) * ckptEvery_;
        slots_.reserve(depth);
        for (std::size_t i = 0; i < depth; ++i) {
            Slot slot;
            slot.batch = RecordBatch(batch_size);
            slots_.push_back(std::move(slot));
        }
        if (depth >= 2)
            producer_ = std::thread([this] { producerMain(); });
    }

    ~DecodeAheadRing()
    {
        if (!producer_.joinable())
            return;
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
        }
        cvFree_.notify_all();
        cvFilled_.notify_all();
        cvCkpt_.notify_all();
        producer_.join();
    }

    /**
     * @return the next filled slot in decode order, or nullptr at end
     * of stream. Blocks while the ring is empty; rethrows a producer
     * decode error at its in-order position.
     */
    Slot *
    next()
    {
        if (!producer_.joinable()) {
            Slot &slot = slots_.front();
            if (!fill(slot))
                return nullptr;
            if (slot.error)
                std::rethrow_exception(slot.error);
            return &slot;
        }
        std::unique_lock<std::mutex> lock(mu_);
        cvFilled_.wait(lock,
                       [this] { return filled_ != 0 || done_; });
        if (filled_ == 0)
            return nullptr;
        Slot &slot = slots_[tail_ % slots_.size()];
        if (slot.error)
            std::rethrow_exception(slot.error);
        return &slot;
    }

    /**
     * Return the slot obtained from next() to the free list. If it
     * was checkpointDue the caller must have written the checkpoint;
     * this unblocks the producer.
     */
    void
    release(Slot &slot)
    {
        if (!producer_.joinable())
            return;
        bool due = false;
        {
            std::lock_guard<std::mutex> lock(mu_);
            // The producer may reuse the slot the moment it is freed,
            // so read its flag before publishing the free slot.
            due = slot.checkpointDue;
            ++tail_;
            --filled_;
            if (due)
                ckptPending_ = false;
        }
        cvFree_.notify_one();
        if (due)
            cvCkpt_.notify_one();
    }

    /** @return producer time spent parked at checkpoint barriers. */
    RunningStats
    barrierWaitStats()
    {
        std::lock_guard<std::mutex> lock(mu_);
        return barrierWaitNs_;
    }

  private:
    /**
     * Decode the next batch into @p slot and advance the cursors.
     * Cancellation and injected decode faults become in-order error
     * slots. @return false at end of stream.
     */
    bool
    fill(Slot &slot)
    {
        slot.checkpointDue = false;
        slot.error = nullptr;
        std::size_t got = 0;
        try {
            ScopedSpan refill_span(spans_, "decode.refill");
            if (cancel_ != nullptr)
                cancel_->throwIfCancelled("sweep decode");
            FaultInjector &injector = FaultInjector::instance();
            if (injector.armed())
                injector.fire(FaultSite::kDecodeBatch, scope_);
            got = slot.batch.refill(source_);
        } catch (...) {
            slot.error = std::current_exception();
            slot.batch.clear();
            return true;
        }
        if (got == 0)
            return false;
        consumed_ += slot.batch.size();
        simulated_ += slot.batch.conditionals();
        slot.consumedAfter = consumed_;
        slot.simulatedAfter = simulated_;
        if (ckptEvery_ != 0 && simulated_ >= nextCkpt_) {
            slot.checkpointDue = true;
            nextCkpt_ = (simulated_ / ckptEvery_ + 1) * ckptEvery_;
        }
        return true;
    }

    void
    producerMain()
    {
        if (spans_ != nullptr)
            spans_->setCurrentThreadName("decode-producer");
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cvFree_.wait(lock, [this] {
                    return stop_ || filled_ != slots_.size();
                });
                if (stop_)
                    return;
            }
            // Only this thread touches head_ and the slot until it is
            // published under the mutex below.
            Slot &slot = slots_[head_ % slots_.size()];
            if (!fill(slot)) {
                std::lock_guard<std::mutex> lock(mu_);
                done_ = true;
                cvFilled_.notify_all();
                return;
            }
            const bool due = slot.checkpointDue;

            std::unique_lock<std::mutex> lock(mu_);
            ++head_;
            ++filled_;
            if (due)
                ckptPending_ = true;
            if (spans_ != nullptr) {
                spans_->counter(
                    "decode_ring.filled",
                    static_cast<std::uint64_t>(filled_));
            }
            cvFilled_.notify_one();
            if (slot.error) {
                // Nothing after an error can be decoded coherently;
                // park until destruction.
                done_ = true;
                return;
            }
            if (due) {
                // Pipeline barrier: the source must stay untouched at
                // exactly `consumed_` records until the checkpoint
                // containing it has been written.
                ScopedSpan barrier_span(spans_,
                                        "decode.barrier_wait");
                const std::chrono::steady_clock::time_point b0 =
                    std::chrono::steady_clock::now();
                cvCkpt_.wait(lock, [this] {
                    return stop_ || !ckptPending_;
                });
                barrierWaitNs_.add(
                    std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - b0)
                        .count());
                if (stop_)
                    return;
            }
        }
    }

    TraceSource &source_;
    const std::uint64_t ckptEvery_;
    const std::string scope_;
    const CancellationToken *const cancel_;
    SpanTracer *const spans_;
    std::uint64_t consumed_;
    std::uint64_t simulated_;
    std::uint64_t nextCkpt_ = 0;
    RunningStats barrierWaitNs_; //!< guarded by mu_

    std::vector<Slot> slots_;
    std::thread producer_;

    std::mutex mu_;
    std::condition_variable cvFilled_, cvFree_, cvCkpt_;
    std::size_t head_ = 0;   //!< slots produced
    std::size_t tail_ = 0;   //!< slots released
    std::size_t filled_ = 0; //!< produced, not yet released
    bool ckptPending_ = false;
    bool done_ = false;
    bool stop_ = false;
};

} // namespace

bool
sequentialForced()
{
    return std::getenv("CONFSIM_SEQUENTIAL") != nullptr;
}

unsigned
resolveSweepWorkers(unsigned requested)
{
    if (sequentialForced())
        return 1;
    const unsigned workers =
        requested != 0 ? requested : std::thread::hardware_concurrency();
    return std::max(1u, workers);
}

SweepEngine::SweepEngine(std::vector<SweepConfiguration> configs,
                         DriverOptions driver, SweepOptions sweep)
    : configs_(std::move(configs)), driver_(driver), sweep_(sweep)
{
    if (configs_.empty())
        fatal(ErrorCategory::kConfig, "SweepEngine needs at least one configuration");
    for (const auto &config : configs_) {
        if (!config.makePredictor || !config.makeEstimators) {
            fatal(ErrorCategory::kConfig, "sweep configuration '" + config.label +
                  "' is missing a factory");
        }
    }
}

SweepEngine::SweepEngine(BranchPredictor &predictor,
                         std::vector<ConfidenceEstimator *> estimators,
                         DriverOptions driver, SweepOptions sweep)
    : configs_{SweepConfiguration{predictor.name(), {}, {}}},
      driver_(driver), sweep_(sweep), borrowedPredictor_(&predictor),
      borrowedEstimators_(std::move(estimators))
{}

SweepEngine::~SweepEngine() = default;

void
SweepEngine::checkpointEvery(std::uint64_t n_branches,
                             CheckpointStore *store)
{
    if (n_branches != 0 && store == nullptr)
        fatal(ErrorCategory::kConfig, "checkpointEvery: a period needs a CheckpointStore");
    // Caller-owned components are known already: refuse unauditable
    // ones now rather than at run() time.
    if ((n_branches != 0 || store != nullptr) &&
        borrowedPredictor_ != nullptr)
        requireCheckpointable(*borrowedPredictor_, borrowedEstimators_);
    ckptEvery_ = n_branches;
    ckptStore_ = store;
}

SweepRunResult
SweepEngine::run(TraceSource &source)
{
    return runImpl(source, nullptr);
}

SweepRunResult
SweepEngine::resume(TraceSource &source, const Checkpoint &from)
{
    return runImpl(source, &from);
}

void
SweepEngine::writeCheckpoint(TraceSource &source,
                             SweepRunResult &result,
                             std::uint64_t consumed,
                             std::uint64_t simulated)
{
    ScopedSpan span(driver_.spans, "ckpt.write");
    Checkpoint ckpt;
    ckpt.label = driver_.telemetryLabel;
    ckpt.watermark = consumed;
    ckpt.branches = simulated;
    ckpt.addState("sweep:meta", kLayoutVersion,
                  PassShape::of(driver_, configs_.size()));
    for (std::size_t c = 0; c < states_.size(); ++c)
        states_[c]->save(ckpt, cfgPrefix(c));
    if (source.checkpointable())
        ckpt.addComponent("source", source);

    // A failed periodic write (ENOSPC, failed fsync, injected fault)
    // loses checkpoint freshness, not the pass: the atomic writer
    // never publishes a partial file, so the previous generation
    // remains loadable and resumable. Cancellation still propagates.
    try {
        ckptStore_->write(ckpt);
    } catch (const std::exception &e) {
        if (categoryOf(e) == ErrorCategory::kCancelled)
            throw;
        if (driver_.telemetry != nullptr) {
            driver_.telemetry->registry().increment("ckpt.write_failed");
            driver_.telemetry->emit(TelemetryEvent(
                events::kCheckpointWriteFailed,
                {field("benchmark", driver_.telemetryLabel),
                 field("at_branch", ckpt.branches),
                 field("error", std::string(e.what()))}));
        }
        return;
    }
    ++result.checkpointsWritten;
}

SweepRunResult
SweepEngine::runImpl(TraceSource &source,
                     const Checkpoint *resume_from)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point run_start = Clock::now();

    SweepRunResult result;

    const SweepRecordingPlan *const plan = sweep_.recordingPlan;
    if (plan != nullptr) {
        if (plan->regionBranches == 0) {
            fatal(ErrorCategory::kConfig,
                  "recording plan needs regionBranches > 0");
        }
        for (const std::uint32_t slot : plan->regionSlots) {
            if (slot >= plan->numSlots &&
                slot != SweepRecordingPlan::kWarmOnly &&
                slot != SweepRecordingPlan::kSkip) {
                fatal(ErrorCategory::kConfig,
                      "recording plan slot " + std::to_string(slot) +
                          " is out of range (numSlots " +
                          std::to_string(plan->numSlots) + ")");
            }
        }
        if (ckptEvery_ != 0 || resume_from != nullptr) {
            fatal(ErrorCategory::kConfig,
                  "a recording plan composes with neither "
                  "checkpointing nor resume: a partially recorded "
                  "plan cannot be audited for bit-exact restoration");
        }
    }

    // Build every configuration's private state: fresh components from
    // its factories, or the caller's own components when borrowed.
    states_.clear();
    states_.reserve(configs_.size());
    for (const auto &config : configs_) {
        auto state = std::make_unique<ConfigState>(driver_, config.label);
        if (borrowedPredictor_ != nullptr) {
            state->predictor = borrowedPredictor_;
            state->estimators = borrowedEstimators_;
        } else {
            state->ownedPredictor = config.makePredictor();
            if (state->ownedPredictor == nullptr) {
                fatal(ErrorCategory::kConfig, "sweep configuration '" +
                      config.label + "' produced a null predictor");
            }
            state->predictor = state->ownedPredictor.get();
            state->ownedEstimators = config.makeEstimators();
            for (const auto &estimator : state->ownedEstimators)
                state->estimators.push_back(estimator.get());
        }
        // Native estimators grade their configuration's predictor by
        // reading it; a pairing they cannot grade fails here as kConfig.
        for (auto *estimator : state->estimators)
            estimator->pairWith(*state->predictor);
        if (ckptEvery_ != 0)
            requireCheckpointable(*state->predictor, state->estimators);
        state->attach(plan);
        states_.push_back(std::move(state));
    }

    std::uint64_t simulated = 0; // conditional branches, shared cursor
    std::uint64_t consumed = 0;  // all records, shared cursor

    if (resume_from != nullptr) {
        PassShape shape = PassShape::of(driver_, configs_.size());
        resume_from->restoreState("sweep:meta", kLayoutVersion, shape);
        for (std::size_t c = 0; c < states_.size(); ++c)
            states_[c]->restore(*resume_from, cfgPrefix(c));

        simulated = resume_from->branches;
        consumed = resume_from->watermark;
        if (resume_from->find("source") != nullptr) {
            resume_from->restoreComponent("source", source);
        } else {
            // The source saved no position (not checkpointable), so it
            // must be a fresh deterministic stream: replay and discard
            // records up to the watermark.
            BranchRecord skipped;
            for (std::uint64_t i = 0; i < consumed; ++i) {
                if (!source.next(skipped)) {
                    fatal(ErrorCategory::kTrace, "trace ended after " + std::to_string(i) +
                          " record(s), before the resume watermark " +
                          std::to_string(consumed));
                }
            }
        }
    }

    // Parallelism: a shared pool (if provided) or an engine-owned one.
    // Either way shards never exceed the configuration count — a batch
    // is split into min(workers, configs) groups of configs.
    // A lone engine can't use more workers than it has configurations
    // (per-config replay is serial by the bit-exactness contract);
    // SuiteRunner::runSweep recovers surplus cores by pipelining
    // benchmarks on a shared, globally sized pool.
    SweepWorkerPool *pool = sweep_.pool;
    std::unique_ptr<SweepWorkerPool> owned_pool;
    if (pool == nullptr) {
        const std::size_t threads = std::min<std::size_t>(
            resolveSweepWorkers(sweep_.threads), configs_.size());
        if (threads > 1) {
            owned_pool = std::make_unique<SweepWorkerPool>(
                static_cast<unsigned>(threads));
            pool = owned_pool.get();
        }
    }
    const std::size_t shard_count =
        pool == nullptr
            ? 1
            : std::max<std::size_t>(
                  1, std::min<std::size_t>(pool->workers(),
                                           states_.size()));
    std::size_t decode_ahead = sweep_.decodeAhead == 0
                                   ? SweepOptions::kDefaultDecodeAhead
                                   : sweep_.decodeAhead;
    if (sequentialForced())
        decode_ahead = 1;

    Telemetry *const telemetry = driver_.telemetry;
    if (telemetry != nullptr) {
        telemetry->emit(TelemetryEvent(
            events::kSweepRunStarted,
            {field("benchmark", driver_.telemetryLabel),
             field("configs",
                   static_cast<std::uint64_t>(configs_.size())),
             field("threads",
                   static_cast<std::uint64_t>(shard_count)),
             field("batch_size",
                   static_cast<std::uint64_t>(sweep_.batchSize)),
             field("decode_ahead",
                   static_cast<std::uint64_t>(decode_ahead)),
             field("resumed", resume_from != nullptr)}));
    }

    // One guard for the whole pass: the consumer loop checks it at
    // batch granularity, worker shards at record granularity, and the
    // producer before every refill — so watchdog expiry or a cancel()
    // unwinds the pipeline from whichever stage notices first.
    ReplayGuard guard;
    guard.cancel = driver_.cancel;
    guard.limitMs = driver_.wallClockLimitMs;
    guard.hasDeadline = driver_.wallClockLimitMs != 0;
    if (guard.hasDeadline) {
        guard.deadline = Clock::now() + std::chrono::milliseconds(
                                            driver_.wallClockLimitMs);
    }

    RunningStats batch_ns;
    RunningStats stall_ns;

    const bool isolate = sweep_.isolateConfigFailures;
    std::atomic<bool> config_failed{false};

    // Shard-level fault isolation: a configuration whose replay (or
    // injected fault) throws a retryable/internal error is marked
    // failed and skipped from then on; the remaining configurations
    // never see a perturbed replay order, so their results stay
    // bit-exact. Timeouts and cancellation always fail the pass.
    const auto replayConfig = [&](std::size_t c,
                                  const RecordBatch &batch) {
        ConfigState &state = *states_[c];
        if (state.result.failed())
            return;
        try {
            FaultInjector &injector = FaultInjector::instance();
            if (injector.armed() &&
                injector.fire(FaultSite::kShardReplay,
                              driver_.telemetryLabel,
                              c) == FaultAction::kHang) {
                guard.park();
            }
            state.replay(batch, guard);
        } catch (const std::exception &e) {
            const ErrorCategory category = categoryOf(e);
            if (!isolate || category == ErrorCategory::kTimeout ||
                category == ErrorCategory::kCancelled) {
                throw;
            }
            state.result.error = e.what();
            config_failed.store(true, std::memory_order_relaxed);
            if (driver_.telemetry != nullptr) {
                driver_.telemetry->registry().increment(
                    "sweep.config_failed");
                driver_.telemetry->emit(TelemetryEvent(
                    events::kSweepConfigFailed,
                    {field("benchmark", driver_.telemetryLabel),
                     field("config", configs_[c].label),
                     field("at_branch", state.registers.simulated),
                     field("category", std::string(toString(category))),
                     field("error", std::string(e.what()))}));
            }
        }
    };

    // One task per shard per batch. runAll blocks until every shard
    // finishes, so the states are quiescent between batches (which
    // keeps batch-boundary checkpoints race-free) regardless of who
    // owns the pool. Each shard adds its replay time to its own slot
    // of shard_busy_ns; the sum against wall x shards is the
    // pipeline-occupancy headline.
    //
    // The first batch runs contiguous config ranges and times every
    // config; from the second batch on the configs are assigned to
    // shards longest-processing-time first by those costs, so the
    // expensive families spread across shards. A config replays on one
    // shard at a time either way, so assignment never changes results.
    SpanTracer *const spans = driver_.spans;
    std::vector<std::uint64_t> shard_busy_ns(shard_count, 0);
    std::vector<std::vector<std::size_t>> shard_configs(shard_count);
    for (std::size_t s = 0; s < shard_count; ++s) {
        for (std::size_t c = states_.size() * s / shard_count;
             c < states_.size() * (s + 1) / shard_count; ++c)
            shard_configs[s].push_back(c);
    }
    std::vector<std::uint64_t> config_ns; // first batch only
    if (shard_count > 1)
        config_ns.assign(states_.size(), 0);
    const auto replayShard = [&](std::size_t s,
                                 const RecordBatch &batch) {
        const Clock::time_point s0 = Clock::now();
        {
            ScopedSpan replay_span(spans, "shard.replay");
            for (const std::size_t c : shard_configs[s]) {
                if (config_ns.empty()) {
                    replayConfig(c, batch);
                    continue;
                }
                const Clock::time_point c0 = Clock::now();
                replayConfig(c, batch);
                config_ns[c] = static_cast<std::uint64_t>(nsSince(c0));
            }
        }
        shard_busy_ns[s] += static_cast<std::uint64_t>(nsSince(s0));
    };
    const auto broadcast = [&](const RecordBatch &batch) {
        const Clock::time_point t0 = Clock::now();
        if (pool == nullptr || shard_count <= 1) {
            replayShard(0, batch);
        } else {
            std::vector<std::function<void()>> tasks;
            for (std::size_t s = 0; s < shard_count; ++s) {
                tasks.push_back([&, s] {
                    if (spans != nullptr) {
                        spans->setCurrentThreadName("sweep-worker");
                        spans->counter("sweep.pool_occupancy",
                                       static_cast<std::uint64_t>(
                                           pool->busyNow()));
                    }
                    replayShard(s, batch);
                });
            }
            pool->runAll(std::move(tasks), guard.cancel);
            if (!config_ns.empty()) {
                shard_configs = lptShards(config_ns, shard_count);
                config_ns.clear();
            }
        }
        batch_ns.add(nsSince(t0));
        ++result.batches;
    };
    // The ring (synchronous at depth 1) owns cursor bookkeeping and
    // flags checkpoint boundaries (see DecodeAheadRing).
    RunningStats barrier_wait_ns;
    {
        DecodeAheadRing ring(source, decode_ahead, sweep_.batchSize,
                             consumed, simulated, ckptEvery_,
                             driver_.telemetryLabel, guard.cancel,
                             spans);
        for (;;) {
            const Clock::time_point w0 = Clock::now();
            DecodeAheadRing::Slot *slot = ring.next();
            stall_ns.add(nsSince(w0));
            if (slot == nullptr)
                break;
            broadcast(slot->batch);
            consumed = slot->consumedAfter;
            simulated = slot->simulatedAfter;
            guard.checkNow(consumed);
            // Once any configuration has failed, later checkpoints
            // would freeze a mixed-health pass; skip them so every
            // published generation snapshots a fully healthy pass and
            // resuming any of them is bit-exact. The slot is released
            // either way, to unblock the producer's barrier.
            if (slot->checkpointDue &&
                !config_failed.load(std::memory_order_relaxed))
                writeCheckpoint(source, result, consumed, simulated);
            ring.release(*slot);
        }
        barrier_wait_ns = ring.barrierWaitStats();
    }

    // Harvest the engine-owned pool's occupancy before retiring it;
    // a shared pool's occupancy is reported by its owner instead.
    RunningStats owned_occupancy;
    if (owned_pool != nullptr)
        owned_occupancy = owned_pool->occupancyStats();
    owned_pool.reset();

    result.records = consumed;
    result.branches = simulated;
    // The states themselves (predictors, estimators, history
    // replicas) stay alive until the next run() or destruction, so
    // callers holding component pointers from the factories can still
    // inspect or serialize the final trained state.
    result.perConfig.reserve(states_.size());
    for (auto &state : states_) {
        state->result.branches = state->registers.branches;
        state->result.mispredicts = state->registers.mispredicts;
        result.perConfig.push_back(std::move(state->result));
    }

    const auto totalMs = [](const RunningStats &ns) {
        return ns.mean() * static_cast<double>(ns.count()) * 1e-6;
    };
    result.wallMs = nsSince(run_start) * 1e-6;
    result.decodeStallMs = totalMs(stall_ns);
    result.barrierWaitMs = totalMs(barrier_wait_ns);
    std::uint64_t busy_total_ns = 0;
    for (const std::uint64_t ns : shard_busy_ns)
        busy_total_ns += ns;
    const double wall_ns = result.wallMs * 1e6;
    result.shardBusyFrac =
        wall_ns <= 0.0
            ? 0.0
            : static_cast<double>(busy_total_ns) /
                  (wall_ns * static_cast<double>(shard_count));

    if (telemetry != nullptr) {
        for (const auto &config : result.perConfig) {
            if (config.failed())
                continue; // its sweep_config_failed event already fired
            telemetry->emit(TelemetryEvent(
                events::kSweepConfigFinished,
                {field("benchmark", driver_.telemetryLabel),
                 field("config", config.label),
                 field("branches", config.branches),
                 field("mispredicts", config.mispredicts),
                 field("mispredict_rate", config.mispredictRate()),
                 field("context_switches", config.contextSwitches)}));
        }

        const std::uint64_t branch_updates =
            simulated * result.perConfig.size();
        const double ns_per_update =
            branch_updates == 0 ? 0.0
                                : result.wallMs * 1e6 /
                                      static_cast<double>(
                                          branch_updates);
        telemetry->emit(TelemetryEvent(
            events::kSweepRunFinished,
            {field("benchmark", driver_.telemetryLabel),
             field("configs",
                   static_cast<std::uint64_t>(
                       result.perConfig.size())),
             field("threads",
                   static_cast<std::uint64_t>(shard_count)),
             field("records", result.records),
             field("branches", result.branches),
             field("batches", result.batches),
             field("wall_ms", result.wallMs),
             field("decode_stall_ms", result.decodeStallMs),
             field("shard_busy_frac", result.shardBusyFrac),
             field("barrier_wait_ms", result.barrierWaitMs),
             field("ns_per_branch_update", ns_per_update),
             field("checkpoints_written",
                   result.checkpointsWritten)}));

        MetricsRegistry &registry = telemetry->registry();
        registry.increment("sweep.runs");
        registry.increment("sweep.records", result.records);
        registry.increment("sweep.branches", result.branches);
        registry.increment("sweep.batches", result.batches);
        registry.observe("sweep.configs_per_pass",
                         static_cast<double>(result.perConfig.size()));
        registry.observe("sweep.wall_ms", result.wallMs);
        registry.mergeStats("sweep.batch_ns", batch_ns);
        registry.mergeStats("sweep.decode_stall_ns", stall_ns);
        registry.setGauge("sweep.shard_busy_frac",
                          result.shardBusyFrac);
        if (barrier_wait_ns.count() != 0) {
            registry.mergeStats("sweep.barrier_wait_ns",
                                barrier_wait_ns);
        }
        if (owned_occupancy.count() != 0) {
            registry.mergeStats("sweep.pool_occupancy",
                                owned_occupancy);
        }
    }

    return result;
}

} // namespace confsim
