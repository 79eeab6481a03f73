/**
 * @file
 * Backend decorator that times every call a scrub policy makes into
 * the device layer, in the style of RecordingBackend: all semantics
 * are delegated to the inner backend, including its shard plan, so
 * the policy parallelises exactly as it would unwrapped and every
 * simulated statistic is unchanged.
 *
 * Counters live in one cache-line-aligned slot per shard. The
 * ScrubBackend contract serialises all operations within a shard, so
 * a slot is only ever written by the worker running that shard and
 * needs no atomics; the event loop reads the slots between wakes, after
 * ThreadPool::run() has joined the shard tasks.
 */

#ifndef PERFBENCH_TIMING_BACKEND_HH
#define PERFBENCH_TIMING_BACKEND_HH

#include <array>
#include <chrono>
#include <ctime>
#include <cstdint>
#include <thread>
#include <vector>

#include "scrub/policy.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU time consumed so far by every thread of this process. The guest
 * kernel leaves out time its virtual CPUs were stolen by the host, so
 * on a shared VM this is far steadier than wall time.
 */
inline double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
        1e-9 * static_cast<double>(ts.tv_nsec);
}

/** Host time of one stretch of work: wall clock and process CPU. */
struct HostTime
{
    double wallS = 0.0;
    double cpuS = 0.0;

    HostTime &operator+=(const HostTime &other)
    {
        wallS += other.wallS;
        cpuS += other.cpuS;
        return *this;
    }
};

/** Starts timing on construction; elapsed() reads both clocks. */
class Stopwatch
{
  public:
    Stopwatch() : wall_(Clock::now()), cpu_(processCpuSeconds()) {}

    HostTime elapsed() const
    {
        return HostTime{secondsSince(wall_), processCpuSeconds() - cpu_};
    }

  private:
    Clock::time_point wall_;
    double cpu_;
};

/** Device-layer operations, as named in the benchmark output. */
enum class Op : unsigned {
    LightDetect,
    EccCheck,
    FullDecode,
    Rewrite,
    Repair,
    MarginScan,
    LastFullWrite,
    Visit,
    DemandWrite, //!< CellBackend::demandWrite, issued by the event loop.
    Count,
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::Count);

/** Output name of an operation. */
const char *opName(Op op);

/** Calls into one operation and the host time they took. */
struct OpTally
{
    std::uint64_t calls = 0;
    double busyS = 0.0;

    /** Gate calls that reported the line clean (detect / check). */
    std::uint64_t clean = 0;

    /** Full decodes whose failure the degradation ladder handled. */
    std::uint64_t ladderCalls = 0;
    double ladderBusyS = 0.0;

    void add(const OpTally &other)
    {
        calls += other.calls;
        busyS += other.busyS;
        clean += other.clean;
        ladderCalls += other.ladderCalls;
        ladderBusyS += other.ladderBusyS;
    }
};

/** Whole-run view of the device layer and the wakes that drove it. */
struct LayerProfile
{
    std::array<OpTally, kOpCount> ops{};

    /** Host time inside ScrubPolicy::wake, summed over wakes. */
    double wakeS = 0.0;

    /**
     * Wake time not covered by device calls on the busiest worker of
     * each wake: the policy layer's own work (horizon search, region
     * scheduling, shard dispatch) on the wake's critical path. At one
     * thread this is exactly wakeS minus every op's busy time.
     */
    double selfS = 0.0;

    /** Per-wake host durations, in wake order. */
    std::vector<double> wakeDurationsS;

    /** Lines visited by each wake, in wake order. */
    std::vector<std::uint64_t> wakeVisits;

    /** Visits of a line that already had one at the same tick. */
    std::uint64_t repeatVisits = 0;

    /** Sum over wakes of (shards with device calls / shards). */
    double activeShardShareSum = 0.0;

    /**
     * Sums over wakes of each wake's device busy time and of that
     * time multiplied by the wake's slowest-shard / mean-active-shard
     * busy ratio (a busy-weighted mean of the ratio).
     */
    double imbalanceWeight = 0.0;
    double imbalanceWeighted = 0.0;
};

/**
 * Pass-through ScrubBackend that times each operation per shard.
 */
class TimingBackend : public pcmscrub::ScrubBackend
{
  public:
    using LineIndex = pcmscrub::LineIndex;
    using Tick = pcmscrub::Tick;

    /** Wrap an inner backend (not owned; must outlive this). */
    explicit TimingBackend(pcmscrub::ScrubBackend &inner)
        : inner_(inner),
          plan_(inner.shardPlan()),
          slots_(plan_.count()),
          lastVisit_(inner.lineCount(), ~Tick{0})
    {
    }

    /** Time one policy wake; runs on the event-loop thread. */
    void wake(pcmscrub::ScrubPolicy &policy, Tick now,
              LayerProfile &profile);

    /** Add the time of one event-loop demand write to its shard. */
    void noteDemandWrite(LineIndex line, Clock::time_point start)
    {
        record(Op::DemandWrite, line, start);
    }

    /** Add every shard's tallies into `profile.ops`. */
    void collect(LayerProfile &profile) const;

    // ScrubBackend interface ---------------------------------------

    std::uint64_t lineCount() const override
    {
        return inner_.lineCount();
    }
    pcmscrub::ShardPlan shardPlan() const override { return plan_; }
    unsigned cellsPerLine() const override
    {
        return inner_.cellsPerLine();
    }
    const pcmscrub::EccScheme &scheme() const override
    {
        return inner_.scheme();
    }
    const pcmscrub::DriftModel &drift() const override
    {
        return inner_.drift();
    }

    Tick lastFullWrite(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        const Tick tick = inner_.lastFullWrite(line, now);
        record(Op::LastFullWrite, line, start);
        return tick;
    }

    bool lightDetectClean(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        const bool clean = inner_.lightDetectClean(line, now);
        record(Op::LightDetect, line, start).clean += clean ? 1 : 0;
        return clean;
    }

    bool eccCheckClean(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        const bool clean = inner_.eccCheckClean(line, now);
        record(Op::EccCheck, line, start).clean += clean ? 1 : 0;
        return clean;
    }

    pcmscrub::FullDecodeOutcome fullDecode(LineIndex line,
                                           Tick now) override
    {
        const Clock::time_point start = Clock::now();
        const pcmscrub::FullDecodeOutcome outcome =
            inner_.fullDecode(line, now);
        const double took = secondsSince(start);
        OpTally &tally = record(Op::FullDecode, line, took);
        if (outcome.handledBy != pcmscrub::DegradationStage::None) {
            ++tally.ladderCalls;
            tally.ladderBusyS += took;
        }
        return outcome;
    }

    unsigned marginScan(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        const unsigned flagged = inner_.marginScan(line, now);
        record(Op::MarginScan, line, start);
        return flagged;
    }

    void scrubRewrite(LineIndex line, Tick now,
                      bool preventive = false) override
    {
        const Clock::time_point start = Clock::now();
        inner_.scrubRewrite(line, now, preventive);
        record(Op::Rewrite, line, start);
    }

    void repairUncorrectable(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        inner_.repairUncorrectable(line, now);
        record(Op::Repair, line, start);
    }

    void noteVisit(LineIndex line, Tick now) override
    {
        const Clock::time_point start = Clock::now();
        inner_.noteVisit(line, now);
        record(Op::Visit, line, start);
        Slot &slot = slots_[plan_.shardOf(line)];
        ++slot.wakeVisits;
        if (lastVisit_[line] == now)
            ++slot.repeatVisits;
        lastVisit_[line] = now;
    }

    void setFaultInjector(pcmscrub::FaultInjector *injector) override
    {
        inner_.setFaultInjector(injector);
    }
    void setTelemetry(pcmscrub::RegionTelemetry *telemetry) override
    {
        inner_.setTelemetry(telemetry);
    }
    const pcmscrub::SparePool *spares() const override
    {
        return inner_.spares();
    }
    pcmscrub::PprRemapTable *ppr() override { return inner_.ppr(); }

    const pcmscrub::ScrubMetrics &metrics() const override
    {
        return inner_.metrics();
    }
    pcmscrub::ScrubMetrics &metrics() override
    {
        return inner_.metrics();
    }

    void checkpointSave(pcmscrub::SnapshotSink &sink) const override
    {
        inner_.checkpointSave(sink);
    }
    void checkpointLoad(pcmscrub::SnapshotSource &source) override
    {
        inner_.checkpointLoad(source);
    }
    std::uint64_t checkpointFingerprint() const override
    {
        return inner_.checkpointFingerprint();
    }

  private:
    /** One shard's counters; padded so shards never share a line. */
    struct alignas(64) Slot
    {
        std::array<OpTally, kOpCount> ops{};

        /** Device busy time within the current wake. */
        double wakeBusyS = 0.0;

        /** Visits within the current wake. */
        std::uint64_t wakeVisits = 0;

        /** Visits to a line already visited at the same tick. */
        std::uint64_t repeatVisits = 0;

        /** Worker that ran this shard in the current wake. */
        std::thread::id worker;
    };

    OpTally &record(Op op, LineIndex line, double took)
    {
        Slot &slot = slots_[plan_.shardOf(line)];
        OpTally &tally = slot.ops[static_cast<std::size_t>(op)];
        ++tally.calls;
        tally.busyS += took;
        slot.wakeBusyS += took;
        slot.worker = std::this_thread::get_id();
        return tally;
    }

    OpTally &record(Op op, LineIndex line, Clock::time_point start)
    {
        return record(op, line, secondsSince(start));
    }

    pcmscrub::ScrubBackend &inner_;
    pcmscrub::ShardPlan plan_;
    std::vector<Slot> slots_;

    /** Tick of each line's latest visit (written by its shard). */
    std::vector<Tick> lastVisit_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_BACKEND_HH
