/**
 * @file
 * The sharded core shared by AnalyticBackend and CellBackend.
 *
 * Both backends partition their lines with one ShardPlan and keep,
 * per shard, an RNG stream, a ScrubMetrics slice and the array-read
 * charge dedup; both own the degradation ladder's spare pools and the
 * attached fault injector and telemetry sink. That core, its
 * checkpoint sections, the UE postlude of fullDecode() and the
 * degradation ladder itself live here, written once. The ladder's
 * rung order, counters and warnings are fixed by escalate(); each
 * backend only supplies the physics of a rung through the protected
 * hooks below.
 */

#ifndef PCMSCRUB_SCRUB_SHARDED_BACKEND_HH
#define PCMSCRUB_SCRUB_SHARDED_BACKEND_HH

#include <vector>

#include "common/random.hh"
#include "mem/metadata.hh"
#include "mem/ppr.hh"
#include "pcm/energy.hh"
#include "scrub/backend.hh"

namespace pcmscrub {

/**
 * ScrubBackend base owning the shard plan, the per-shard core, the
 * ladder's pools and the attached injector/telemetry.
 */
class ShardedBackend : public ScrubBackend
{
  public:
    ShardPlan shardPlan() const override { return plan_; }
    void noteVisit(LineIndex line, Tick now) override;

    /**
     * Attach a fault injector; it gets one stream per shard of the
     * plan.
     */
    void setFaultInjector(FaultInjector *injector) override;

    /**
     * Attach a telemetry sink. Its line count and shard count must
     * match this backend's shard plan.
     */
    void setTelemetry(RegionTelemetry *telemetry) override;

    const SparePool *spares() const override { return &spares_; }
    PprRemapTable *ppr() override { return &ppr_; }

    /**
     * Per-shard metric slices merged in ascending shard order — the
     * fixed reduction order that makes even the floating-point sums
     * bit-identical at any thread count.
     */
    const ScrubMetrics &metrics() const override;
    ScrubMetrics &metrics() override;

    /** Retirement spare pool (empty unless the ladder provisions it). */
    const SparePool &sparePool() const { return spares_; }

    /** PPR remap table (empty unless the ladder provisions it). */
    const PprRemapTable &pprTable() const { return ppr_; }

  protected:
    /**
     * @param lines line population
     * @param shards requested shard count (0 = default)
     * @param seed seed of the per-shard RNG streams
     * @param device device physics (energy costs)
     * @param degradation ladder configuration; the pools are sized
     *        from it only when the ladder is enabled
     */
    ShardedBackend(std::uint64_t lines, std::size_t shards,
                   std::uint64_t seed, const DeviceConfig &device,
                   const DegradationConfig &degradation);

    /**
     * State owned by one shard: its RNG stream, metrics slice, and
     * the array-read dedup (keyed by (line, tick); it must not be
     * shared across concurrently-running shards).
     */
    struct ShardCore
    {
        Random rng;
        ScrubMetrics metrics;

        /** Array-read charge dedup (line, tick of last charge). */
        LineIndex chargedLine = ~LineIndex{0};
        Tick chargedTick = ~Tick{0};
    };

    /** Shard owning a line. */
    std::size_t shardOf(LineIndex line) const
    {
        return plan_.shardOf(line);
    }

    /** Core of the shard owning a line. */
    ShardCore &coreFor(LineIndex line) { return shards_[shardOf(line)]; }

    /** RNG stream of the shard owning a line. */
    Random &rngFor(LineIndex line) { return coreFor(line).rng; }

    /** Metrics slice of the shard owning a line. */
    ScrubMetrics &metricsFor(LineIndex line)
    {
        return coreFor(line).metrics;
    }

    /** Charge the per-visit array read exactly once. */
    void chargeArrayRead(LineIndex line, Tick now);

    /**
     * Forget the line's array-read charge: after a reprogram, a
     * re-read at the same tick is a fresh sensing pass.
     */
    void forgetArrayRead(LineIndex line)
    {
        coreFor(line).chargedLine = ~LineIndex{0};
    }

    /**
     * Outcome of a full decode that ECC could not correct: run the
     * ladder (when enabled), report to telemetry, and count the UE
     * when it reaches the host. `errors` is what the decode found;
     * an absorbing rung leaves the line rewritten and reports 0.
     */
    FullDecodeOutcome settleUncorrectable(LineIndex line, Tick now,
                                          unsigned errors);

    /**
     * Write the common checkpoint sections: every shard core (with
     * the backend's per-shard extras after it), then the spare pool,
     * the PPR table, and the injector and telemetry state.
     */
    void saveShardedState(SnapshotSink &sink) const;

    /** Restore what saveShardedState() wrote. */
    void loadShardedState(SnapshotSource &source);

    /** Backend state of one shard saved after its core. */
    virtual void saveShardExtras(SnapshotSink &sink,
                                 std::size_t shard) const = 0;
    virtual void loadShardExtras(SnapshotSource &source,
                                 std::size_t shard) = 0;

    // Ladder hooks: the physics of each rung (see escalate()) ------

    /**
     * One widened-margin re-read, attempt 1..maxRetries. The base has
     * already counted the retry and charged its margin-read energy.
     * On recovery, refresh the line with the recovered data and
     * return true.
     */
    virtual bool retryRead(LineIndex line, Tick now,
                           unsigned attempt) = 0;

    /**
     * Rewrite the line so ECP re-learns its stuck cells; return
     * whether the ECC budget now covers it. A line without ECP
     * entries must do nothing and return false.
     */
    virtual bool relearnEcp(LineIndex line, Tick now) = 0;

    /**
     * The address now resolves to fresh silicon (PPR row or spare
     * line): reset the line's wear and drift tail and program fresh
     * data.
     */
    virtual void moveToFreshSilicon(LineIndex line, Tick now) = 0;

    /** Whether the line already runs in SLC mode. */
    virtual bool inSlc(LineIndex line) const = 0;

    /**
     * Switch the line to SLC and program fresh data; return whether
     * the SLC line now decodes.
     */
    virtual bool demoteSlc(LineIndex line, Tick now) = 0;

    /** Bits of capacity one retired or demoted line gives up. */
    virtual std::uint64_t lineBits() const = 0;

    const ShardPlan plan_;
    const EnergyModel energy_;
    FaultInjector *injector_ = nullptr;    //!< Not owned.
    RegionTelemetry *telemetry_ = nullptr; //!< Not owned.

  private:
    /**
     * The degradation ladder over a line whose decode failed: retry,
     * ECP re-learn, PPR, retire, SLC, host. Returns the rung that
     * absorbed the failure (HostVisible when none did).
     */
    DegradationStage escalate(LineIndex line, Tick now);

    const DegradationConfig degradation_;
    std::vector<ShardCore> shards_;
    mutable ScrubMetrics merged_; //!< Rebuilt on each metrics() call.
    SparePool spares_;
    PprRemapTable ppr_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_SHARDED_BACKEND_HH
