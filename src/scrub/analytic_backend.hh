/**
 * @file
 * Line-sampled analytic backend.
 *
 * Scales to device-years by exploiting three exact properties of the
 * physics model:
 *
 *  1. Drift crossings are monotone: once a cell drifts over its
 *     threshold it stays wrong until rewritten. So the number of
 *     erroneous cells between two observations grows by a
 *     conditional binomial with success probability
 *     (p(t2) - p(t1)) / (1 - p(t1)) — no time stepping needed.
 *  2. Only a line's *most recent* demand write matters for drift;
 *     earlier writes are fully shadowed. Demand traffic is therefore
 *     materialised lazily per line: a Poisson write count over the
 *     gap, with the last write's age sampled exactly as
 *     G * (1 - U^(1/n)).
 *  3. Endurance failures depend only on cumulative write counts,
 *     handled by the same conditional-tail trick via WearModel.
 *
 * Uncorrectable demand reads are accounted in expectation: when a
 * check discovers an uncorrectable line, the backend estimates how
 * long the line had been past the ECC limit (population-mean
 * crossing age from DriftModel) and charges readRate * badSeconds
 * expected demand UEs.
 */

#ifndef PCMSCRUB_SCRUB_ANALYTIC_BACKEND_HH
#define PCMSCRUB_SCRUB_ANALYTIC_BACKEND_HH

#include <vector>

#include "ecc/detector.hh"
#include "mem/region_telemetry.hh"
#include "pcm/wear.hh"
#include "scrub/demand_model.hh"
#include "scrub/sharded_backend.hh"

namespace pcmscrub {

/** Configuration of an analytic scrub simulation. */
struct AnalyticConfig
{
    /** Lines in the sampled device region. */
    std::uint64_t lines = 1 << 16;

    /** Device physics. */
    DeviceConfig device{};

    /** Line protection. */
    EccScheme scheme = EccScheme::secdedX8();

    /** Demand traffic. */
    DemandConfig demand{};

    /** Light-detector family. */
    DetectorKind detectorKind = DetectorKind::InterleavedParity;

    /** Light-detector width (parity classes or CRC bits). */
    unsigned detectorParity = 16;

    /**
     * Chronically-fast drifters tracked individually per line. The
     * speed distribution's tail dominates short-age errors, and the
     * same cells re-fail after every rewrite, so the backend samples
     * each line's top-k intrinsic speeds (order statistics) and
     * simulates those cells one by one; the rest form an
     * exchangeable "bulk" handled with conditional binomials.
     */
    unsigned weakCellsTracked = 8;

    /**
     * Error-Correcting Pointer entries per line (0 = off). Modelled
     * conservatively: ECP-n absorbs the first n/2 stuck *cells*
     * outright (a conflicting MLC cell can need both of its bits
     * patched), so only stuck cells beyond that budget can produce
     * errors.
     */
    unsigned ecpEntries = 0;

    /**
     * Demand-read piggybacking: the data path decodes every demand
     * read anyway, so the controller can refresh a line the moment
     * a read reveals `piggybackRewriteThreshold`+ errors — free
     * checks at the line's own access rate. Modelled at the last
     * read of each lazily-materialised gap (drift is monotone, so
     * the last read is the one that decides whether errors were
     * caught before now).
     */
    bool demandReadPiggyback = false;

    /** Piggyback refresh trigger (errors seen by the read path). */
    unsigned piggybackRewriteThreshold = 4;

    /** RNG seed. */
    std::uint64_t seed = 1;

    /**
     * Shards the line population is partitioned into (0 = default).
     * Each shard owns an independent RNG stream derived from (seed,
     * shard), so results depend on the shard count but never on the
     * thread count executing the shards.
     */
    std::size_t shards = 0;

    /** Uncorrectable-error degradation ladder (off by default). */
    DegradationConfig degradation{};
};

/**
 * ScrubBackend implementation over closed-form physics.
 */
class AnalyticBackend : public ShardedBackend
{
  public:
    explicit AnalyticBackend(const AnalyticConfig &config);
    ~AnalyticBackend() override;

    // ScrubBackend interface ---------------------------------------

    std::uint64_t lineCount() const override { return lines_.size(); }
    unsigned cellsPerLine() const override { return cellsPerLine_; }
    const EccScheme &scheme() const override { return scheme_; }
    const DriftModel &drift() const override { return drift_; }

    Tick lastFullWrite(LineIndex line, Tick now) override;
    bool lightDetectClean(LineIndex line, Tick now) override;
    bool eccCheckClean(LineIndex line, Tick now) override;
    FullDecodeOutcome fullDecode(LineIndex line, Tick now) override;
    unsigned marginScan(LineIndex line, Tick now) override;
    void scrubRewrite(LineIndex line, Tick now,
                      bool preventive = false) override;
    void repairUncorrectable(LineIndex line, Tick now) override;

    // Checkpointing -------------------------------------------------

    void checkpointSave(SnapshotSink &sink) const override;
    void checkpointLoad(SnapshotSource &source) override;
    std::uint64_t checkpointFingerprint() const override;

    // Introspection for tests and experiments ----------------------

    /** Current true error count of a line (after materialising). */
    unsigned trueErrors(LineIndex line, Tick now);

    /** Permanently failed cells of a line. */
    unsigned stuckCells(LineIndex line) const;

    /** Cumulative writes a line has absorbed. */
    double lineWrites(LineIndex line) const;

    const AnalyticConfig &config() const { return config_; }

  private:
    /** One individually-tracked fast-drifting cell. */
    struct WeakCell
    {
        float speed = 1.0f;       //!< Intrinsic drift-speed factor.
        float qSampled = 0.0f;    //!< Crossing prob already realised.
        std::uint8_t level = 0;   //!< Level stored by current write.
        bool crossed = false;     //!< Drifted over its threshold.
    };

    /** Per-line lazily updated state. */
    struct LineState
    {
        Tick knownTick = 0;       //!< Materialised up to here.
        Tick lastWrite = 0;       //!< Most recent full write.
        double pSampled = 0.0;    //!< Bulk drift prob already realised.
        double writes = 0.0;      //!< Cumulative write count.
        std::uint16_t driftErrors = 0; //!< Crossed bulk cells.
        std::uint16_t stuckCells = 0;
        std::uint16_t stuckErrors = 0;
        std::uint16_t ueSampledErrors = 0;
        bool uePlaced = false;    //!< Interleave placement defeated.
        bool slc = false;         //!< Fell back to SLC (drift-immune).
    };

    /** Apply lazily-pending demand writes up to `now`. */
    void materialize(LineIndex line, Tick now);

    /** Harvest the gap's demand reads as free checks (piggyback). */
    void piggybackReads(LineIndex line, Tick gap_start, Tick now);

    /** Realise drift crossings up to `now` (post-materialise). */
    void growDrift(LineIndex line, Tick now);

    /** Age of the line's data in seconds at `now`. */
    double ageSeconds(const LineState &state, Tick now) const;

    /** Crossed weak cells of a line. */
    unsigned weakErrors(LineIndex line) const;

    unsigned totalErrors(LineIndex line) const
    {
        const LineState &state = lines_[line];
        return state.driftErrors + state.stuckErrors +
            weakErrors(line);
    }

    /** Reset weak-cell write state (level resample on new data). */
    void resetWeakCells(LineIndex line, bool new_data);

    /** Consistent uncorrectable decision as errors accumulate. */
    bool sampleUncorrectable(LineIndex line);

    /** Wear from `count` additional writes; returns new stuck cells. */
    unsigned applyWear(LineIndex line, LineState &state, double count);

    /** Expected demand-read UEs over a line's bad window. */
    void chargeDemandExposure(LineIndex line, const LineState &state,
                              double age_seconds);

    /** Reset after any full write (demand, scrub, or repair). */
    void resetAfterWrite(LineIndex line, Tick now, bool new_data);

    /**
     * Draw a fresh top-k intrinsic drift-speed tail for a line.
     * Called at construction and whenever a repair rung moves the
     * address onto new physical silicon (PPR remap, spare
     * retirement): drift speed is a property of the physical row, so
     * a remap genuinely cures a chronically fast-drifting line.
     */
    void sampleWeakSpeeds(LineIndex line);

    /**
     * Injected transient (read-disturb) flips seen by the current
     * (line, tick) visit; 0 without an injector. Sampled once per
     * visit so every gate sees the same flips.
     */
    unsigned transientErrors(LineIndex line, Tick now);

    /** Full write the ladder issues (not a scrub rewrite). */
    void ladderRefresh(LineIndex line, Tick now, bool new_data);

    // Ladder rungs, in expectation. A failure not pinned on
    // persistent errors (uePlaced) was transient-driven and resolves
    // on the first plain re-read.
    bool retryRead(LineIndex line, Tick now, unsigned attempt) override;
    bool relearnEcp(LineIndex line, Tick now) override;
    void moveToFreshSilicon(LineIndex line, Tick now) override;
    bool inSlc(LineIndex line) const override
    {
        return lines_[line].slc;
    }
    bool demoteSlc(LineIndex line, Tick now) override;

    /** Data+check bits a line stores (capacity accounting). */
    std::uint64_t lineBits() const override
    {
        return static_cast<std::uint64_t>(cellsPerLine_) * bitsPerCell;
    }

    void saveShardExtras(SnapshotSink &sink,
                         std::size_t shard) const override;
    void loadShardExtras(SnapshotSource &source,
                         std::size_t shard) override;

    /**
     * Per-visit injected transient flips of one shard (keyed by
     * (line, tick); must not be shared across concurrently-running
     * shards).
     */
    struct TransientCache
    {
        LineIndex line = ~LineIndex{0};
        Tick tick = ~Tick{0};
        unsigned flips = 0;
    };

    AnalyticConfig config_;
    EccScheme scheme_;
    DriftModel drift_;
    WearModel wear_;
    DemandModel demand_;
    std::unique_ptr<Detector> detector_;
    unsigned cellsPerLine_;
    double avgIterationsPerCell_;
    double bulkQuantile_;
    std::vector<LineState> lines_;
    std::vector<WeakCell> weakCells_; //!< lines x weakCellsTracked.
    std::vector<TransientCache> transients_; //!< One per shard.
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_ANALYTIC_BACKEND_HH
