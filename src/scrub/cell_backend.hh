/**
 * @file
 * Cell-accurate backend: every cell simulated, real codecs decoding
 * real corrupted codewords. Slower than the analytic backend but
 * assumption-free — the test suite cross-validates the two.
 *
 * Demand traffic is applied explicitly via demandWrite() (tests and
 * examples drive it); there is no lazy traffic model here, and
 * demand-read UE exposure is not estimated (metrics report scrub-
 * discovered events only).
 */

#ifndef PCMSCRUB_SCRUB_CELL_BACKEND_HH
#define PCMSCRUB_SCRUB_CELL_BACKEND_HH

#include <memory>
#include <vector>

#include "ecc/checksum.hh"
#include "ecc/code.hh"
#include "ecc/ecp.hh"
#include "mem/region_telemetry.hh"
#include "pcm/array.hh"
#include "pcm/kernels.hh"
#include "pcm/wear.hh"
#include "scrub/drift_calendar.hh"
#include "scrub/sharded_backend.hh"

namespace pcmscrub {

/** Configuration of a cell-accurate scrub simulation. */
struct CellBackendConfig
{
    /** Lines in the simulated array. */
    std::size_t lines = 1024;

    /** Device physics. */
    DeviceConfig device{};

    /** Line protection (realised as an actual codec). */
    EccScheme scheme = EccScheme::secdedX8();

    /** Light-detector family. */
    DetectorKind detectorKind = DetectorKind::InterleavedParity;

    /** Light-detector width (parity classes or CRC bits). */
    unsigned detectorParity = 16;

    /**
     * Error-Correcting Pointer entries per line (0 = off). Stuck
     * bits found at write-verify are patched on every read, keeping
     * the ECC budget free for drift errors.
     */
    unsigned ecpEntries = 0;

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

    /**
     * Lazy-drift fast path: at program time, compute each line's
     * earliest band-crossing tick in closed form; scrub visits
     * before that tick skip the per-cell physics and the codec while
     * charging exactly what the exact path would. Results are
     * bit-identical with the flag on or off (a property test locks
     * this in), so it is excluded from the checkpoint fingerprint.
     */
    bool lazyDrift = true;
};

/**
 * ScrubBackend over a CellArray with real encode/decode.
 */
class CellBackend : public ShardedBackend
{
  public:
    explicit CellBackend(const CellBackendConfig &config);

    // ScrubBackend interface ---------------------------------------

    std::uint64_t lineCount() const override;
    unsigned cellsPerLine() const override;
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

    // Cell-accurate extras ------------------------------------------

    /** Apply one demand write (fresh random payload) to a line. */
    void demandWrite(LineIndex line, Tick now);

    /** Ground-truth bit errors in a line right now. */
    unsigned trueErrors(LineIndex line, Tick now) const;

    /** The real codec in use. */
    const Code &code() const { return *code_; }

    /**
     * Mutable cell access. Callers may rewrite cell state directly,
     * so every cached crossing tick is dropped (epoch bump); the
     * next scrub visit rebuilds its shard's calendar.
     */
    CellArray &array()
    {
        ++lazyEpoch_;
        return array_;
    }

    /**
     * Read-only array access (reporting, ground-truth queries); does
     * not invalidate the lazy-drift cache.
     */
    const CellArray &arrayView() const { return array_; }

    /** ECP entries consumed on a line (0 when ECP is off). */
    unsigned ecpUsed(LineIndex line) const;

  private:
    /**
     * Sense the line, charging the array read once per visit. The
     * returned reference aliases the shard's visit buffer and is
     * valid until the next readLine or reprogram on that shard.
     */
    const BitVector &readLine(LineIndex line, Tick now);

    /** Sense without energy accounting (ground-truth queries). */
    BitVector senseRaw(LineIndex line, Tick now) const;

    /**
     * Re-learn a line's stuck bits at write-verify time and point
     * ECP entries at them (no-op when ECP is off).
     */
    void rebuildEcp(LineIndex line, const BitVector &written);

    /**
     * Full-line program of `word`, charging wear (and scrub write
     * energy unless the write is demand traffic — demand energy is
     * not the scrub's bill).
     */
    void programLine(LineIndex line, const BitVector &word, Tick now,
                     bool scrub_energy = true);

    /** Whether the line currently senses to a decodable word. */
    bool decodes(LineIndex line, Tick now);

    // Ladder rungs over the real cells and codec.
    bool retryRead(LineIndex line, Tick now, unsigned attempt) override;
    bool relearnEcp(LineIndex line, Tick now) override;
    void moveToFreshSilicon(LineIndex line, Tick now) override;
    bool inSlc(LineIndex line) const override
    {
        return array_.line(line).slcMode();
    }
    bool demoteSlc(LineIndex line, Tick now) override;
    std::uint64_t lineBits() const override
    {
        return code_->codewordBits();
    }

    void saveShardExtras(SnapshotSink &sink,
                         std::size_t shard) const override;
    void loadShardExtras(SnapshotSource &source,
                         std::size_t shard) override;

    static std::unique_ptr<Code> buildCode(const EccScheme &scheme);

    // Lazy-drift fast path ------------------------------------------

    /**
     * Whether the fast path may be consulted at all: the config
     * enables it and no attached fault campaign injects read-path
     * faults (those can dirty a physics-clean line).
     */
    bool fastPathOn() const;

    /**
     * True when the line provably still senses its intended codeword
     * at `now`, so the visit's gates may skip the per-cell physics
     * and the codec. Rebuilds the shard's calendar if it is stale.
     */
    bool lazyVisitClean(LineIndex line, Tick now);

    /**
     * Derive a line's lazy state from its cells: ineligible when any
     * exactness condition fails (SLC mode, ECP patches, stuck cells,
     * a cell already off its target at write time, or an intended
     * word that is not a codeword), else clean until the earliest
     * cell band-crossing tick.
     */
    LazyLineState computeLazyLine(LineIndex line) const;

    /** Recompute one line's entry (no-op while the shard is stale). */
    void updateLazyLine(LineIndex line);

    /** Rebuild a shard's calendar and line entries wholesale. */
    void refreshLazyShard(std::size_t shard);

    /**
     * Sensed (and possibly fault-corrupted) word of one shard's
     * current visit: every gate of one (line, tick) visit must see
     * the same transient flips, so the word is buffered rather than
     * re-drawn. Invalidated on reprogram; keyed by (line, tick), so
     * it must not be shared across concurrently-running shards.
     */
    struct VisitBuffer
    {
        BitVector word;
        LineIndex line = ~LineIndex{0};
        Tick tick = ~Tick{0};
    };

    CellBackendConfig config_;
    EccScheme scheme_;
    DriftModel drift_;
    std::unique_ptr<Code> code_;
    std::unique_ptr<Detector> detector_;
    CellArray array_;
    std::vector<BitVector> detectWords_;
    std::vector<EcpStore> ecp_; //!< Empty when ECP is off.
    std::vector<VisitBuffer> visits_; //!< One per shard.
    WearModel wear_;

    /**
     * Lazy-drift cache: per-line crossing state plus one calendar
     * per shard. Pure derived state — never serialized; the epoch
     * counter invalidates every shard at once (calendars start at
     * epoch 0, one behind, so first use builds them).
     */
    std::vector<LazyLineState> lazy_;
    std::vector<DriftCalendar> calendars_;
    std::uint64_t lazyEpoch_ = 1;

    /**
     * Band-crossing tables for the lazy kernel, built once at
     * construction (pure function of the device config).
     */
    kernels::DriftCrossLut driftLut_;
};

} // namespace pcmscrub

#endif // PCMSCRUB_SCRUB_CELL_BACKEND_HH
