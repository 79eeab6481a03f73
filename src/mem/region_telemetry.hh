/**
 * @file
 * Per-region error/energy telemetry — the counters a RAS control
 * plane exposes to operators (Linux EDAC style: corrected and
 * uncorrected error counts per memory region, plus the scrub work
 * and energy spent there).
 *
 * A RegionTelemetry is attached to a ScrubBackend like a
 * FaultInjector: the backend calls the on*() hooks as events happen.
 * Determinism contract: counters are kept as per-shard slices (one
 * writer per shard, no locks on the hot path) and merged in
 * ascending shard order on every query, so totals — including the
 * floating-point energy sums — are bit-identical at any thread
 * count, exactly like ScrubMetrics.
 *
 * Scope: energy covers the two dominant costs the scrub controller
 * can steer (per-visit array reads and full-line scrub rewrites);
 * detector/decode logic energy stays in the global ScrubMetrics
 * breakdown.
 */

#ifndef PCMSCRUB_MEM_REGION_TELEMETRY_HH
#define PCMSCRUB_MEM_REGION_TELEMETRY_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "faults/degradation.hh"

namespace pcmscrub {

class SnapshotSink;
class SnapshotSource;

/** One region's counters (also the merged query result). */
struct RegionCounters
{
    /** Cell errors corrected by scrub rewrites in this region. */
    std::uint64_t correctedErrors = 0;

    /** Host-visible uncorrectable events in this region. */
    std::uint64_t uncorrectable = 0;

    /** UE events a degradation-ladder rung absorbed. */
    std::uint64_t ladderEscalations = 0;

    /** Scrub rewrites issued in this region. */
    std::uint64_t scrubWrites = 0;

    /** Array-read + scrub-write energy charged here, pJ. */
    double energyPj = 0.0;

    void merge(const RegionCounters &other)
    {
        correctedErrors += other.correctedErrors;
        uncorrectable += other.uncorrectable;
        ladderEscalations += other.ladderEscalations;
        scrubWrites += other.scrubWrites;
        energyPj += other.energyPj;
    }
};

/**
 * Line-range region counters with per-shard slices.
 */
class RegionTelemetry
{
  public:
    /**
     * @param lines tracked line population
     * @param lines_per_region region granularity (last region may be
     *        short); must be at least 1
     * @param shards shard count of the owning backend's plan
     */
    RegionTelemetry(std::uint64_t lines, std::uint64_t lines_per_region,
                    std::size_t shards);

    std::uint64_t lineCount() const { return lines_; }
    std::uint64_t linesPerRegion() const { return linesPerRegion_; }
    std::uint64_t regionCount() const { return regions_; }
    std::size_t shardCount() const { return shards_; }

    /** Region containing a line. */
    std::uint64_t regionOf(LineIndex line) const
    {
        return line / linesPerRegion_;
    }

    // Recording hooks (called by the backend; `shard` owns `line`) --

    /** A scrub rewrite corrected `corrected` errors on `line`. */
    void onScrubWrite(std::size_t shard, LineIndex line,
                      std::uint64_t corrected, double energy_pj);

    /**
     * A full decode failed on `line`; `handled_by` names the ladder
     * rung that absorbed it (HostVisible = surfaced to the host).
     */
    void onUncorrectable(std::size_t shard, LineIndex line,
                         DegradationStage handled_by);

    /** Array-read energy charged against `line`. */
    void onEnergy(std::size_t shard, LineIndex line, double energy_pj);

    // Queries (merged in ascending shard order) ---------------------

    /** Merged counters of one region. */
    RegionCounters region(std::uint64_t region) const;

    /** Merged counters over the whole device. */
    RegionCounters totals() const;

    /** Serialize every shard slice in (shard, region) order. */
    void saveState(SnapshotSink &sink) const;

    /** Restore state written by saveState(); the geometry must
     *  match the construction parameters. */
    void loadState(SnapshotSource &source);

  private:
    RegionCounters &at(std::size_t shard, std::uint64_t region)
    {
        return slices_[shard * regions_ + region];
    }

    const RegionCounters &at(std::size_t shard,
                             std::uint64_t region) const
    {
        return slices_[shard * regions_ + region];
    }

    std::uint64_t lines_;
    std::uint64_t linesPerRegion_;
    std::uint64_t regions_;
    std::size_t shards_;
    std::vector<RegionCounters> slices_; //!< shards x regions.
};

} // namespace pcmscrub

#endif // PCMSCRUB_MEM_REGION_TELEMETRY_HH
