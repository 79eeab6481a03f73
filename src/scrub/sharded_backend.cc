#include "scrub/sharded_backend.hh"

#include "common/logging.hh"
#include "common/serialize.hh"
#include "faults/fault_injector.hh"
#include "mem/region_telemetry.hh"

namespace pcmscrub {

ShardedBackend::ShardedBackend(std::uint64_t lines, std::size_t shards,
                               std::uint64_t seed,
                               const DeviceConfig &device,
                               const DegradationConfig &degradation)
    : plan_(lines, shards),
      energy_(device),
      degradation_(degradation),
      spares_(degradation.enabled ? degradation.spareLines : 0),
      ppr_(degradation.enabled ? degradation.pprSpareRows : 0,
           degradation.pprUeThreshold)
{
    // One independent counter-based RNG stream per shard: every draw
    // for a line comes from its shard's stream, so outcomes depend
    // only on (seed, shard, within-shard op order) — never on the
    // thread count interleaving the shards.
    shards_.resize(plan_.count());
    for (std::size_t shard = 0; shard < plan_.count(); ++shard)
        shards_[shard].rng = Random::stream(seed, shard);
}

void
ShardedBackend::noteVisit(LineIndex line, Tick now)
{
    PCMSCRUB_ASSERT(line < plan_.lines(), "line %llu out of range",
                    static_cast<unsigned long long>(line));
    (void)now;
    ++metricsFor(line).linesChecked;
}

void
ShardedBackend::setFaultInjector(FaultInjector *injector)
{
    injector_ = injector;
    if (injector_ != nullptr)
        injector_->shardStreams(plan_.count());
}

void
ShardedBackend::setTelemetry(RegionTelemetry *telemetry)
{
    if (telemetry != nullptr) {
        PCMSCRUB_ASSERT(
            telemetry->lineCount() == plan_.lines(),
            "telemetry tracks %llu lines but the backend has %llu",
            static_cast<unsigned long long>(telemetry->lineCount()),
            static_cast<unsigned long long>(plan_.lines()));
        PCMSCRUB_ASSERT(
            telemetry->shardCount() == plan_.count(),
            "telemetry has %zu shards but the backend plan has %zu",
            telemetry->shardCount(), plan_.count());
    }
    telemetry_ = telemetry;
}

const ScrubMetrics &
ShardedBackend::metrics() const
{
    merged_ = ScrubMetrics{};
    for (const ShardCore &shard : shards_)
        merged_.merge(shard.metrics);
    // The spare pools are shared across shards; the merged gauges
    // are their live levels, not per-shard sums.
    merged_.sparesRemaining = spares_.remaining();
    merged_.pprSparesRemaining = ppr_.remaining();
    return merged_;
}

ScrubMetrics &
ShardedBackend::metrics()
{
    const ShardedBackend *self = this;
    return const_cast<ScrubMetrics &>(self->metrics());
}

void
ShardedBackend::chargeArrayRead(LineIndex line, Tick now)
{
    ShardCore &shard = coreFor(line);
    if (shard.chargedLine == line && shard.chargedTick == now)
        return;
    shard.chargedLine = line;
    shard.chargedTick = now;
    const double pj = energy_.lineRead(cellsPerLine());
    shard.metrics.energy.add(EnergyCategory::ArrayRead, pj);
    if (telemetry_ != nullptr)
        telemetry_->onEnergy(shardOf(line), line, pj);
}

FullDecodeOutcome
ShardedBackend::settleUncorrectable(LineIndex line, Tick now,
                                    unsigned errors)
{
    FullDecodeOutcome outcome;
    outcome.errors = errors;
    outcome.handledBy = degradation_.enabled
        ? escalate(line, now)
        : DegradationStage::HostVisible;
    if (telemetry_ != nullptr)
        telemetry_->onUncorrectable(shardOf(line), line, outcome.handledBy);
    if (outcome.handledBy == DegradationStage::HostVisible) {
        outcome.uncorrectable = true;
        ScrubMetrics &metrics = metricsFor(line);
        ++metrics.scrubUncorrectable;
        ++metrics.ueSurfaced;
    } else {
        // A ladder stage absorbed the failure and left the line
        // freshly rewritten; nothing remains for the caller.
        outcome.errors = 0;
    }
    return outcome;
}

DegradationStage
ShardedBackend::escalate(LineIndex line, Tick now)
{
    const DegradationConfig &deg = degradation_;
    ScrubMetrics &metrics = metricsFor(line);

    // Stage 1: bounded re-reads with progressively widened sensing
    // margins. A re-read sheds the visit's transient flips, and
    // drifted cells sit just past a nominal threshold, so raising the
    // references reclaims them; stuck cells are immune.
    for (unsigned attempt = 1; attempt <= deg.maxRetries; ++attempt) {
        ++metrics.ueRetries;
        metrics.energy.add(EnergyCategory::MarginRead,
                           energy_.marginReadExtra(cellsPerLine()));
        if (retryRead(line, now, attempt)) {
            ++metrics.ueRetryResolved;
            return DegradationStage::Retry;
        }
    }

    // Stage 2: full write-verify pass so ECP re-learns the line's
    // stuck bits against the intended data.
    if (deg.ecpRepair && relearnEcp(line, now)) {
        ++metrics.ueEcpRepaired;
        return DegradationStage::EcpRepair;
    }

    // Stage 3: post-package repair — permanently fuse a chronically
    // failing address over to a dedicated spare row. The fuse is
    // one-shot per address and the rows are scarce, so only lines
    // with a repeat-offender UE history qualify; a line felled by a
    // one-off event falls through without burning a row.
    if (deg.pprSpareRows > 0) {
        ppr_.noteUncorrectable(line);
        if (ppr_.qualifies(line) && ppr_.remap(line)) {
            ++metrics.uePprRemapped;
            warn_once("PPR-remapping line %llu to a spare row "
                      "(%llu rows left)",
                      static_cast<unsigned long long>(line),
                      static_cast<unsigned long long>(ppr_.remaining()));
            moveToFreshSilicon(line, now);
            return DegradationStage::PprRemap;
        }
        if (ppr_.exhausted()) {
            warn_once("PPR spare rows exhausted after %llu remaps; "
                      "chronic lines now fall through to retirement",
                      static_cast<unsigned long long>(
                          ppr_.remappedCount()));
        }
    }

    // Stage 4: retire the line into the spare-remap pool; the
    // address now resolves to fresh spare silicon.
    if (spares_.retire(line)) {
        ++metrics.ueRetired;
        metrics.capacityLostBits += lineBits();
        warn_once("retiring line %llu to a spare (%llu spares left)",
                  static_cast<unsigned long long>(line),
                  static_cast<unsigned long long>(spares_.remaining()));
        moveToFreshSilicon(line, now);
        return DegradationStage::Retire;
    }
    if (deg.spareLines > 0) {
        warn_once("spare pool exhausted after %llu retirements; "
                  "failing lines now fall through to SLC/host",
                  static_cast<unsigned long long>(
                      spares_.retiredCount()));
    }

    // Stage 5: drop the line to SLC — extreme levels only, immune to
    // drift, at half density.
    if (deg.slcFallback && !inSlc(line)) {
        ++metrics.ueSlcFallbacks;
        metrics.capacityLostBits += lineBits();
        warn_once("line %llu fell back to SLC operation "
                  "(density halved)",
                  static_cast<unsigned long long>(line));
        if (demoteSlc(line, now))
            return DegradationStage::SlcFallback;
    }

    warn_once("uncorrectable error on line %llu surfaced to the host",
              static_cast<unsigned long long>(line));
    return DegradationStage::HostVisible;
}

void
ShardedBackend::saveShardedState(SnapshotSink &sink) const
{
    sink.u64(shards_.size());
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
        const ShardCore &core = shards_[shard];
        saveRandom(sink, core.rng);
        core.metrics.saveState(sink);
        sink.u64(core.chargedLine);
        sink.u64(core.chargedTick);
        saveShardExtras(sink, shard);
    }

    spares_.saveState(sink);
    ppr_.saveState(sink);

    sink.boolean(injector_ != nullptr);
    if (injector_ != nullptr)
        injector_->saveState(sink);

    sink.boolean(telemetry_ != nullptr);
    if (telemetry_ != nullptr)
        telemetry_->saveState(sink);
}

void
ShardedBackend::loadShardedState(SnapshotSource &source)
{
    if (source.u64() != shards_.size())
        source.corrupt("shard count does not match the shard plan");
    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
        ShardCore &core = shards_[shard];
        loadRandom(source, core.rng);
        core.metrics.loadState(source);
        core.chargedLine = source.u64();
        core.chargedTick = source.u64();
        loadShardExtras(source, shard);
    }

    spares_.loadState(source);
    ppr_.loadState(source);

    const bool hadInjector = source.boolean();
    if (hadInjector != (injector_ != nullptr)) {
        source.corrupt(hadInjector
                           ? "snapshot has fault-injector state but "
                             "none is attached"
                           : "a fault injector is attached but the "
                             "snapshot has no injector state");
    }
    if (injector_ != nullptr)
        injector_->loadState(source);

    const bool hadTelemetry = source.boolean();
    if (hadTelemetry != (telemetry_ != nullptr)) {
        source.corrupt(hadTelemetry
                           ? "snapshot has telemetry state but no "
                             "telemetry sink is attached"
                           : "a telemetry sink is attached but the "
                             "snapshot has no telemetry state");
    }
    if (telemetry_ != nullptr)
        telemetry_->loadState(source);
}

} // namespace pcmscrub
