/**
 * @file
 * Tests for the UE degradation ladder: widened-margin retries, ECP
 * re-learn, spare-pool retirement, and SLC fallback — on both
 * backends, driven by deterministic fault campaigns.
 */

#include <gtest/gtest.h>

#include "faults/fault_injector.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/recording_backend.hh"

namespace pcmscrub {
namespace {

// ---------------------------------------------------------------
// Cell backend: burst campaign, ladder on vs off.
// ---------------------------------------------------------------

CellBackendConfig
burstConfig(bool ladder)
{
    CellBackendConfig config;
    config.lines = 32;
    config.scheme = EccScheme::bch(4);
    config.seed = 5;
    config.degradation.enabled = ladder;
    config.degradation.maxRetries = 2;
    return config;
}

FaultCampaignConfig
burstCampaign()
{
    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 0.3;
    campaign.burstBits = 12; // Defeats BCH t=4 outright.
    campaign.seed = 7;
    return campaign;
}

ScrubMetrics
runBurstCampaign(bool ladder)
{
    CellBackend backend(burstConfig(ladder));
    FaultInjector injector(burstCampaign());
    backend.setFaultInjector(&injector);
    for (unsigned pass = 1; pass <= 5; ++pass) {
        const Tick now = secondsToTicks(10.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }
    return backend.metrics();
}

TEST(DegradationLadder, LadderLowersHostVisibleUEs)
{
    // The acceptance comparison: identical seeds, identical fault
    // campaign, the only difference is the ladder switch.
    const ScrubMetrics off = runBurstCampaign(false);
    const ScrubMetrics on = runBurstCampaign(true);

    EXPECT_GT(off.ueSurfaced, 10u);
    EXPECT_LT(on.ueSurfaced, off.ueSurfaced);
    EXPECT_GT(on.ueAbsorbed(), 0u);

    // Disabled means *disabled*: no ladder traffic at all.
    EXPECT_EQ(off.ueRetries, 0u);
    EXPECT_EQ(off.ueAbsorbed(), 0u);
}

TEST(DegradationLadder, RetryResolvesTransientBursts)
{
    // Bursts are transient (they corrupt the sensed word, not the
    // cells), so a widened-margin re-read recovers every one.
    CellBackendConfig config;
    config.lines = 8;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;
    config.degradation.enabled = true;
    CellBackend backend(config);

    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 1.0; // Every read is corrupted.
    campaign.burstBits = 12;
    campaign.seed = 9;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);

    const Tick now = secondsToTicks(1.0);
    for (LineIndex line = 0; line < backend.lineCount(); ++line) {
        const FullDecodeOutcome outcome = backend.fullDecode(line, now);
        EXPECT_FALSE(outcome.uncorrectable);
        EXPECT_EQ(outcome.handledBy, DegradationStage::Retry);
        EXPECT_EQ(outcome.errors, 0u);
    }
    EXPECT_EQ(backend.metrics().ueRetryResolved, 8u);
    EXPECT_EQ(backend.metrics().ueSurfaced, 0u);
    // Ladder-internal refreshes are not scrub rewrites.
    EXPECT_EQ(backend.metrics().scrubRewrites, 0u);
}

// ---------------------------------------------------------------
// Cell backend: hard faults walking the full ladder.
// ---------------------------------------------------------------

TEST(DegradationLadder, EcpRepairRelearnsStuckCells)
{
    CellBackendConfig config;
    config.lines = 2;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 16;
    config.seed = 17;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    CellBackend backend(config);

    // Freeze more cells than the code can absorb. The warm-up write
    // predates the freeze, so the line's ECP entries know nothing
    // about them until the ladder's write-verify pass re-learns.
    FaultCampaignConfig campaign;
    campaign.seed = 23;
    FaultInjector freezer(campaign);
    freezer.freezeCells(backend.array().line(0), 8);

    const Tick now = secondsToTicks(1.0);
    const FullDecodeOutcome outcome = backend.fullDecode(0, now);
    EXPECT_FALSE(outcome.uncorrectable);
    EXPECT_EQ(outcome.handledBy, DegradationStage::EcpRepair);
    EXPECT_EQ(backend.metrics().ueEcpRepaired, 1u);
    EXPECT_GT(backend.ecpUsed(0), 0u);

    // The repaired line decodes cleanly from here on.
    EXPECT_EQ(backend.trueErrors(0, now + 1), 0u);
}

TEST(DegradationLadder, RetirementConsumesSparesThenFallsToSlc)
{
    CellBackendConfig config;
    config.lines = 4;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 0; // No ECP: stage 2 is skipped.
    config.seed = 17;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.spareLines = 2;
    config.degradation.slcFallback = true;
    CellBackend backend(config);

    EXPECT_EQ(backend.sparePool().capacity(), 2u);
    EXPECT_EQ(backend.metrics().sparesRemaining, 2u);

    // Far more stuck cells than any stage below retirement can fix.
    FaultCampaignConfig campaign;
    campaign.seed = 23;
    FaultInjector freezer(campaign);
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        freezer.freezeCells(backend.array().line(line), 60);

    const Tick now = secondsToTicks(1.0);
    std::vector<DegradationStage> stages;
    for (LineIndex line = 0; line < backend.lineCount(); ++line)
        stages.push_back(backend.fullDecode(line, now).handledBy);

    // Two lines grab the two spares; the rest drop to SLC, which
    // cannot save them either (the cells themselves are dead).
    EXPECT_EQ(stages[0], DegradationStage::Retire);
    EXPECT_EQ(stages[1], DegradationStage::Retire);
    EXPECT_EQ(stages[2], DegradationStage::HostVisible);
    EXPECT_EQ(stages[3], DegradationStage::HostVisible);

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.ueRetired, 2u);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_EQ(m.ueSlcFallbacks, 2u);
    EXPECT_EQ(m.ueSurfaced, 2u);
    EXPECT_EQ(m.ueRetries, 4u); // One bounded retry per line.

    const SparePool &pool = backend.sparePool();
    EXPECT_TRUE(pool.exhausted());
    EXPECT_EQ(pool.retiredCount(), 2u);
    EXPECT_TRUE(pool.isRetired(0));
    EXPECT_TRUE(pool.isRetired(1));
    EXPECT_FALSE(pool.isRetired(2));

    // Retirement and SLC fallback each cost one line of capacity.
    const std::uint64_t lineBits = backend.code().codewordBits();
    EXPECT_EQ(m.capacityLostBits, 4 * lineBits);

    // A retired line resolves to fresh silicon: clean from here on.
    EXPECT_EQ(backend.trueErrors(0, now + 1), 0u);
}

// ---------------------------------------------------------------
// Analytic backend mirrors the same ladder.
// ---------------------------------------------------------------

AnalyticConfig
analyticConfig(bool ladder)
{
    AnalyticConfig config;
    config.lines = 256;
    config.scheme = EccScheme::secdedX8();
    config.demand.writesPerLinePerSecond = 0.0;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 11;
    config.degradation.enabled = ladder;
    return config;
}

ScrubMetrics
runAnalyticCampaign(bool ladder)
{
    AnalyticBackend backend(analyticConfig(ladder));
    FaultCampaignConfig campaign;
    campaign.disturbFlipsPerRead = 3.0;
    campaign.seed = 19;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);
    for (unsigned pass = 1; pass <= 4; ++pass) {
        const Tick now = secondsToTicks(100.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }
    return backend.metrics();
}

TEST(DegradationLadder, AnalyticLadderLowersHostVisibleUEs)
{
    const ScrubMetrics off = runAnalyticCampaign(false);
    const ScrubMetrics on = runAnalyticCampaign(true);

    EXPECT_GT(off.ueSurfaced, 10u);
    EXPECT_LT(on.ueSurfaced, off.ueSurfaced);
    EXPECT_GT(on.ueAbsorbed(), 0u);
    EXPECT_EQ(off.ueRetries, 0u);
}

TEST(DegradationLadder, AnalyticRetirementTracksSparesAndCapacity)
{
    AnalyticConfig config;
    config.lines = 64;
    config.scheme = EccScheme::secdedX8();
    config.demand.writesPerLinePerSecond = 0.5;
    config.demand.readsPerLinePerSecond = 0.0;
    config.seed = 29;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.retryResolveProb = 0.0;
    config.degradation.ecpRepair = false;
    config.degradation.spareLines = 4;
    config.degradation.slcFallback = true;
    AnalyticBackend backend(config);

    // Heavy stuck-at injection riding the demand write traffic.
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 10.0;
    campaign.seed = 31;
    FaultInjector injector(campaign);
    backend.setFaultInjector(&injector);

    for (unsigned pass = 1; pass <= 6; ++pass) {
        const Tick now = secondsToTicks(100.0 * pass);
        for (LineIndex line = 0; line < backend.lineCount(); ++line) {
            const FullDecodeOutcome outcome =
                backend.fullDecode(line, now);
            if (outcome.uncorrectable)
                backend.repairUncorrectable(line, now);
        }
    }

    const ScrubMetrics &m = backend.metrics();
    EXPECT_EQ(m.ueRetired, 4u);
    EXPECT_EQ(m.sparesRemaining, 0u);
    EXPECT_TRUE(backend.sparePool().exhausted());
    EXPECT_GT(m.ueSlcFallbacks, 0u);

    const std::uint64_t lineBits =
        static_cast<std::uint64_t>(backend.cellsPerLine()) *
        bitsPerCell;
    EXPECT_EQ(m.capacityLostBits,
              (m.ueRetired + m.ueSlcFallbacks) * lineBits);
}

// ---------------------------------------------------------------
// The recorder surfaces ladder traffic for the bank simulation.
// ---------------------------------------------------------------

TEST(DegradationLadder, RecorderEmitsRetryReadsAndLadderRewrites)
{
    CellBackendConfig config;
    config.lines = 8;
    config.scheme = EccScheme::bch(4);
    config.seed = 3;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    CellBackend inner(config);
    RecordingBackend recorder(inner);

    FaultCampaignConfig campaign;
    campaign.burstProbPerRead = 1.0;
    campaign.burstBits = 12;
    campaign.seed = 9;
    FaultInjector injector(campaign);
    recorder.setFaultInjector(&injector);

    const Tick now = secondsToTicks(1.0);
    for (LineIndex line = 0; line < recorder.lineCount(); ++line)
        recorder.fullDecode(line, now);

    // Every burst cost one retry (resolved first attempt) and one
    // ladder-internal refresh write.
    const Trace &trace = recorder.trace();
    EXPECT_EQ(trace.countOf(ReqType::RetryRead),
              inner.metrics().ueRetries);
    EXPECT_GT(trace.countOf(ReqType::RetryRead), 0u);
    EXPECT_EQ(trace.countOf(ReqType::ScrubRewrite),
              inner.metrics().ueAbsorbed());
}

TEST(DegradationLadder, SlcLineThatFailsAgainSurfacesToHost)
{
    CellBackendConfig config;
    config.lines = 1;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 0; // No ECP, no PPR, no spares: straight to SLC.
    config.seed = 29;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.slcFallback = true;
    CellBackend backend(config);

    // Dead cells defeat the code in MLC and in SLC mode alike.
    FaultCampaignConfig campaign;
    campaign.seed = 31;
    FaultInjector freezer(campaign);
    freezer.freezeCells(backend.array().line(0), 60);

    const Tick first = secondsToTicks(1.0);
    EXPECT_EQ(backend.fullDecode(0, first).handledBy,
              DegradationStage::HostVisible);
    ASSERT_TRUE(backend.arrayView().line(0).slcMode());
    const ScrubMetrics before = backend.metrics();
    EXPECT_EQ(before.ueSlcFallbacks, 1u);
    EXPECT_EQ(before.capacityLostBits, backend.code().codewordBits());

    // The second failure finds the line already in SLC: the SLC rung
    // is skipped, so neither the count nor the capacity loss moves.
    const FullDecodeOutcome again =
        backend.fullDecode(0, secondsToTicks(2.0));
    EXPECT_EQ(again.handledBy, DegradationStage::HostVisible);
    EXPECT_TRUE(again.uncorrectable);
    const ScrubMetrics &after = backend.metrics();
    EXPECT_EQ(after.ueSlcFallbacks, before.ueSlcFallbacks);
    EXPECT_EQ(after.capacityLostBits, before.capacityLostBits);
    EXPECT_EQ(after.ueSurfaced, 2u);
    EXPECT_EQ(after.ueRetries, 2u);
}

TEST(DegradationLadder, SlcDemotionOfLineZeroKeepsCellsPerLine)
{
    // cellsPerLine() prices every line's reads and feeds the adaptive
    // policy's horizons; it is the nominal MLC width, so demoting
    // line 0 (whose cells double in SLC) must not move it.
    CellBackendConfig config;
    config.lines = 4;
    config.scheme = EccScheme::bch(4);
    config.ecpEntries = 0;
    config.seed = 29;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 1;
    config.degradation.slcFallback = true;
    CellBackend backend(config);
    const unsigned nominal = backend.cellsPerLine();
    EXPECT_EQ(nominal, backend.arrayView().line(1).cellCount());

    FaultCampaignConfig campaign;
    campaign.seed = 31;
    FaultInjector freezer(campaign);
    freezer.freezeCells(backend.array().line(0), 60);
    backend.fullDecode(0, secondsToTicks(1.0));
    ASSERT_TRUE(backend.arrayView().line(0).slcMode());
    ASSERT_NE(backend.arrayView().line(0).cellCount(), nominal);

    EXPECT_EQ(backend.cellsPerLine(), nominal);
}

} // namespace
} // namespace pcmscrub
