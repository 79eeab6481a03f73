#include "workloads.hh"

#include <algorithm>
#include <limits>
#include <memory>
#include <thread>

#include "bench_util.hh"
#include "common/random.hh"
#include "common/serialize.hh"
#include "mem/metadata.hh"
#include "mem/ppr.hh"
#include "scrub/policy.hh"

namespace perfbench {

using namespace pcmscrub;
using bench::kDay;
using bench::kHour;
using bench::kMinute;

namespace {

unsigned
capThreads(unsigned wanted)
{
    const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
    return std::min(wanted, cores);
}

/**
 * The paper suite's E10 pair (tab_headline: hourly SECDED basic scrub
 * versus the combined BCH-8 mechanism) and the degradation-ladder run
 * of fig_fault_campaign at intensity 2, on the analytic backend at
 * one thread, as the paper suite runs them.
 */
Workload
paperSlice(std::uint64_t seed, Scale scale)
{
    const bool full = scale == Scale::Full;
    const std::uint64_t lines = full ? 512 : 96;
    const Tick horizon = full ? 6 * kDay : 2 * kDay;

    Workload w;
    w.name = "paper_slice";
    w.threads = 1;

    Job basic;
    basic.label = "e10_basic_hourly";
    basic.device = bench::standardConfig(EccScheme::secdedX8(), lines, seed);
    basic.policy = bench::baselineSpec();
    basic.horizon = horizon;
    w.jobs.push_back(basic);

    Job combined;
    combined.label = "e10_combined";
    combined.device = bench::standardConfig(EccScheme::bch(8), lines, seed);
    combined.policy = bench::combinedSpec();
    combined.horizon = horizon;
    w.jobs.push_back(combined);

    // fig_fault_campaign's ladder-on device and campaign at 2x.
    const double intensity = 2.0;
    AnalyticConfig ladder =
        bench::standardConfig(EccScheme::secdedX8(), full ? 1024 : 128, seed);
    ladder.ecpEntries = 4;
    ladder.degradation.enabled = true;
    ladder.degradation.maxRetries = 2;
    ladder.degradation.spareLines = 32;
    ladder.degradation.slcFallback = true;
    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.02 * intensity;
    campaign.wearCorrelation = 4.0;
    campaign.disturbFlipsPerRead = 0.5 * intensity;
    campaign.burstProbPerRead = 0.02 * intensity;
    campaign.burstBits = 6;
    campaign.metadataCorruptionProb = 0.001 * intensity;
    campaign.seed = seed + 1227;

    Job faulty;
    faulty.label = "fault_campaign_x2";
    faulty.device = ladder;
    faulty.policy.kind = PolicyKind::StrongEcc;
    faulty.policy.interval = kHour;
    faulty.campaign = campaign;
    faulty.horizon = full ? 10 * kDay : 2 * kDay;
    w.jobs.push_back(faulty);
    return w;
}

/**
 * A large, clean, read-mostly array: light-detect sweeps with no
 * faults and no demand traffic, so the lazy-drift fast path, sensing
 * and the light detector carry the run.
 */
Workload
cellClean(std::uint64_t seed, Scale scale)
{
    const bool full = scale == Scale::Full;
    CellBackendConfig config;
    config.lines = full ? 128 * 1024 : 4096;
    config.scheme = EccScheme::bch(8);
    config.seed = seed;

    Job job;
    job.label = "cell_clean";
    job.device = config;
    job.policy.kind = PolicyKind::LightDetect;
    job.policy.interval = 5 * kMinute;
    job.horizon = (full ? 16 : 4) * job.policy.interval;

    Workload w;
    w.name = "cell_clean";
    w.threads = capThreads(4);
    w.jobs.push_back(job);
    return w;
}

/**
 * A small array under a heavy wear-correlated fault campaign (10x
 * the parallel-determinism test's light campaign) with demand writes
 * between hourly strong-ECC sweeps; the ladder's spares and PPR rows
 * are provisioned small enough to run out.
 */
Workload
cellFaulty(std::uint64_t seed, Scale scale)
{
    const bool full = scale == Scale::Full;
    CellBackendConfig config;
    config.lines = full ? 4096 : 512;
    config.scheme = EccScheme::bch(8);
    config.ecpEntries = 4;
    config.seed = seed;
    config.degradation.enabled = true;
    config.degradation.maxRetries = 2;
    config.degradation.spareLines = config.lines / 16;
    config.degradation.pprSpareRows = config.lines / 64;
    config.degradation.slcFallback = true;

    FaultCampaignConfig campaign;
    campaign.stuckPerWrite = 0.5;
    campaign.wearCorrelation = 4.0;
    campaign.disturbFlipsPerRead = 1.0;
    campaign.burstProbPerRead = 0.2;
    campaign.burstBits = 6;
    campaign.miscorrectionProb = 0.1;
    campaign.metadataCorruptionProb = 0.1;
    campaign.seed = seed * 31 + 5;

    Job job;
    job.label = "cell_faulty";
    job.device = config;
    job.policy.kind = PolicyKind::StrongEcc;
    job.policy.interval = kHour;
    job.campaign = campaign;
    job.horizon = full ? 48 * kHour : 12 * kHour;
    job.demandWritesPerLinePerS = 2e-5;
    job.demandSeed = seed + 1;

    Workload w;
    w.name = "cell_faulty";
    w.threads = capThreads(4);
    w.jobs.push_back(job);
    return w;
}

bool
isSweep(PolicyKind kind)
{
    return kind != PolicyKind::Adaptive && kind != PolicyKind::Combined;
}

std::uint64_t
digestOf(const ScrubMetrics &metrics, const FaultInjectorStats &faults)
{
    SnapshotSink sink;
    metrics.saveState(sink);
    Fingerprint fp;
    for (const std::uint8_t byte : sink.bytes())
        fp.u64(byte);
    fp.u64(faults.stuckCellsInjected);
    fp.u64(faults.transientFlips);
    fp.u64(faults.bursts);
    fp.u64(faults.miscorrections);
    fp.u64(faults.metadataCorruptions);
    fp.u64(faults.droppedInjections);
    return fp.value();
}

/** A job's device: backend plus its fault injector, if any. */
struct Device
{
    std::unique_ptr<FaultInjector> injector; //!< Outlives the backend.
    std::unique_ptr<ScrubBackend> backend;
    CellBackend *cell = nullptr; //!< The backend, when cell-accurate.
};

Device
buildDevice(const Job &job)
{
    Device d;
    if (const auto *config = std::get_if<AnalyticConfig>(&job.device)) {
        d.backend = std::make_unique<AnalyticBackend>(*config);
    } else {
        auto cell = std::make_unique<CellBackend>(
            std::get<CellBackendConfig>(job.device));
        d.cell = cell.get();
        d.backend = std::move(cell);
    }
    if (job.campaign) {
        d.injector = std::make_unique<FaultInjector>(*job.campaign);
        d.backend->setFaultInjector(d.injector.get());
    }
    return d;
}

JobResult
runJob(const Job &job, bool traced)
{
    JobResult result;
    result.label = job.label;
    result.sweep = isSweep(job.policy.kind);

    const Stopwatch setupStart;
    Device device = buildDevice(job);
    result.setupBackend = setupStart.elapsed();
    ScrubBackend *backend = device.backend.get();

    std::optional<TimingBackend> timing;
    if (traced)
        timing.emplace(*backend);
    ScrubBackend &target =
        timing ? static_cast<ScrubBackend &>(*timing) : *backend;

    const Stopwatch policyStart;
    const std::unique_ptr<ScrubPolicy> policy =
        makePolicy(job.policy, target);
    result.setupPolicy = policyStart.elapsed();

    // Closed loop on one event-loop thread: the next event in simulated
    // time is issued only once the previous one has completed.
    LayerProfile profile;
    const std::uint64_t lines = backend->lineCount();
    const double writeRate =
        job.demandWritesPerLinePerS * static_cast<double>(lines);
    Random demand = Random::stream(job.demandSeed, 0);
    double nextWrite = writeRate > 0.0
        ? demand.exponential(writeRate)
        : std::numeric_limits<double>::infinity();
    const Stopwatch simStart;
    for (;;) {
        const Tick scrubAt = policy->nextWake();
        const Tick writeAt = nextWrite > ticksToSeconds(job.horizon)
            ? job.horizon + 1
            : secondsToTicks(nextWrite);
        if (scrubAt > job.horizon && writeAt > job.horizon)
            break;
        if (writeAt <= scrubAt) {
            const LineIndex line = demand.uniformInt(lines);
            const Clock::time_point start = Clock::now();
            device.cell->demandWrite(line, writeAt);
            if (timing)
                timing->noteDemandWrite(line, start);
            nextWrite += demand.exponential(writeRate);
        } else {
            if (timing)
                timing->wake(*policy, scrubAt, profile);
            else
                policy->wake(*backend, scrubAt);
            ++result.wakes;
        }
    }
    result.sim = simStart.elapsed();

    result.lines = lines;
    result.metrics = backend->metrics();
    if (device.injector)
        result.faults = device.injector->stats();
    if (const SparePool *spares = backend->spares()) {
        result.spareLines = spares->capacity();
        result.sparesUsed = spares->retiredCount();
    }
    if (const PprRemapTable *ppr = backend->ppr()) {
        result.pprRows = ppr->capacity();
        result.pprUsed = ppr->remappedCount();
    }
    result.fingerprint = backend->checkpointFingerprint();
    result.digest = digestOf(result.metrics, result.faults);
    if (timing) {
        timing->collect(profile);
        result.profile = std::move(profile);
    }
    return result;
}

} // namespace

std::optional<Workload>
makeWorkload(const std::string &name, std::uint64_t seed, Scale scale)
{
    if (name == "paper_slice")
        return paperSlice(seed, scale);
    if (name == "cell_clean")
        return cellClean(seed, scale);
    if (name == "cell_faulty")
        return cellFaulty(seed, scale);
    return std::nullopt;
}

HostTime
setupOnce(const Workload &workload)
{
    HostTime took;
    for (const Job &job : workload.jobs) {
        const Stopwatch start;
        const Device device = buildDevice(job);
        const std::unique_ptr<ScrubPolicy> policy =
            makePolicy(job.policy, *device.backend);
        took += start.elapsed();
    }
    return took;
}

RepResult
runRep(const Workload &workload, bool traced)
{
    RepResult rep;
    rep.traced = traced;
    Fingerprint digest;
    for (const Job &job : workload.jobs) {
        JobResult result = runJob(job, traced);
        rep.setup += result.setupBackend;
        rep.setup += result.setupPolicy;
        rep.sim += result.sim;
        rep.lineChecks += result.metrics.linesChecked;
        digest.u64(result.digest);
        rep.jobs.push_back(std::move(result));
    }
    rep.total = rep.setup;
    rep.total += rep.sim;
    rep.digest = digest.value();
    return rep;
}

} // namespace perfbench
