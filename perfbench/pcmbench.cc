/**
 * @file
 * pcmscrub benchmark.
 *
 *   pcmbench --workload NAME --seed N --seconds S --trace 0|1
 *            [--git-describe TEXT]
 *   pcmbench --selftest
 *
 * Repeats the workload (every job built from scratch each time) until
 * S host seconds have passed, checks every repetition's outputs, and
 * prints as its last stdout line one JSON object with the keys
 * correct, attempted, failed and metrics. With --trace 0 the metrics
 * are the end-to-end ones (medians over repetitions). With --trace 1
 * traced and untraced repetitions alternate; the metrics are the
 * per-layer ones from the traced repetitions, plus the tracing
 * overhead against the untraced ones. A provenance line precedes the
 * result; per-repetition detail and failed checks go to stderr.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.hh"
#include "common/simd.hh"
#include "common/thread_pool.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

/** Fewest repetitions of a run, so the digest check has a pair. */
constexpr std::size_t kMinReps = 3;

/** Set-up samples an untraced run aims for (see runBenchmark). */
constexpr std::size_t kMinSetupSamples = 15;

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool selftest = false;
    std::string gitDescribe = "unknown";
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pcmbench: %s\n"
                 "usage: pcmbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--git-describe TEXT]\n"
                 "       pcmbench --selftest\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--selftest") {
            args.selftest = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
            if (value.empty() || *end != '\0')
                usage("--seed takes a whole number");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (value.empty() || *end != '\0' || !(args.seconds > 0.0) ||
                args.seconds > 3600.0)
                usage("--seconds takes a number in (0, 3600]");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--git-describe") {
            args.gitDescribe = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!args.selftest && args.workload.empty())
        usage("--workload is required");
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Nearest-rank percentile. */
double
percentile(std::vector<double> values, double pct)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    return values[rank - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

const char *
isaDispatched()
{
#if PERFBENCH_AVX2 && (defined(__x86_64__) || defined(__i386__))
    if (pcmscrub::simd::enabled() && __builtin_cpu_supports("avx2"))
        return "avx2";
#endif
    return "scalar";
}

/** JSON object built in output order. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        char buf[64];
        std::snprintf(buf, sizeof buf, "%.17g", value);
        if (!body_.empty())
            body_ += ", ";
        body_ += "\"" + name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + unit + "\"}";
    }

    const std::string &json() const { return body_; }

  private:
    std::string body_;
};

/** Device-layer profile of a traced repetition, summed over jobs. */
struct LayerSample
{
    const RepResult *rep = nullptr;
    LayerProfile profile;
    double setupBackendS = 0.0;
    double setupPolicyS = 0.0;
    std::uint64_t wakes = 0;
};

LayerSample
layerSample(const RepResult &rep)
{
    LayerSample s;
    s.rep = &rep;
    for (const JobResult &job : rep.jobs) {
        s.setupBackendS += job.setupBackend.cpuS;
        s.setupPolicyS += job.setupPolicy.cpuS;
        s.wakes += job.wakes;
        const LayerProfile &p = *job.profile;
        for (std::size_t op = 0; op < kOpCount; ++op)
            s.profile.ops[op].add(p.ops[op]);
        s.profile.wakeS += p.wakeS;
        s.profile.selfS += p.selfS;
        s.profile.wakeDurationsS.insert(s.profile.wakeDurationsS.end(),
                                        p.wakeDurationsS.begin(),
                                        p.wakeDurationsS.end());
        s.profile.activeShardShareSum += p.activeShardShareSum;
        s.profile.imbalanceWeight += p.imbalanceWeight;
        s.profile.imbalanceWeighted += p.imbalanceWeighted;
    }
    return s;
}

/** Median over repetitions of one derived value. */
template <class F>
double
medianOf(const std::vector<RepResult> &reps, F &&value)
{
    std::vector<double> values;
    for (const RepResult &rep : reps)
        values.push_back(value(rep));
    return median(values);
}

/**
 * Per-layer metrics, all taken from one traced repetition, the one
 * with the median wake time, so that they add up: at one thread
 * scrub.self_s plus every op's busy_s is scrub.wake_s.
 */
void
addLayerMetrics(Metrics &out, const std::vector<RepResult> &reps)
{
    std::vector<LayerSample> traced;
    std::vector<double> tracedCpu, plainCpu, plainWall, plainRate;
    for (const RepResult &rep : reps) {
        if (rep.traced) {
            traced.push_back(layerSample(rep));
            tracedCpu.push_back(rep.total.cpuS);
        } else {
            plainCpu.push_back(rep.total.cpuS);
            plainWall.push_back(rep.total.wallS);
            plainRate.push_back(ratio(static_cast<double>(rep.lineChecks),
                                      rep.sim.wallS));
        }
    }
    std::sort(traced.begin(), traced.end(),
              [](const LayerSample &a, const LayerSample &b) {
                  return a.profile.wakeS < b.profile.wakeS;
              });
    const LayerSample &s = traced[(traced.size() - 1) / 2];
    const LayerProfile &p = s.profile;
    std::vector<double> wakeMs;
    for (const double d : p.wakeDurationsS)
        wakeMs.push_back(1e3 * d);
    auto op = [&](Op which) -> const OpTally & {
        return p.ops[static_cast<std::size_t>(which)];
    };
    auto count = [&](const std::string &name, double v) {
        out.add(name, v, "count");
    };

    out.add("scrub.wake_s", p.wakeS, "s");
    out.add("scrub.self_s", p.selfS, "s");
    count("scrub.wakes", static_cast<double>(s.wakes));
    out.add("scrub.wake_ms_p50", percentile(wakeMs, 50.0), "ms");
    out.add("scrub.wake_ms_p99", percentile(wakeMs, 99.0), "ms");
    out.add("scrub.active_shard_share",
            ratio(p.activeShardShareSum, static_cast<double>(s.wakes)),
            "share");
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const Op which = static_cast<Op>(i);
        const std::string base = std::string("scrub.backend.") +
            opName(which);
        count(base + ".calls", static_cast<double>(op(which).calls));
        out.add(base + ".busy_s", op(which).busyS, "s");
    }
    for (const Op gate : {Op::LightDetect, Op::EccCheck}) {
        out.add(std::string("scrub.backend.") + opName(gate) +
                    ".clean_share",
                ratio(static_cast<double>(op(gate).clean),
                      static_cast<double>(op(gate).calls)),
                "share");
    }
    count("scrub.backend.full_decode.ladder_calls",
          static_cast<double>(op(Op::FullDecode).ladderCalls));
    out.add("scrub.backend.full_decode.ladder_busy_s",
            op(Op::FullDecode).ladderBusyS, "s");
    out.add("scrub.backend.shard_busy_max_over_mean",
            ratio(p.imbalanceWeighted, p.imbalanceWeight), "x");
    out.add("setup.backend_s", s.setupBackendS, "s");
    out.add("setup.policy_s", s.setupPolicyS, "s");

    pcmscrub::FaultInjectorStats f;
    pcmscrub::ScrubMetrics m;
    const JobResult *basic = nullptr;
    const JobResult *combined = nullptr;
    for (const JobResult &job : s.rep->jobs) {
        f.stuckCellsInjected += job.faults.stuckCellsInjected;
        f.transientFlips += job.faults.transientFlips;
        f.bursts += job.faults.bursts;
        f.miscorrections += job.faults.miscorrections;
        f.metadataCorruptions += job.faults.metadataCorruptions;
        f.droppedInjections += job.faults.droppedInjections;
        m.merge(job.metrics);
        if (job.label == "e10_basic_hourly")
            basic = &job;
        if (job.label == "e10_combined")
            combined = &job;
    }
    count("faults.stuck_cells", f.stuckCellsInjected);
    count("faults.transient_flips", f.transientFlips);
    count("faults.bursts", f.bursts);
    count("faults.miscorrections", f.miscorrections);
    count("faults.metadata_corruptions", f.metadataCorruptions);
    count("faults.dropped_injections", f.droppedInjections);
    count("ladder.retries", m.ueRetries);
    count("ladder.retry_resolved", m.ueRetryResolved);
    count("ladder.ecp_repaired", m.ueEcpRepaired);
    count("ladder.ppr_remapped", m.uePprRemapped);
    count("ladder.retired", m.ueRetired);
    count("ladder.slc_fallbacks", m.ueSlcFallbacks);
    count("ladder.surfaced", m.ueSurfaced);
    count("ladder.spares_remaining", m.sparesRemaining);
    count("ladder.ppr_spares_remaining", m.pprSparesRemaining);
    out.add("ladder.capacity_lost_bits",
            static_cast<double>(m.capacityLostBits), "bits");
    count("sim.line_checks", m.linesChecked);
    count("sim.full_decodes", m.fullDecodes);
    count("sim.scrub_rewrites", m.scrubRewrites);
    out.add("sim.ue_total", m.totalUncorrectable(), "events");
    out.add("sim.energy_pj", m.energy.total(), "pJ");

    // The E10 ratios as tab_headline prints them; 0 on workloads
    // without the E10 pair.
    double ueCut = 0.0, writeCut = 0.0, energyCut = 0.0;
    if (basic != nullptr && combined != nullptr) {
        const pcmscrub::ScrubMetrics &b = basic->metrics;
        const pcmscrub::ScrubMetrics &c = combined->metrics;
        ueCut = 100.0 *
            (1.0 - c.totalUncorrectable() /
                 std::max(b.totalUncorrectable(), 1e-9));
        writeCut = static_cast<double>(b.scrubRewrites) /
            std::max<double>(static_cast<double>(c.scrubRewrites), 1.0);
        energyCut = 100.0 * (1.0 - c.energy.total() / b.energy.total());
    }
    out.add("sim.e10_ue_reduction_pct", ueCut, "%");
    out.add("sim.e10_write_reduction_x", writeCut, "x");
    out.add("sim.e10_energy_reduction_pct", energyCut, "%");

    // 53 bits, so the value survives a JSON double exactly.
    out.add("sim.stats_digest",
            static_cast<double>(s.rep->digest & ((1ULL << 53) - 1)), "hash");
    out.add("trace.overhead_share",
            ratio(median(tracedCpu), median(plainCpu)) - 1.0, "share");
    out.add("wall.total_s", median(plainWall), "s");
    out.add("wall.line_checks_per_s", median(plainRate), "1/s");
}

void
addEndToEndMetrics(Metrics &out, const std::vector<RepResult> &reps,
                   const std::vector<double> &setupCpuS)
{
    out.add("setup_s", median(setupCpuS), "s");
    out.add("cpu_s", medianOf(reps, [](auto &r) { return r.total.cpuS; }),
            "s");
    out.add("line_checks_per_cpu_s", medianOf(reps, [](auto &r) {
                return ratio(static_cast<double>(r.lineChecks), r.sim.cpuS);
            }),
            "1/s");
    out.add("peak_rss_mb", peakRssMb(), "MB");
}

void
printProvenance(const Args &args, const Workload &w,
                const std::vector<RepResult> &reps)
{
    std::string fingerprints;
    for (const JobResult &job : reps.front().jobs) {
        char buf[64];
        std::snprintf(buf, sizeof buf, "%s\"%016" PRIx64 "\"",
                      fingerprints.empty() ? "" : ", ", job.fingerprint);
        fingerprints += buf;
    }
    std::size_t traced = 0;
    for (const RepResult &rep : reps)
        traced += rep.traced ? 1 : 0;
    std::printf("{\"provenance\": {\"git_describe\": \"%s\", "
                "\"compiler\": \"%s %s\", \"build_type\": \"%s\", "
                "\"isa\": \"%s\", \"nproc\": %u, \"threads\": %u, "
                "\"workload\": \"%s\", \"seed\": %" PRIu64 ", "
                "\"seconds\": %g, \"reps\": %zu, \"traced_reps\": %zu, "
                "\"checkpoint_fingerprints\": [%s]}}\n",
                args.gitDescribe.c_str(),
#ifdef __clang__
                "clang",
#else
                "gcc",
#endif
                __VERSION__, PERFBENCH_BUILD_TYPE,
                isaDispatched(), std::thread::hardware_concurrency(),
                pcmscrub::ThreadPool::global().threadCount(),
                w.name.c_str(), args.seed, args.seconds, reps.size(), traced,
                fingerprints.c_str());
}

int
runBenchmark(const Args &args)
{
    const std::optional<Workload> workload =
        makeWorkload(args.workload, args.seed, Scale::Full);
    if (!workload)
        usage(("unknown workload " + args.workload).c_str());
    pcmscrub::ThreadPool &pool = pcmscrub::ThreadPool::global();

    // A multi-thread workload must reproduce its one-thread result, so
    // one untimed repetition at one thread gives the reference digest.
    std::optional<std::uint64_t> serialDigest;
    if (workload->threads > 1) {
        pool.resize(1);
        serialDigest = runRep(*workload, false).digest;
        std::fprintf(stderr, "1-thread reference digest %016" PRIx64 "\n",
                     *serialDigest);
    }
    pool.resize(workload->threads);

    // Traced runs alternate traced and untraced repetitions, so both
    // sides of the overhead ratio see the same host conditions.
    const std::size_t minReps = args.trace ? 2 * kMinReps : kMinReps;
    std::vector<RepResult> reps;
    const Clock::time_point start = Clock::now();
    while (reps.size() < minReps || secondsSince(start) < args.seconds) {
        const bool traced = args.trace && reps.size() % 2 == 0;
        reps.push_back(runRep(*workload, traced));
        const RepResult &rep = reps.back();
        std::fprintf(stderr,
                     "rep %zu%s: setup %.3f s (cpu %.3f), sim %.3f s "
                     "(cpu %.3f), %" PRIu64 " line checks, digest %016" PRIx64
                     "\n",
                     reps.size() - 1, rep.traced ? " traced" : "",
                     rep.setup.wallS, rep.setup.cpuS, rep.sim.wallS,
                     rep.sim.cpuS, rep.lineChecks, rep.digest);
        for (const JobResult &job : rep.jobs) {
            std::fprintf(stderr,
                         "  %s: setup %.3f + %.3f s, sim %.3f s, "
                         "%" PRIu64 " wakes\n",
                         job.label.c_str(), job.setupBackend.wallS,
                         job.setupPolicy.wallS, job.sim.wallS, job.wakes);
        }
    }

    // Every failed instance is logged; the result counts one check per
    // name over the whole run, so its counts do not vary with how many
    // repetitions fit in the run. `correct` covers the invariants of
    // each simulated result. A digest that differs from the reference
    // is a determinism failure: that counts in `failed` (so a fix
    // shows as a drop in failures) without marking the results wrong.
    std::vector<Check> invariants;
    for (const RepResult &rep : reps) {
        std::vector<Check> more = checkRep(rep);
        invariants.insert(invariants.end(), more.begin(), more.end());
    }
    const std::vector<Check> digests = checkDigests(reps, serialDigest);
    std::vector<Check> all = invariants;
    all.insert(all.end(), digests.begin(), digests.end());
    for (const Check &c : all) {
        if (!c.ok)
            std::fprintf(stderr, "CHECK FAILED %s: %s\n", c.name.c_str(),
                         c.detail.c_str());
    }
    auto countFailed = [](const std::vector<Check> &checks) {
        return static_cast<std::size_t>(
            std::count_if(checks.begin(), checks.end(),
                          [](const Check &c) { return !c.ok; }));
    };
    const std::vector<Check> invariantsRun = foldByName(invariants);
    const std::vector<Check> digestsRun = foldByName(digests);
    const std::size_t broken = countFailed(invariantsRun);
    const std::size_t failed = broken + countFailed(digestsRun);

    Metrics metrics;
    if (args.trace) {
        addLayerMetrics(metrics, reps);
    } else {
        // Cheap set-ups get extra samples, within a tenth of the run.
        std::vector<double> setupCpuS;
        for (const RepResult &rep : reps)
            setupCpuS.push_back(rep.setup.cpuS);
        const Clock::time_point extraStart = Clock::now();
        while (setupCpuS.size() < kMinSetupSamples &&
               secondsSince(extraStart) < 0.1 * args.seconds)
            setupCpuS.push_back(setupOnce(*workload).cpuS);
        addEndToEndMetrics(metrics, reps, setupCpuS);
    }

    printProvenance(args, *workload, reps);
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                broken == 0 ? "true" : "false",
                invariantsRun.size() + digestsRun.size(), failed,
                metrics.json().c_str());
    return 0;
}

// Self-tests ----------------------------------------------------------

bool
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    return ok;
}

bool
anyFailed(const std::vector<Check> &checks, const std::string &name)
{
    for (const Check &c : checks) {
        if (!c.ok && c.name == name)
            return true;
    }
    return false;
}

bool
allOk(const std::vector<Check> &checks)
{
    return std::all_of(checks.begin(), checks.end(),
                       [](const Check &c) { return c.ok; });
}

int
runSelftest()
{
    bool ok = true;
    pcmscrub::ThreadPool &pool = pcmscrub::ThreadPool::global();

    const Workload paper = *makeWorkload("paper_slice", 7, Scale::Smoke);
    pool.resize(paper.threads);
    const RepResult plain = runRep(paper, false);
    const RepResult traced = runRep(paper, true);
    ok &= expect(plain.digest == traced.digest,
                 "paper_slice: traced and untraced digests are equal");
    ok &= expect(allOk(checkRep(plain)) && allOk(checkRep(traced)),
                 "paper_slice: every output check passes");

    const Workload clean = *makeWorkload("cell_clean", 7, Scale::Smoke);
    pool.resize(1);
    const RepResult serial = runRep(clean, false);
    pool.resize(std::max(2u, clean.threads));
    const RepResult parallel = runRep(clean, false);
    const RepResult parallelTraced = runRep(clean, true);
    ok &= expect(serial.digest == parallel.digest,
                 "cell_clean: 1-thread and multi-thread digests are equal");
    ok &= expect(parallel.digest == parallelTraced.digest,
                 "cell_clean: traced and untraced digests are equal");
    ok &= expect(allOk(checkRep(parallelTraced)),
                 "cell_clean: every output check passes");

    // The checker must flag each kind of doctored result.
    RepResult bad = traced;
    bad.jobs[0].metrics.linesChecked += 1;
    std::vector<Check> checks = checkRep(bad);
    ok &= expect(anyFailed(checks, "e10_basic_hourly.sweep_coverage") &&
                     anyFailed(checks, "e10_basic_hourly.visits_eq_checks"),
                 "checker flags a doctored line-check count");
    bad = plain;
    std::swap(bad.jobs[0].metrics, bad.jobs[1].metrics);
    checks = checkRep(bad);
    ok &= expect(anyFailed(checks, "e10.fewer_ues") &&
                     anyFailed(checks, "e10.fewer_writes") &&
                     anyFailed(checks, "e10.less_energy"),
                 "checker flags a reversed E10 ordering");
    bad = plain;
    bad.jobs[2].metrics.sparesRemaining += 1;
    bad.jobs[2].metrics.fullDecodes = bad.jobs[2].metrics.linesChecked + 1;
    checks = checkRep(bad);
    ok &= expect(anyFailed(checks, "fault_campaign_x2.spares_conserved") &&
                     anyFailed(checks, "fault_campaign_x2.decodes_le_checks"),
                 "checker flags unconserved spares and excess decodes");
    bad = traced;
    bad.digest ^= 1;
    ok &= expect(!allOk(checkDigests({plain, bad})),
                 "checker flags a digest that differs between reps");
    ok &= expect(allOk(checkDigests({plain, traced}, plain.digest)) &&
                     !allOk(checkDigests({plain}, plain.digest ^ 1)),
                 "checker flags a rep that differs from the 1-thread run");
    const std::vector<Check> folded =
        foldByName(checkDigests({plain, plain, bad, plain}));
    ok &= expect(folded.size() == 1 && !folded[0].ok &&
                     folded[0].detail.find("(1 of 3 failed)") !=
                         std::string::npos,
                 "a run counts one digest check, failed by any rep");

    pool.resize(1);
    std::printf("%s\n", ok ? "selftest passed" : "selftest FAILED");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    return args.selftest ? runSelftest() : runBenchmark(args);
}
