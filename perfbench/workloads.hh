/**
 * @file
 * The benchmark's workloads and the closed event loop that runs
 * them. A workload is a list of jobs (one backend + policy each); a
 * repetition ("rep") runs every job once, constructing it from
 * scratch so set-up is measured on every rep.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "faults/fault_injector.hh"
#include "scrub/analytic_backend.hh"
#include "scrub/cell_backend.hh"
#include "scrub/factory.hh"
#include "timing_backend.hh"

namespace perfbench {

/** Full benchmark sizes, or the small ones the self-tests use. */
enum class Scale { Full, Smoke };

/** One backend + policy run. */
struct Job
{
    std::string label;
    std::variant<pcmscrub::AnalyticConfig, pcmscrub::CellBackendConfig>
        device;
    pcmscrub::PolicySpec policy;
    std::optional<pcmscrub::FaultCampaignConfig> campaign;
    pcmscrub::Tick horizon = 0;

    /**
     * Poisson demand writes the event loop issues between wakes, per line
     * per simulated second (cell backend only; the analytic backend
     * materialises its own demand traffic lazily).
     */
    double demandWritesPerLinePerS = 0.0;
    std::uint64_t demandSeed = 0;
};

struct Workload
{
    std::string name;
    unsigned threads = 1;
    std::vector<Job> jobs;
};

/**
 * Build a workload from its name and seed; std::nullopt for an
 * unknown name. `threads` is capped at the host's core count.
 */
std::optional<Workload> makeWorkload(const std::string &name,
                                     std::uint64_t seed, Scale scale);

/** Outcome of one job. */
struct JobResult
{
    std::string label;
    std::uint64_t lines = 0;
    std::uint64_t wakes = 0;

    /** Interval sweep: every wake visits every line once. */
    bool sweep = false;

    pcmscrub::ScrubMetrics metrics;
    pcmscrub::FaultInjectorStats faults;

    /** Provisioned and consumed ladder resources. */
    std::uint64_t spareLines = 0;
    std::uint64_t pprRows = 0;
    std::uint64_t sparesUsed = 0;
    std::uint64_t pprUsed = 0;

    std::uint64_t fingerprint = 0;

    /** Hash of ScrubMetrics::saveState plus the injector stats. */
    std::uint64_t digest = 0;

    HostTime setupBackend;
    HostTime setupPolicy;
    HostTime sim;

    /** Traced runs only: device-layer profile of this job. */
    std::optional<LayerProfile> profile;
};

/** Outcome of one repetition of a workload. */
struct RepResult
{
    bool traced = false;
    std::vector<JobResult> jobs;

    HostTime setup; //!< Backend + injector + policy construction.
    HostTime sim;   //!< Event loop (wakes + demand writes).
    HostTime total; //!< Set-up + event loop.

    std::uint64_t lineChecks = 0;

    /** Order-dependent combination of the job digests. */
    std::uint64_t digest = 0;
};

/**
 * Construct every job's backend, fault injector and policy, discard
 * them, and return the host time construction took: an extra set-up
 * sample.
 */
HostTime setupOnce(const Workload &workload);

/** Run every job of a workload once. */
RepResult runRep(const Workload &workload, bool traced);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
