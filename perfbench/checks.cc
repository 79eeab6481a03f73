#include "checks.hh"

#include <cinttypes>
#include <cstdio>
#include <map>

namespace perfbench {

namespace {

std::string
format(const char *fmt, std::uint64_t a, std::uint64_t b)
{
    char buf[96];
    std::snprintf(buf, sizeof buf, fmt, a, b);
    return buf;
}

void
add(std::vector<Check> &out, std::string name, bool ok,
    std::string detail)
{
    out.push_back(Check{std::move(name), ok, std::move(detail)});
}

void
checkJob(const JobResult &job, std::vector<Check> &out)
{
    const pcmscrub::ScrubMetrics &m = job.metrics;
    const std::string &p = job.label;

    add(out, p + ".decodes_le_checks", m.fullDecodes <= m.linesChecked,
        format("full decodes %" PRIu64 " vs line checks %" PRIu64,
               m.fullDecodes, m.linesChecked));
    if (job.sweep) {
        add(out, p + ".sweep_coverage",
            m.linesChecked == job.wakes * job.lines,
            format("line checks %" PRIu64 " vs wakes x lines %" PRIu64,
                   m.linesChecked, job.wakes * job.lines));
    }
    add(out, p + ".spares_conserved",
        m.sparesRemaining + m.ueRetired == job.spareLines &&
            job.sparesUsed == m.ueRetired,
        format("remaining + retired %" PRIu64 " vs provisioned %" PRIu64,
               m.sparesRemaining + m.ueRetired, job.spareLines));
    add(out, p + ".ppr_conserved",
        m.pprSparesRemaining + m.uePprRemapped == job.pprRows &&
            job.pprUsed == m.uePprRemapped,
        format("remaining + remapped %" PRIu64 " vs provisioned %" PRIu64,
               m.pprSparesRemaining + m.uePprRemapped, job.pprRows));

    if (!job.profile)
        return;
    const LayerProfile &prof = *job.profile;
    const std::uint64_t visits =
        prof.ops[static_cast<std::size_t>(Op::Visit)].calls;
    add(out, p + ".visits_eq_checks", visits == m.linesChecked,
        format("visits %" PRIu64 " vs line checks %" PRIu64, visits,
               m.linesChecked));
    std::uint64_t shortWakes = 0;
    if (job.sweep) {
        for (const std::uint64_t v : prof.wakeVisits)
            shortWakes += v != job.lines ? 1 : 0;
    }
    add(out, p + ".visits_once_per_wake",
        prof.repeatVisits == 0 && shortWakes == 0,
        format("repeated visits %" PRIu64 ", sweeps not covering "
               "every line %" PRIu64,
               prof.repeatVisits, shortWakes));
}

const JobResult *
findJob(const RepResult &rep, const std::string &label)
{
    for (const JobResult &job : rep.jobs) {
        if (job.label == label)
            return &job;
    }
    return nullptr;
}

} // namespace

std::vector<Check>
checkRep(const RepResult &rep)
{
    std::vector<Check> out;
    for (const JobResult &job : rep.jobs)
        checkJob(job, out);

    const JobResult *basic = findJob(rep, "e10_basic_hourly");
    const JobResult *combined = findJob(rep, "e10_combined");
    if (basic != nullptr && combined != nullptr) {
        const pcmscrub::ScrubMetrics &b = basic->metrics;
        const pcmscrub::ScrubMetrics &c = combined->metrics;
        char buf[128];
        std::snprintf(buf, sizeof buf, "combined %.6g vs basic %.6g UEs",
                      c.totalUncorrectable(), b.totalUncorrectable());
        add(out, "e10.fewer_ues",
            c.totalUncorrectable() < b.totalUncorrectable(), buf);
        add(out, "e10.fewer_writes", c.scrubRewrites < b.scrubRewrites,
            format("combined %" PRIu64 " vs basic %" PRIu64 " rewrites",
                   c.scrubRewrites, b.scrubRewrites));
        std::snprintf(buf, sizeof buf,
                      "combined %.6g vs basic %.6g pJ",
                      c.energy.total(), b.energy.total());
        add(out, "e10.less_energy", c.energy.total() < b.energy.total(),
            buf);
    }
    return out;
}

std::vector<Check>
checkDigests(const std::vector<RepResult> &reps,
             std::optional<std::uint64_t> serial)
{
    std::vector<Check> out;
    if (reps.empty())
        return out;
    const std::uint64_t reference = serial.value_or(reps[0].digest);
    const char *against = serial ? "1-thread run" : "rep 0";
    for (std::size_t i = serial ? 0 : 1; i < reps.size(); ++i) {
        char buf[160];
        std::snprintf(buf, sizeof buf,
                      "rep %zu%s digest %016" PRIx64 " vs %s %016" PRIx64,
                      i, reps[i].traced ? " (traced)" : "",
                      reps[i].digest, against, reference);
        add(out, "stats_digest_agrees", reps[i].digest == reference, buf);
    }
    return out;
}

std::vector<Check>
foldByName(const std::vector<Check> &checks)
{
    std::vector<Check> out;
    std::vector<std::size_t> instances, failures;
    std::map<std::string, std::size_t> index;
    for (const Check &c : checks) {
        const auto [it, fresh] = index.emplace(c.name, out.size());
        if (fresh) {
            out.push_back(Check{c.name, true, ""});
            instances.push_back(0);
            failures.push_back(0);
        }
        const std::size_t i = it->second;
        ++instances[i];
        if (c.ok)
            continue;
        if (out[i].ok)
            out[i].detail = c.detail;
        out[i].ok = false;
        ++failures[i];
    }
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (!out[i].ok) {
            out[i].detail += " (" + std::to_string(failures[i]) + " of " +
                std::to_string(instances[i]) + " failed)";
        }
    }
    return out;
}

} // namespace perfbench
