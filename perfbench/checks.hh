/**
 * @file
 * Output checks: invariants every simulated result must satisfy,
 * the paper's E10 ordering, and agreement of the stats digest across
 * the repetitions of one workload and seed.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "workloads.hh"

namespace perfbench {

struct Check
{
    std::string name;
    bool ok = false;
    std::string detail; //!< What was compared, for the failure log.
};

/**
 * Conservation on every job of one repetition (visits equal
 * linesChecked, each sweep visits every line once, decodes never
 * exceed checks, spares and PPR rows are conserved) and, when the
 * repetition holds the E10 pair, the paper's ordering: the combined
 * mechanism beats hourly basic scrub on UEs, writes and energy.
 */
std::vector<Check> checkRep(const RepResult &rep);

/**
 * Digest agreement. With a `serial` digest (a one-thread run of the
 * same workload and seed), one check per repetition: its stats digest
 * equals the serial one, so a multi-thread result that depends on
 * thread timing fails on every repetition that shows it. Without one,
 * one check per repetition after the first, against the first. Traced
 * and untraced repetitions are compared alike, so a tracing side
 * effect also fails here.
 */
std::vector<Check>
checkDigests(const std::vector<RepResult> &reps,
             std::optional<std::uint64_t> serial = std::nullopt);

/**
 * One check per name, in first-seen order: it holds when every check
 * of that name holds, and otherwise carries the first failure's detail
 * and how many of the instances failed. A run's result counts these,
 * so `attempted` and `failed` do not depend on how many repetitions
 * fit in the run.
 */
std::vector<Check> foldByName(const std::vector<Check> &checks);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
