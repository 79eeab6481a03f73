#include "timing_backend.hh"

#include <algorithm>
#include <utility>

namespace perfbench {

const char *
opName(Op op)
{
    switch (op) {
    case Op::LightDetect: return "light_detect";
    case Op::EccCheck: return "ecc_check";
    case Op::FullDecode: return "full_decode";
    case Op::Rewrite: return "rewrite";
    case Op::Repair: return "repair";
    case Op::MarginScan: return "margin_scan";
    case Op::LastFullWrite: return "last_full_write";
    case Op::Visit: return "visit";
    case Op::DemandWrite: return "demand_write";
    case Op::Count: break;
    }
    return "?";
}

void
TimingBackend::wake(pcmscrub::ScrubPolicy &policy, Tick now,
                    LayerProfile &profile)
{
    for (Slot &slot : slots_) {
        slot.wakeBusyS = 0.0;
        slot.wakeVisits = 0;
        slot.worker = std::thread::id{};
    }
    const Clock::time_point start = Clock::now();
    policy.wake(*this, now);
    const double took = secondsSince(start);

    // Shards a worker ran execute back to back on that worker, so its
    // device time is the summed busy time of those shards.
    std::vector<std::pair<std::thread::id, double>> workers;
    std::size_t active = 0;
    double busy = 0.0;
    double slowest = 0.0;
    std::uint64_t visits = 0;
    for (const Slot &slot : slots_) {
        visits += slot.wakeVisits;
        if (slot.worker == std::thread::id{})
            continue;
        ++active;
        busy += slot.wakeBusyS;
        slowest = std::max(slowest, slot.wakeBusyS);
        auto it = std::find_if(workers.begin(), workers.end(),
                               [&](const auto &w) {
                                   return w.first == slot.worker;
                               });
        if (it == workers.end())
            workers.emplace_back(slot.worker, slot.wakeBusyS);
        else
            it->second += slot.wakeBusyS;
    }
    double critical = 0.0;
    for (const auto &w : workers)
        critical = std::max(critical, w.second);

    profile.wakeS += took;
    profile.selfS += std::max(0.0, took - critical);
    profile.wakeDurationsS.push_back(took);
    profile.wakeVisits.push_back(visits);
    profile.activeShardShareSum += static_cast<double>(active) /
        static_cast<double>(slots_.size());
    if (active > 0 && busy > 0.0) {
        const double mean = busy / static_cast<double>(active);
        profile.imbalanceWeight += busy;
        profile.imbalanceWeighted += busy * (slowest / mean);
    }
}

void
TimingBackend::collect(LayerProfile &profile) const
{
    for (const Slot &slot : slots_) {
        for (std::size_t op = 0; op < kOpCount; ++op)
            profile.ops[op].add(slot.ops[op]);
        profile.repeatVisits += slot.repeatVisits;
    }
}

} // namespace perfbench
