#include "faults/degradation.hh"

#include "common/logging.hh"
#include "common/serialize.hh"

namespace pcmscrub {

const char *
degradationStageName(DegradationStage stage)
{
    switch (stage) {
      case DegradationStage::None:
        return "none";
      case DegradationStage::Retry:
        return "retry";
      case DegradationStage::EcpRepair:
        return "ecp_repair";
      case DegradationStage::PprRemap:
        return "ppr_remap";
      case DegradationStage::Retire:
        return "retire";
      case DegradationStage::SlcFallback:
        return "slc_fallback";
      case DegradationStage::HostVisible:
        return "host_visible";
      default:
        panic("bad degradation stage %u",
              static_cast<unsigned>(stage));
    }
}

void
DegradationConfig::addToFingerprint(Fingerprint &fp) const
{
    fp.u64(enabled ? 1 : 0);
    fp.u64(maxRetries);
    fp.f64(retryMarginWiden);
    fp.f64(retryResolveProb);
    fp.u64(ecpRepair ? 1 : 0);
    fp.u64(spareLines);
    fp.u64(slcFallback ? 1 : 0);
    fp.u64(pprSpareRows);
    fp.u64(pprUeThreshold);
}

} // namespace pcmscrub
