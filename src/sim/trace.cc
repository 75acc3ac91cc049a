#include "sim/trace.h"

namespace memif::sim {

std::string_view
to_string(TracePoint p)
{
    switch (p) {
      case TracePoint::kSubmit: return "submit";
      case TracePoint::kKickIoctl: return "ioctl(MOV_ONE)";
      case TracePoint::kServeBegin: return "serve-begin";
      case TracePoint::kPrepDone: return "1:prep";
      case TracePoint::kRemapDone: return "2:remap";
      case TracePoint::kDmaConfigDone: return "3:dma-cfg";
      case TracePoint::kDmaStart: return "dma-start";
      case TracePoint::kDmaComplete: return "dma-complete";
      case TracePoint::kIrqEnter: return "irq-enter";
      case TracePoint::kReleaseDone: return "4:release";
      case TracePoint::kNotifyDone: return "5:notify";
      case TracePoint::kKthreadWake: return "kthread-wake";
      case TracePoint::kKthreadSleep: return "kthread-sleep";
      case TracePoint::kPolledWait: return "polled-wait";
      case TracePoint::kAborted: return "aborted";
      case TracePoint::kRaceDetected: return "race-detected";
      case TracePoint::kDmaError: return "dma-error";
      case TracePoint::kWatchdogFire: return "watchdog-fire";
      case TracePoint::kDmaRetry: return "dma-retry";
      case TracePoint::kFallbackCopy: return "fallback-copy";
      case TracePoint::kDmaFailed: return "dma-failed";
      case TracePoint::kDdrPressure: return "ddr-pressure";
      default: return "?";
    }
}

void
Tracer::dump(std::FILE *out) const
{
    for (const TraceRecord &r : records_) {
        if (r.req == TraceRecord::kNoTraceReq) {
            std::fprintf(out, "t=%10.2fus [%-7s] %s\n", to_us(r.time),
                         std::string(to_string(r.ctx)).c_str(),
                         std::string(to_string(r.point)).c_str());
        } else {
            std::fprintf(out, "t=%10.2fus [%-7s] %-14s req=%u\n",
                         to_us(r.time),
                         std::string(to_string(r.ctx)).c_str(),
                         std::string(to_string(r.point)).c_str(), r.req);
        }
    }
}

}  // namespace memif::sim
