#include "ckpt/report.hh"

#include "ckpt/serializer.hh"

namespace imagine::ckpt
{

void
saveHangReport(Serializer &s, const HangReport &r)
{
    s.u64(r.cycle);
    s.u64(r.lastProgressCycle);
    s.u64(r.cycleLimit);
    s.u64(r.instrsRetired);
    s.u64(r.slots.size());
    for (const HangReport::SlotInfo &sl : r.slots) {
        s.u32(sl.idx);
        s.str(sl.label);
        s.str(sl.kind);
        s.str(sl.state);
        s.vec(sl.waitingOn);
        s.i32(sl.ag);
        s.i32(sl.retries);
    }
    s.vec(r.depCycle);
    s.u64(r.ags.size());
    for (const HangReport::AgInfo &ag : r.ags) {
        s.i32(ag.ag);
        s.b(ag.active);
        s.b(ag.isLoad);
        s.b(ag.sink);
        s.u32(ag.completed);
        s.u32(ag.length);
    }
    s.u64(r.queuedDramRequests);
    s.u64(r.hostNext);
    s.b(r.hostFinished);
    s.u64(r.hostBlockedUntil);
    s.b(r.clustersBusy);
    s.u64(r.clusterKernelCycles);
}

HangReport
loadHangReport(Deserializer &d)
{
    HangReport r;
    r.cycle = d.u64();
    r.lastProgressCycle = d.u64();
    r.cycleLimit = d.u64();
    r.instrsRetired = d.u64();
    // Fewest serialized bytes of a slot and of an AG entry.
    constexpr size_t kSlotBytes = 36, kAgBytes = 15;
    r.slots.resize(d.count(kSlotBytes));
    for (HangReport::SlotInfo &sl : r.slots) {
        sl.idx = d.u32();
        sl.label = d.str();
        sl.kind = d.str();
        sl.state = d.str();
        sl.waitingOn = d.vec<uint32_t>();
        sl.ag = d.i32();
        sl.retries = d.i32();
    }
    r.depCycle = d.vec<uint32_t>();
    r.ags.resize(d.count(kAgBytes));
    for (HangReport::AgInfo &ag : r.ags) {
        ag.ag = d.i32();
        ag.active = d.b();
        ag.isLoad = d.b();
        ag.sink = d.b();
        ag.completed = d.u32();
        ag.length = d.u32();
    }
    r.queuedDramRequests = d.u64();
    r.hostNext = d.u64();
    r.hostFinished = d.b();
    r.hostBlockedUntil = d.u64();
    r.clustersBusy = d.b();
    r.clusterKernelCycles = d.u64();
    return r;
}

} // namespace imagine::ckpt
