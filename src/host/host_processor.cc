#include "host/host_processor.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
HostStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".instrsSent", &instrsSent);
    reg.scalar(prefix + ".scoreboardFullCycles", &scoreboardFullCycles);
    reg.scalar(prefix + ".dependencyStallCycles",
               &dependencyStallCycles);
    reg.scalar(prefix + ".interfaceBusyCycles", &interfaceBusyCycles);
}

void
HostProcessor::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

HostProcessor::HostProcessor(const MachineConfig &cfg,
                             StreamController &sc)
    : cfg_(cfg), sc_(sc)
{
}

void
HostProcessor::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (sink)
        hostTrack_ = sink->addTrack(trace::HostComp, "issue");
}

void
HostProcessor::loadProgram(const StreamProgram &program, bool playback)
{
    program_ = &program;
    next_ = 0;
    budget_ = 0.0;
    blockedUntil_ = 0;
    playback_ = playback;
    setCost();
    sc_.beginProgram(program);
}

void
HostProcessor::setCost()
{
    cost_ = cfg_.hostCyclesPerInstr();
    if (!playback_)
        cost_ += cfg_.nonPlaybackHostOverheadCycles;
    budgetCap_ = 2.0 * cost_;
}

void
HostProcessor::tick(Cycle now)
{
    if (!program_ || finished())
        return;

    const double cost = cost_;
    budget_ = std::min(budget_ + 1.0, budgetCap_);

    if (blockedUntil_ > now) {
        ++stats_.dependencyStallCycles;
        return;
    }

    const StreamInstr &si = program_->instrs[next_];
    if (si.kind == StreamOpKind::RegRead) {
        // The host polls for the producing instructions, then spends a
        // full read-compute-write round trip before moving on.
        for (uint32_t d : si.deps)
            if (!sc_.instrDone(d))
                return;
        if (budget_ < cost)
            return;
        budget_ -= cost;
        ++stats_.instrsSent;
        sc_.retireHostSide(static_cast<uint32_t>(next_), si.kind);
        blockedUntil_ = now + cfg_.hostRoundTripCycles;
        if (trace_)
            trace_->span(hostTrack_, now, blockedUntil_, "roundtrip",
                         next_);
        ++next_;
        return;
    }

    if (budget_ < cost) {
        ++stats_.interfaceBusyCycles;
        return;
    }
    if (sc_.scoreboardFull()) {
        ++stats_.scoreboardFullCycles;
        return;
    }
    sc_.enqueue(static_cast<uint32_t>(next_), &si);
    budget_ -= cost;
    ++stats_.instrsSent;
    if (trace_)
        trace_->instant(hostTrack_, streamOpKindName(si.kind), next_);
    ++next_;
}

void
HostProcessor::saveState(ckpt::Serializer &s) const
{
    // program_ is re-bound by loadProgram() before a restore; only the
    // dispatcher position and interface timers are checkpoint state.
    s.u64(next_);
    s.f64(budget_);
    s.u64(blockedUntil_);
    s.b(playback_);
}

void
HostProcessor::loadState(ckpt::Deserializer &d)
{
    next_ = d.u64();
    budget_ = d.f64();
    blockedUntil_ = d.u64();
    playback_ = d.b();
    setCost();
}

} // namespace imagine
