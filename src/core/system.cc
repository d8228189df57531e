#include "core/system.hh"

#include <algorithm>
#include <ctime>

#include "ckpt/report.hh"
#include "ckpt/serializer.hh"
#include "kernelc/compile_cache.hh"
#include "sim/log.hh"

namespace imagine
{

namespace
{

/** Element names for the clusters-idle vector, indexed by IdleCause. */
const std::vector<std::string> &
idleCauseNames()
{
    static const std::vector<std::string> names = {
        "none", "ucode", "mem", "sc", "host"};
    return names;
}

// --- checkpoint fingerprints (DESIGN.md section 11) -------------------
// A checkpoint only restores onto the exact session shape that wrote
// it; these hashes reject everything else up front with a diagnosable
// error instead of deserializing garbage into components.

uint64_t
fnv1a64(const void *p, size_t n, uint64_t h)
{
    const auto *b = static_cast<const uint8_t *>(p);
    for (size_t i = 0; i < n; ++i) {
        h ^= b[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Hash every config field with architectural effect.  Deliberately
 * excluded: the trace knobs (a read-only observer) and the checkpoint
 * knobs themselves - a restored run may legitimately checkpoint
 * elsewhere, and restoring with tracing switched on is a supported (and
 * tested) use.
 */
uint64_t
configFingerprint(const MachineConfig &c)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const auto &v) { h = fnv1a64(&v, sizeof(v), h); };
    mix(c.coreClockHz);
    mix(c.memClockDivider);
    mix(c.numAdders);
    mix(c.numMultipliers);
    mix(c.sbInPorts);
    mix(c.sbOutPorts);
    mix(c.scratchpadWords);
    mix(c.lrfWordsPerCluster);
    mix(c.latFpAdd);
    mix(c.latFpMul);
    mix(c.latDsq);
    mix(c.dsqOccupancy);
    mix(c.latIntAdd);
    mix(c.latIntMul);
    mix(c.latSubword);
    mix(c.latSpRead);
    mix(c.latSpWrite);
    mix(c.latComm);
    mix(c.latSbRead);
    mix(c.latSbWrite);
    mix(c.latMov);
    mix(c.kernelStartupCycles);
    mix(c.kernelShutdownCycles);
    mix(c.srfSizeWords);
    mix(c.srfBandwidthWordsPerCycle);
    mix(c.streamBufferWords);
    mix(c.numAddressGenerators);
    mix(c.numChannels);
    mix(c.banksPerChannel);
    mix(c.rowWords);
    mix(c.tRcd);
    mix(c.tCas);
    mix(c.tRp);
    mix(c.mcPipelineCycles);
    mix(c.mcCacheWords);
    mix(c.quirkPrechargeBug);
    mix(c.ucodeStoreInstrs);
    mix(c.ucodeWordsPerInstr);
    mix(c.hostMips);
    mix(c.scoreboardSlots);
    mix(c.scIssueOverhead);
    mix(c.quirkIssueLatency);
    mix(c.hostRoundTripCycles);
    mix(c.nonPlaybackHostOverheadCycles);
    mix(c.numSdrs);
    mix(c.numMars);
    mix(c.numUcrs);
    mix(c.faults.enabled);
    mix(c.faults.seed);
    mix(c.faults.srfFlipRate);
    mix(c.faults.dramFlipRate);
    mix(c.faults.ucodeCorruptRate);
    mix(c.faults.stuckSlotRate);
    mix(c.faults.agStallRate);
    mix(c.faults.agStallBurstCycles);
    mix(c.faults.srfEcc);
    mix(c.faults.memEcc);
    mix(c.faults.maxRetries);
    mix(c.watchdogStagnationCycles);
    mix(c.clusterBindCacheKernels);
    return h;
}

uint64_t
programFingerprint(const StreamProgram &p)
{
    uint64_t h = 0xcbf29ce484222325ull;
    uint64_t n = p.instrs.size();
    h = fnv1a64(&n, sizeof(n), h);
    for (const StreamInstr &si : p.instrs) {
        h = fnv1a64(&si.kind, sizeof(si.kind), h);
        h = fnv1a64(&si.kernelId, sizeof(si.kernelId), h);
        h = fnv1a64(&si.regIndex, sizeof(si.regIndex), h);
    }
    return h;
}

uint64_t
kernelsFingerprint(const KernelRegistry &ks)
{
    uint64_t h = 0xcbf29ce484222325ull;
    uint64_t n = ks.size();
    h = fnv1a64(&n, sizeof(n), h);
    for (const kernelc::CompiledKernel &k : ks) {
        uint32_t u = static_cast<uint32_t>(k.ucodeInstrs);
        h = fnv1a64(&u, sizeof(u), h);
    }
    return h;
}

} // namespace

ImagineSystem::ImagineSystem(const MachineConfig &cfg)
    : cfg_(cfg), srf_(cfg_), mem_(cfg_, srf_), clusters_(cfg_, srf_),
      sc_(cfg_, srf_, mem_, clusters_, kernels_), host_(cfg_, sc_),
      components_{&host_, &sc_, &clusters_, &mem_, &srf_}
{
    if (cfg_.faults.enabled) {
        inj_ = std::make_unique<FaultInjector>(cfg_.faults);
        srf_.setFaultInjector(inj_.get());
        mem_.setFaultInjector(inj_.get());
        sc_.setFaultInjector(inj_.get());
    }
    // Same latched-pointer pattern as fault injection: components hold a
    // null sink by default so every hook is a dead branch, and simulated
    // state never depends on the sink (hooks are read-only observers).
    if (cfg_.trace) {
        trace_ = std::make_unique<trace::TraceSink>(cfg_.traceMaxEvents);
        engineTrack_ = trace_->addTrack(trace::Engine, "engine");
        clusters_.setTrace(trace_.get());
        srf_.setTrace(trace_.get());
        mem_.setTrace(trace_.get());
        sc_.setTrace(trace_.get());
        host_.setTrace(trace_.get());
    }

    for (Component *c : components_)
        c->registerStats(stats_);
    if (inj_)
        inj_->registerStats(stats_);
    if (trace_)
        trace_->registerStats(stats_);
    stats_.vector("system.idleCycles", idleCycles_, idleCauseNames());
    // Process-wide compile-cache counters, exposed per session as
    // read-only callback stats.
    stats_.scalar("kernelc.cacheHits", [] {
        return kernelc::CompileCache::instance().hits();
    });
    stats_.scalar("kernelc.cacheMisses", [] {
        return kernelc::CompileCache::instance().misses();
    });
    stats_.scalar("kernelc.loweredHits", [] {
        return kernelc::CompileCache::instance().loweredHits();
    });
    stats_.scalar("kernelc.loweredMisses", [] {
        return kernelc::CompileCache::instance().loweredMisses();
    });
}

void
ImagineSystem::resetStats()
{
    for (Component *c : components_)
        c->resetStats();
    for (uint64_t &c : idleCycles_)
        c = 0;
}

uint16_t
ImagineSystem::registerKernel(kernelc::KernelGraph g)
{
    return registerKernel(std::move(g), kernelc::CompileOptions{});
}

uint16_t
ImagineSystem::registerKernel(kernelc::KernelGraph g,
                              const kernelc::CompileOptions &opts)
{
    std::shared_ptr<const kernelc::CompiledKernel> k =
        kernelc::CompileCache::instance().compile(g, cfg_, opts);
    return registerKernel(kernelc::CompiledKernel(*k));
}

uint16_t
ImagineSystem::registerKernel(kernelc::CompiledKernel k)
{
    kernels_.push_back(std::move(k));
    return static_cast<uint16_t>(kernels_.size() - 1);
}

void
registerRunStats(StatsRegistry &reg, RunResult &r)
{
    r.cluster.registerOn(reg, "cluster");
    r.srf.registerOn(reg, "srf");
    r.mem.registerOn(reg, "mem");
    r.sc.registerOn(reg, "sc");
    r.host.registerOn(reg, "host");
    r.faults.registerOn(reg, "faults");
    reg.vector("system.idleCycles", r.idleCycles, idleCauseNames());
}

namespace
{

/** Run ordinal recorded in a checkpoint's meta section. */
uint64_t
checkpointRunOrdinal(const std::string &path)
{
    ckpt::Deserializer d = ckpt::Deserializer::fromFile(path);
    d.section("meta");
    d.u64();  // config fingerprint
    d.u64();  // program fingerprint
    d.u64();  // kernel-registry fingerprint
    return d.u64();
}

} // namespace

RunResult
ImagineSystem::run(const StreamProgram &program, bool playback,
                   uint64_t cycleLimit)
{
    uint64_t runIndex = runCount_++;
    StatsSnapshot before = stats_.snapshot();
    size_t trace0 = inj_ ? inj_->trace().size() : 0;

    host_.loadProgram(program, playback);

    // Sampled fidelity (DESIGN.md section 12) applies only when nothing
    // needs exact per-cycle machine state: armed fault sites, periodic
    // checkpoints and restored runs all force the full-fidelity tier.
    const bool sampled =
        cfg_.fidelity == Fidelity::Sampled && !inj_ &&
        !(cfg_.checkpointEveryCycles > 0 &&
          !cfg_.checkpointPath.empty()) &&
        cfg_.restorePath.empty();
    clusters_.setSampling(sampled, cfg_.sampleLoopFraction);

    RunResult r;
    uint64_t start = cycle_;

    // Forward-progress watchdog: "progress" is any retirement, cluster
    // issue, memory word moved, or host instruction sent.  A machine
    // that ticks without moving any of these for watchdogStagnationCycles
    // is wedged (deadlocked scoreboard, stuck slot, lost completion).
    auto progress = [this] {
        const MemStats &m = mem_.stats();
        return sc_.stats().instrsRetired + clusters_.stats().issuedOps +
               m.wordsLoaded + m.wordsStored + host_.stats().instrsSent;
    };
    uint64_t lastMetric = progress();
    Cycle lastProgress = cycle_;

    auto throwWatchdog = [&] {
        auto report = buildHangReport(lastProgress, 0);
        throw SimError(
            SimErrorKind::Hang,
            strfmt("no forward progress for %llu cycles "
                   "(watchdog)\n%s",
                   static_cast<unsigned long long>(
                       cycle_ - lastProgress),
                   report->describe().c_str()),
            report);
    };
    auto throwLimit = [&] {
        auto report = buildHangReport(lastProgress, cycleLimit);
        throw SimError(
            SimErrorKind::Hang,
            strfmt("program exceeded the %llu-cycle limit\n%s",
                   static_cast<unsigned long long>(cycleLimit),
                   report->describe().c_str()),
            report);
    };

    // One-shot restore: session setup (kernel registration, data
    // staging, loadProgram above) replayed normally; now the saved
    // mid-run state is overlaid and the loop continues from it.  A
    // snapshot taken in a later run() of a multi-run program replays
    // the earlier runs from scratch (they are deterministic) and
    // restores when its recorded ordinal comes up.
    if (!cfg_.restorePath.empty() && !restoreConsumed_) {
        uint64_t ord = checkpointRunOrdinal(cfg_.restorePath);
        if (ord < runIndex)
            throw SimError(
                SimErrorKind::Fatal,
                strfmt("checkpoint %s: recorded run ordinal %llu "
                       "already passed (this is run %llu)",
                       cfg_.restorePath.c_str(),
                       static_cast<unsigned long long>(ord),
                       static_cast<unsigned long long>(runIndex)));
        if (ord == runIndex) {
            restoreConsumed_ = true;
            restoreCheckpoint(cfg_.restorePath, program, playback,
                              runIndex, start, lastProgress, trace0,
                              before);
            lastMetric = progress();
            // Component state is restored, but trace bookkeeping (slot
            // track leases, the cluster's per-launch spans) is not
            // serialized: re-lease and re-open spans at the restore
            // point so the traced tail matches a straight traced run.
            if (trace_) {
                trace_->setNow(cycle_);
                sc_.rearmTrace();
                clusters_.rearmTrace();
                mem_.rearmTrace();
            }
        }
    }
    const uint64_t ckptEvery = cfg_.checkpointEveryCycles;
    const bool ckptPeriodic =
        ckptEvery > 0 && !cfg_.checkpointPath.empty();
    // Suppresses a redundant write at run entry / right after restore
    // (both sit exactly on a boundary).
    Cycle lastCkpt = cycle_;

    // Thread CPU time, not wall clock: the cycle loop is single-
    // threaded and CPU time is immune to scheduler preemption, so
    // bench comparisons stay stable on loaded machines.
    auto threadSeconds = [] {
        timespec ts;
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
        return static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
    };
    double wall0 = threadSeconds();
    try {
    while (true) {
        // Cooperative cancellation lands at the same between-ticks
        // boundary as periodic checkpoints: machine state is coherent
        // here, so an aborted run could even be checkpointed and
        // resumed later.  Relaxed load - the flag is a latch, and one
        // extra iteration of slack is harmless.
        if (abort_ && abort_->load(std::memory_order_relaxed))
            throw SimError(
                SimErrorKind::Canceled,
                strfmt("run aborted by abort token at cycle %llu",
                       static_cast<unsigned long long>(cycle_ - start)));
        // Periodic checkpoints are taken at the top of the loop - a
        // between-ticks point - so the file is resumable: restoring it
        // and re-entering the loop replays exactly the ticks the
        // writing run performed after it.
        if (ckptPeriodic && (cycle_ - start) % ckptEvery == 0 &&
            cycle_ != lastCkpt) {
            saveCheckpoint(cfg_.checkpointPath, program, playback,
                           runIndex, start, lastProgress, trace0,
                           before, nullptr);
            lastCkpt = cycle_;
            if (checkpointHook_)
                checkpointHook_(cycle_ - start, cfg_.checkpointPath);
        }
        bool finished = host_.finished() && sc_.drained() &&
                        sc_.quiescent() && !clusters_.busy();
        if (finished)
            break;
        // --- sampled-fidelity fold (DESIGN.md section 12) --------------
        // The cluster loop sits on a fold-region arm: fold the region
        // analytically, then tick the rest of the machine across the
        // returned wall span, so overlapped memory transfers and host
        // issue progress by exactly the folded cycles (DESIGN.md
        // section 8).
        if (clusters_.foldArmed()) {
            if (trace_)
                trace_->setNow(cycle_);
            Cycle foldFrom = cycle_;
            uint64_t foldSpan = clusters_.executeFold();
            Cycle target = cycle_ + foldSpan;
            while (cycle_ < target) {
                if (trace_)
                    trace_->setNow(cycle_);
                host_.tick(cycle_);
                sc_.tick(cycle_);
                mem_.tick(cycle_);
                srf_.tick();
                ++cycle_;
            }
            if (trace_)
                trace_->mergeSpan(engineTrack_, foldFrom, cycle_,
                                  "sampled-fold", foldSpan);
            lastMetric = progress();
            lastProgress = cycle_;
            if (cycle_ - start >= cycleLimit)
                throwLimit();
            continue;
        }
        if (trace_)
            trace_->setNow(cycle_);
        host_.tick(cycle_);
        sc_.tick(cycle_);
        clusters_.tick();
        mem_.tick(cycle_);
        srf_.tick();
        if (!clusters_.busy())
            ++idleCycles_[static_cast<int>(sc_.idleCause())];
        ++cycle_;

        uint64_t m = progress();
        if (m != lastMetric) {
            lastMetric = m;
            lastProgress = cycle_;
        } else if (cycle_ - lastProgress >=
                   cfg_.watchdogStagnationCycles) {
            throwWatchdog();
        }
        if (cycle_ - start >= cycleLimit)
            throwLimit();
    }
    } catch (const SimError &e) {
        runWallSeconds_ += threadSeconds() - wall0;
        // Crash snapshot: the at-failure state plus the structured
        // report, next to the periodic file (which still holds the
        // last good interval).  Diagnostic only - taken mid-iteration,
        // so it is not resumable - and best-effort: a second failure
        // while writing it must not mask the original error.  A
        // cancellation is not a crash: the machine is healthy and the
        // periodic file already holds the last interval.
        if (!cfg_.checkpointPath.empty() &&
            e.kind() != SimErrorKind::Canceled) {
            try {
                saveCheckpoint(cfg_.checkpointPath + ".crash", program,
                               playback, runIndex, start, lastProgress,
                               trace0, before, &e);
            } catch (const SimError &) {
            }
        }
        throw;
    }
    runWallSeconds_ += threadSeconds() - wall0;

    if (trace_) {
        trace_->setNow(cycle_);
        trace_->flushOpen(cycle_);
        r.trace = trace::analyze(*trace_, start, cycle_);
    }

    r.cycles = cycle_ - start;
    r.seconds = static_cast<double>(r.cycles) / cfg_.coreClockHz;

    // Pour this run's delta of every engine counter into the result's
    // iso-structured registry: same names, registered over the structs
    // inside r.  Replaces per-struct diff plumbing.
    StatsDelta d = stats_.delta(before);
    StatsRegistry resultReg;
    registerRunStats(resultReg, r);
    resultReg.assign(d);
    if (inj_) {
        const std::vector<FaultEvent> &t = inj_->trace();
        r.faultTrace.assign(t.begin() + static_cast<long>(trace0),
                            t.end());
    }
    // The *effective* tier: a Sampled config forced to full fidelity
    // (faults, checkpoints, restore) reports Cycle and emits exactly
    // the full-fidelity JSON.
    r.fidelity = sampled ? Fidelity::Sampled : Fidelity::Cycle;
    if (sampled) {
        r.sampleLoopFraction = cfg_.sampleLoopFraction;
        r.kernelFolds = clusters_.drainFoldReport();
        for (const KernelFoldRecord &k : r.kernelFolds)
            r.estimatedCycles += k.foldedCycles;
        clusters_.setSampling(false, cfg_.sampleLoopFraction);
    }

    // --- Fig. 11 attribution -------------------------------------------
    ExecBreakdown &bd = r.breakdown;
    bd.ucodeStall = r.idleCycles[static_cast<int>(IdleCause::UcodeLoad)];
    bd.memStall = r.idleCycles[static_cast<int>(IdleCause::Memory)];
    bd.scOverhead =
        r.idleCycles[static_cast<int>(IdleCause::ScOverhead)];
    bd.hostStall = r.idleCycles[static_cast<int>(IdleCause::Host)];

    uint64_t steady = r.cluster.loopCycles -
                      std::min(r.cluster.primingCycles,
                               r.cluster.loopCycles);
    // Ideal operation time: each op class at its own peak rate
    // (40 fp slots/cycle; 128 packed integer ops/cycle).
    double fpPeak = (cfg_.numAdders + cfg_.numMultipliers) * numClusters;
    double intPeak = (4.0 * cfg_.numAdders + 2.0 * cfg_.numMultipliers) *
                     numClusters;
    uint64_t intOps = r.cluster.arithOps - r.cluster.fpOps;
    auto ops = static_cast<uint64_t>(
        static_cast<double>(r.cluster.fpOps) / fpPeak +
        static_cast<double>(intOps) / intPeak);
    bd.operations = std::min(ops, steady);
    bd.mainLoopOverhead = steady - bd.operations;
    bd.nonMainLoop = r.cluster.startupCycles + r.cluster.prologueCycles +
                     r.cluster.epilogueCycles +
                     r.cluster.shutdownCycles +
                     std::min(r.cluster.primingCycles,
                              r.cluster.loopCycles);
    bd.clusterStall = r.cluster.stallCycles;

    // --- headline rates --------------------------------------------------
    if (r.seconds > 0.0) {
        r.gops = static_cast<double>(r.cluster.arithOps) / r.seconds /
                 1e9;
        r.gflops = static_cast<double>(r.cluster.fpOps) / r.seconds /
                   1e9;
        r.lrfGBs = static_cast<double>(r.cluster.lrfReads +
                                       r.cluster.lrfWrites) *
                   4.0 / r.seconds / 1e9;
        r.srfGBs = static_cast<double>(r.srf.wordsTransferred) * 4.0 /
                   r.seconds / 1e9;
        r.memGBs = static_cast<double>(r.mem.wordsLoaded +
                                       r.mem.wordsStored) *
                   4.0 / r.seconds / 1e9;
        r.hostMips = static_cast<double>(r.host.instrsSent) /
                     r.seconds / 1e6;
    }
    r.ipc = r.cycles
                ? static_cast<double>(r.cluster.issuedOps) / r.cycles
                : 0.0;

    // --- power ------------------------------------------------------------
    r.activity.fpOps = r.cluster.fpOps;
    r.activity.intOps = intOps;
    r.activity.issuedOps = r.cluster.issuedOps;
    r.activity.lrfWords = r.cluster.lrfReads + r.cluster.lrfWrites;
    r.activity.srfWords = r.srf.wordsTransferred;
    r.activity.spAccesses = r.cluster.spAccesses;
    r.activity.commWords = r.cluster.commWords;
    r.activity.dramWords = r.mem.wordsLoaded + r.mem.wordsStored;
    r.activity.hostInstrs = r.host.instrsSent;
    r.watts = estimatePower(r.activity, r.cycles, cfg_);

    return r;
}

namespace
{

const char *
faultOutcomeName(FaultOutcome o)
{
    switch (o) {
      case FaultOutcome::Corrected: return "corrected";
      case FaultOutcome::Detected: return "detected";
      case FaultOutcome::Silent: return "silent";
      case FaultOutcome::Perf: return "perf";
    }
    return "unknown";
}

} // namespace

std::string
RunResult::toJson() const
{
    // Registration only stores pointers into the result's structs; the
    // registry is used read-only here, so the const_cast never writes.
    StatsRegistry reg;
    registerRunStats(reg, const_cast<RunResult &>(*this));

    auto u64 = [](uint64_t v) {
        return strfmt("%llu", static_cast<unsigned long long>(v));
    };
    std::string out = "{";
    out += "\"cycles\":" + u64(cycles);
    out += strfmt(",\"seconds\":%.17g", seconds);
    out += strfmt(",\"gops\":%.17g,\"gflops\":%.17g,\"ipc\":%.17g",
                  gops, gflops, ipc);
    out += strfmt(",\"lrfGBs\":%.17g,\"srfGBs\":%.17g,\"memGBs\":%.17g",
                  lrfGBs, srfGBs, memGBs);
    out += strfmt(",\"hostMips\":%.17g,\"watts\":%.17g", hostMips,
                  watts);
    out += ",\"breakdown\":{";
    out += "\"operations\":" + u64(breakdown.operations);
    out += ",\"mainLoopOverhead\":" + u64(breakdown.mainLoopOverhead);
    out += ",\"nonMainLoop\":" + u64(breakdown.nonMainLoop);
    out += ",\"clusterStall\":" + u64(breakdown.clusterStall);
    out += ",\"ucodeStall\":" + u64(breakdown.ucodeStall);
    out += ",\"memStall\":" + u64(breakdown.memStall);
    out += ",\"scOverhead\":" + u64(breakdown.scOverhead);
    out += ",\"hostStall\":" + u64(breakdown.hostStall);
    out += "}";
    out += ",\"stats\":" + reg.read().toJson();
    out += ",\"faultTrace\":[";
    for (size_t i = 0; i < faultTrace.size(); ++i) {
        const FaultEvent &e = faultTrace[i];
        if (i)
            out += ',';
        out += strfmt("{\"ordinal\":%llu,\"site\":\"%s\","
                      "\"outcome\":\"%s\",\"where\":%llu,\"mask\":%u}",
                      static_cast<unsigned long long>(e.ordinal),
                      faultSiteName(e.site), faultOutcomeName(e.outcome),
                      static_cast<unsigned long long>(e.where),
                      static_cast<unsigned>(e.mask));
    }
    out += "]";
    // Present only under the sampled tier: Cycle-fidelity output stays
    // byte-identical to builds without the sampled tier.
    if (fidelity == Fidelity::Sampled) {
        out += strfmt(",\"fidelity\":{\"tier\":\"sampled\","
                      "\"sampleLoopFraction\":%.17g,"
                      "\"estimatedCycles\":%llu,\"kernels\":[",
                      sampleLoopFraction,
                      static_cast<unsigned long long>(estimatedCycles));
        for (size_t i = 0; i < kernelFolds.size(); ++i) {
            const KernelFoldRecord &k = kernelFolds[i];
            if (i)
                out += ',';
            out += strfmt(
                "{\"name\":\"%s\",\"launches\":%llu,"
                "\"foldedIters\":%llu,\"foldedCycles\":%llu,"
                "\"errorBound\":%.17g}",
                k.name.c_str(),
                static_cast<unsigned long long>(k.launches),
                static_cast<unsigned long long>(k.foldedIters),
                static_cast<unsigned long long>(k.foldedCycles),
                k.errorBound);
        }
        out += "]}";
    }
    // Appended last so trace-off output is the exact prefix of trace-on
    // output: tests strip at ,"trace": to assert bit-identity.
    if (trace)
        out += ",\"trace\":" + trace->toJson();
    out += "}";
    return out;
}

std::shared_ptr<const HangReport>
ImagineSystem::buildHangReport(Cycle lastProgress,
                               uint64_t cycleLimit) const
{
    auto report = std::make_shared<HangReport>();
    report->cycle = cycle_;
    report->lastProgressCycle = lastProgress;
    report->cycleLimit = cycleLimit;
    sc_.dumpHang(*report);
    mem_.dumpHang(*report);
    report->hostNext = host_.nextInstr();
    report->hostFinished = host_.finished();
    report->hostBlockedUntil = host_.blockedUntil();
    report->clustersBusy = clusters_.busy();
    report->clusterKernelCycles = clusters_.currentKernelCycles();
    return report;
}

void
ImagineSystem::saveCheckpoint(const std::string &path,
                              const StreamProgram &program,
                              bool playback, uint64_t runIndex,
                              uint64_t start, Cycle lastProgress,
                              size_t trace0,
                              const StatsSnapshot &before,
                              const SimError *err) const
{
    ckpt::Serializer s(ckpt::Context{&kernels_, &program});
    s.section("meta");
    s.u64(configFingerprint(cfg_));
    s.u64(programFingerprint(program));
    s.u64(kernelsFingerprint(kernels_));
    s.u64(runIndex);
    s.b(playback);
    s.section("run");
    s.u64(cycle_);
    s.u64(start);
    s.u64(lastProgress);
    s.u64(trace0);
    // Stat names travel with the values so a restoring session whose
    // registry shape differs (different trace knobs register different
    // stats) can match by name instead of position.
    std::vector<std::string> statNames = stats_.names();
    s.u64(statNames.size());
    for (const std::string &n : statNames)
        s.str(n);
    s.vec(before.values());
    s.vec(stats_.snapshot().values());
    s.section("host");
    host_.saveState(s);
    s.section("sc");
    sc_.saveState(s);
    s.section("cluster");
    clusters_.saveState(s);
    s.section("mem");
    mem_.saveState(s);
    s.section("srf");
    srf_.saveState(s);
    s.section("faults");
    s.b(inj_ != nullptr);
    if (inj_)
        inj_->saveState(s);
    if (err) {
        s.section("report");
        s.u8(static_cast<uint8_t>(err->kind()));
        s.str(err->what());
        const HangReport *hr = err->hangReport();
        s.b(hr != nullptr);
        if (hr)
            ckpt::saveHangReport(s, *hr);
    }
    s.writeFile(path);
}

void
ImagineSystem::restoreCheckpoint(const std::string &path,
                                 const StreamProgram &program,
                                 bool playback, uint64_t runIndex,
                                 uint64_t &start, Cycle &lastProgress,
                                 size_t &trace0,
                                 StatsSnapshot &before)
{
    ckpt::Deserializer d = ckpt::Deserializer::fromFile(
        path, ckpt::Context{&kernels_, &program});
    d.section("meta");
    auto verify = [&path](const char *what, uint64_t got,
                          uint64_t want) {
        if (got != want)
            throw SimError(
                SimErrorKind::Fatal,
                strfmt("checkpoint %s: %s mismatch (file %llx, "
                       "session %llx); a checkpoint only restores "
                       "onto the session shape that wrote it",
                       path.c_str(), what,
                       static_cast<unsigned long long>(got),
                       static_cast<unsigned long long>(want)));
    };
    verify("config fingerprint", d.u64(), configFingerprint(cfg_));
    verify("program fingerprint", d.u64(), programFingerprint(program));
    verify("kernel-registry fingerprint", d.u64(),
           kernelsFingerprint(kernels_));
    verify("run ordinal", d.u64(), runIndex);
    verify("playback mode", d.b() ? 1 : 0, playback ? 1 : 0);
    d.section("run");
    cycle_ = d.u64();
    start = d.u64();
    lastProgress = d.u64();
    trace0 = static_cast<size_t>(d.u64());
    // Name-matched stats transfer: the writer's registry shape may
    // differ from ours when engine-only knobs diverge - the headline
    // case is fast-forwarding an untraced run to a region of interest,
    // then restoring with cfg.trace on to pay the tracer's overhead
    // only over the tail.  Stats the writer lacked (trace.*) keep
    // their current value in `before`, so the run delta counts them
    // from the restore point.
    uint64_t nNames = d.u64();
    if (nNames > (1u << 20))
        throw SimError(SimErrorKind::Fatal,
                       strfmt("checkpoint %s: implausible stat-name "
                              "count %llu",
                              path.c_str(),
                              static_cast<unsigned long long>(nNames)));
    std::vector<std::string> statNames(static_cast<size_t>(nNames));
    for (std::string &n : statNames)
        n = d.str();
    std::vector<uint64_t> beforeVals = d.vec<uint64_t>();
    std::vector<uint64_t> currentVals = d.vec<uint64_t>();
    d.section("host");
    host_.loadState(d);
    d.section("sc");
    sc_.loadState(d);
    d.section("cluster");
    clusters_.loadState(d);
    d.section("mem");
    mem_.loadState(d);
    d.section("srf");
    srf_.loadState(d);
    d.section("faults");
    bool hadInjector = d.b();
    if (hadInjector != (inj_ != nullptr))
        throw SimError(SimErrorKind::Fatal,
                       strfmt("checkpoint %s: fault-injection state "
                              "present=%d but session injector "
                              "present=%d",
                              path.c_str(), hadInjector ? 1 : 0,
                              inj_ ? 1 : 0));
    if (inj_)
        inj_->loadState(d);
    // Every registered counter - component stats, fault stats, the
    // idle-cause vector - restored in one name-matched pass through
    // the registry; saved names this session lacks are dropped.
    before = stats_.mergeSnapshot(statNames, beforeVals);
    stats_.restoreNamed(statNames, currentVals);
}

} // namespace imagine
