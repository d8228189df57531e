#include "cluster/cluster.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "kernelc/compile_cache.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
ClusterStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".startupCycles", &startupCycles);
    reg.scalar(prefix + ".prologueCycles", &prologueCycles);
    reg.scalar(prefix + ".loopCycles", &loopCycles);
    reg.scalar(prefix + ".epilogueCycles", &epilogueCycles);
    reg.scalar(prefix + ".shutdownCycles", &shutdownCycles);
    reg.scalar(prefix + ".stallCycles", &stallCycles);
    reg.scalar(prefix + ".primingCycles", &primingCycles);
    reg.scalar(prefix + ".issuedOps", &issuedOps);
    reg.scalar(prefix + ".arithOps", &arithOps);
    reg.scalar(prefix + ".fpOps", &fpOps);
    reg.scalar(prefix + ".lrfReads", &lrfReads);
    reg.scalar(prefix + ".lrfWrites", &lrfWrites);
    reg.scalar(prefix + ".spAccesses", &spAccesses);
    reg.scalar(prefix + ".commWords", &commWords);
    reg.scalar(prefix + ".sbReads", &sbReads);
    reg.scalar(prefix + ".sbWrites", &sbWrites);
    reg.scalar(prefix + ".kernelsRun", &kernelsRun);
    reg.scalar(prefix + ".kernelStreamWords", &kernelStreamWords);
    reg.scalar(prefix + ".bindCachePeakKernels", &bindCachePeakKernels);
    reg.scalar(prefix + ".bindCacheEvictions", &bindCacheEvictions);
    reg.histogram(prefix + ".kernelCycles", kernelCycleHist,
                  numKernelCycleBuckets);
}

void
ClusterArray::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

using kernelc::CompiledKernel;
using kernelc::Node;
using kernelc::OpMix;
using kernelc::Region;
using kernelc::ScheduledOp;

ClusterArray::ClusterArray(const MachineConfig &cfg, Srf &srf)
    : cfg_(cfg), srf_(srf), ucrs_(cfg.numUcrs, 0),
      scratchpad_(cfg.scratchpadWords)
{
    for (auto &row : scratchpad_)
        row.fill(0);
}

uint32_t
ClusterArray::streamElem(uint32_t iter, int lane, uint16_t rec,
                         uint16_t elemIdx) const
{
    return (iter * numClusters + static_cast<uint32_t>(lane)) * rec +
           elemIdx;
}

void
ClusterArray::start(const CompiledKernel *k, std::vector<Binding> ins,
                    std::vector<Binding> outs, uint32_t explicitTrip,
                    bool restart)
{
    IMAGINE_ASSERT(phase_ == Phase::Idle, "kernel launch while busy");
    IMAGINE_ASSERT(static_cast<int>(ins.size()) == k->graph.numInStreams,
                   "kernel %s expects %d input streams, got %zu",
                   k->name(), k->graph.numInStreams, ins.size());
    IMAGINE_ASSERT(static_cast<int>(outs.size()) == k->graph.numOutStreams,
                   "kernel %s expects %d output streams, got %zu",
                   k->name(), k->graph.numOutStreams, outs.size());
    auto bit = binds_.find(k);
    if (restart) {
        IMAGINE_ASSERT(bit != binds_.end() && bit->second.hasRun,
                       "restart of %s without a prior run", k->name());
    }
    if (bit == binds_.end()) {
        bit = binds_.emplace(k, KernelBind{}).first;
        // LRU-evict past the cap; never the kernel being launched.
        size_t cap = static_cast<size_t>(
            std::max(cfg_.clusterBindCacheKernels, 1));
        if (binds_.size() > cap) {
            auto victim = binds_.end();
            for (auto it = binds_.begin(); it != binds_.end(); ++it) {
                if (it->first == k)
                    continue;
                if (victim == binds_.end() ||
                    it->second.lastUse < victim->second.lastUse)
                    victim = it;
            }
            binds_.erase(victim);
            ++stats_.bindCacheEvictions;
        }
        stats_.bindCachePeakKernels =
            std::max(stats_.bindCachePeakKernels,
                     static_cast<uint64_t>(binds_.size()));
    }
    curBind_ = &bit->second;
    curBind_->hasRun = true;
    curBind_->lastUse = ++bindClock_;
    skipPrologue_ = restart && lastKernel_ == k;
    lastKernel_ = k;
    kernel_ = k;
    ins_ = std::move(ins);
    outs_ = std::move(outs);
    restart_ = restart;

    // Trip count from the first input stream (all must agree).
    if (k->graph.numInStreams > 0) {
        uint32_t wordsPerIter = static_cast<uint32_t>(k->graph.inRec[0]) *
                                numClusters;
        IMAGINE_ASSERT(ins_[0].length % wordsPerIter == 0,
                       "kernel %s: stream length %u not a multiple of %u",
                       k->name(), ins_[0].length, wordsPerIter);
        trip_ = ins_[0].length / wordsPerIter;
        for (size_t s = 1; s < ins_.size(); ++s) {
            uint32_t expect = trip_ * k->graph.inRec[s] * numClusters;
            IMAGINE_ASSERT(ins_[s].length == expect,
                           "kernel %s: input %zu length %u, expected %u",
                           k->name(), s, ins_[s].length, expect);
        }
    } else {
        trip_ = explicitTrip;
    }
    // trip_ == 0 is legal: the main loop degenerates to a single empty
    // issue cycle (loopWindow_ == loopTotal_ == 0) and only the fixed
    // startup/prologue/epilogue/shutdown phases run.

    bindDerived();

    if (!skipPrologue_) {
        // Fresh value buffers; the prologue (if any) re-materializes
        // loop invariants.  A back-to-back restart of the same kernel
        // keeps them live instead.
        values_.assign(static_cast<size_t>(k->graph.nodes.size()) *
                           low_->depth * numClusters,
                       0);
    }
    if (!restart_)
        curBind_->accSaved.clear();
    proCursor_ = 0;
    epiCursor_ = 0;

    phase_ = Phase::Startup;
    t_ = 0;
    kernelCycles_ = 0;
    stallWatchdog_ = 0;
    launchFoldedIters_ = 0;
    launchFoldedCycles_ = 0;
    launchRateMin_ = 0.0;
    launchRateMax_ = 0.0;

    ++stats_.kernelsRun;
    uint32_t maxLen = trip_ * numClusters;
    for (const Binding &b : ins_)
        maxLen = std::max(maxLen, b.length);
    stats_.kernelStreamWords += maxLen;

    if (trace_)
        traceKernelStart();
}

void
ClusterArray::bindDerived()
{
    const CompiledKernel *k = kernel_;

    // Bind the pre-decoded micro-op trace, shared process-wide through
    // the compile cache.
    if (!curBind_->lowered)
        curBind_->lowered = kernelc::CompileCache::instance().lowered(*k);
    low_ = curBind_->lowered.get();
    epiRowSlot_ = trip_ > 0 ? (trip_ - 1) & low_->mask : 0;

    uint64_t span = 0;
    uint64_t minTime = UINT64_MAX;
    for (const ScheduledOp &s : k->loop.ops) {
        span = std::max<uint64_t>(span, static_cast<uint64_t>(s.time) + 1);
        minTime = std::min<uint64_t>(minTime,
                                     static_cast<uint64_t>(s.time));
    }
    bool emptyLoop = k->loop.ops.empty() || trip_ == 0;
    loopWindow_ = emptyLoop
                      ? 0
                      : (static_cast<uint64_t>(trip_) - 1) * k->loop.ii +
                            span;
    loopTotal_ = emptyLoop
                     ? 0
                     : (static_cast<uint64_t>(trip_) - 1) * k->loop.ii +
                           kernel_->loop.length;
    // Steady state: once every op is past its first issue
    // (t >= span - 1) and before any op's final iteration expires
    // (t < minTime + trip * ii), every bucket op is live.
    if (emptyLoop) {
        steadyLo_ = steadyHi_ = 0;
    } else {
        steadyLo_ = span - 1;
        steadyHi_ = std::min(minTime + static_cast<uint64_t>(trip_) *
                                           k->loop.ii,
                             loopWindow_);
        steadyHi_ = std::max(steadyHi_, steadyLo_);
    }
    // A zero-trip run of a real loop has no iterations to prime or
    // drain: the prologue/epilogue schedules reference iterations that
    // never execute (their In/Out ops would touch stream elements past
    // a zero-length stream), so both phases are skipped outright and
    // the kernel degenerates to startup + one empty loop cycle +
    // shutdown.
    blocksLive_ = trip_ > 0 || k->loop.ops.empty();

    // Sampled-fidelity fold plan (DESIGN.md section 12).  Short loops
    // (trip <= 2048) always run at full fidelity: their steady state is
    // too small to amortize the measurement strata.
    foldPlan_.clear();
    foldStreamOps_.clear();
    foldNext_ = 0;
    if (allowSampling_ && !emptyLoop && trip_ > 2048)
        planSampling();
}

void
ClusterArray::planSampling()
{
    const CompiledKernel *k = kernel_;
    const uint64_t ii = k->loop.ii;
    const kernelc::LoweredRegion &L = low_->loop;
    // Conditional output streams append a data-dependent number of
    // words per iteration; a fold cannot reproduce their element
    // positions without executing the predicate, so such kernels run at
    // full fidelity.  Same for the (theoretical) non-loop-region Out
    // scheduled inside the loop.
    for (const kernelc::MicroOp &m : L.ops) {
        if (m.h == kernelc::MicroHandler::OutCond ||
            m.h == kernelc::MicroHandler::OutEpilogue)
            return;
    }
    // Iteration-aligned steady-state window [lo, hi): every position in
    // it executes its full bucket, so folded regions can start and stop
    // on iteration boundaries.
    const uint64_t lo = (steadyLo_ + ii - 1) / ii * ii;
    const uint64_t hi = steadyHi_ / ii * ii;
    if (hi <= lo)
        return;
    const uint64_t usable = (hi - lo) / ii;
    // Three cycle-accurate strata (head, middle, tail) bracket the two
    // folded regions.  Each stall-rate measurement uses only the
    // *trailing* part of its stratum: loop entry and every fold exit
    // leave the stream buffers in a transient occupancy for tens of
    // positions, and rates sampled inside that transient are biased.
    // The stratum floor (96 positions) keeps the trailing window large
    // enough that rate quantization stays well under the error bound.
    const uint64_t minStratum =
        std::max<uint64_t>(96,
                           static_cast<uint64_t>(k->loop.stages()) + 2);
    const uint64_t exact = std::max<uint64_t>(
        4 * minStratum,
        static_cast<uint64_t>(sampleFraction_ *
                              static_cast<double>(usable)) +
            1);
    if (usable < exact + 16)
        return;     // folding fewer than ~16 iterations cannot pay off
    // The head stratum is doubled: it also absorbs the loop-entry
    // transient before its trailing measurement window opens.
    const uint64_t stratum = exact / 4;
    const uint64_t head = 2 * stratum;
    const uint64_t mid = stratum;
    const uint64_t folded = usable - exact;
    const uint64_t f1 = folded / 2;
    const uint64_t f2 = folded - f1;
    const uint64_t armIter = lo / ii;
    foldPlan_.push_back({(armIter + head) * ii, f1 * ii, f1,
                         (armIter + head - stratum) * ii});
    foldPlan_.push_back({(armIter + head + f1 + mid) * ii, f2 * ii, f2,
                         (armIter + head + f1 + mid - mid / 2) * ii});
    // Loop stream ops in bucket (= per-position issue) order: replaying
    // them per folded position block gives the SRF exactly the
    // consume/produce sequence real execution would, so the
    // stream-buffer window invariants carry over.
    for (size_t i = 0; i < L.ops.size(); ++i) {
        const kernelc::MicroOp &m = L.ops[i];
        if (m.h == kernelc::MicroHandler::In ||
            m.h == kernelc::MicroHandler::OutLoop)
            foldStreamOps_.push_back({&m, L.stage[i]});
    }
}

void
ClusterArray::setSampling(bool on, double fraction)
{
    allowSampling_ = on;
    sampleFraction_ = std::clamp(fraction, 0.0005, 0.9);
}

std::vector<KernelFoldRecord>
ClusterArray::drainFoldReport()
{
    std::vector<KernelFoldRecord> out;
    out.swap(foldReport_);
    foldReportIdx_.clear();
    return out;
}

uint64_t
ClusterArray::executeFold()
{
    IMAGINE_ASSERT(foldArmed(), "executeFold without an armed fold");
    const FoldRegion &fr = foldPlan_[foldNext_];
    const uint64_t ii = kernel_->loop.ii;
    const uint32_t depth = low_->depth;

    // Stall estimate: stalls per issued loop position, measured over
    // the cycle-accurate stratum since the previous mark (loop entry or
    // the previous fold), scaled to the folded span.
    const uint64_t dPos = t_ - foldPosMark_;
    const uint64_t dStall = stats_.stallCycles - foldStallMark_;
    const double rate =
        dPos ? static_cast<double>(dStall) / static_cast<double>(dPos)
             : 0.0;
    const uint64_t estStall = static_cast<uint64_t>(
        rate * static_cast<double>(fr.span) + 0.5);
    if (launchFoldedIters_ == 0) {
        launchRateMin_ = launchRateMax_ = rate;
    } else {
        launchRateMin_ = std::min(launchRateMin_, rate);
        launchRateMax_ = std::max(launchRateMax_, rate);
    }

    // Replay only the region's stream traffic.  Input rows copy the
    // real stream data into the value buffers (downstream consumers of
    // loop-carried state see exact inputs at the fold edges); output
    // rows re-emit the producer's current row, so folded output *data*
    // is an estimate while word counts, window evolution and stream
    // lengths stay exact.  Arithmetic is not executed - that is where
    // the speedup comes from - and the op mix is accounted analytically
    // for the whole loop by finishLoopBookkeeping.
    //
    // Capture the steady-state buffer occupancy (input slack ahead of
    // the consume point, output backlog awaiting drain) so the fold can
    // restore exactly that on exit: leaving the buffers fuller (or
    // emptier) than steady state would re-create the loop-entry
    // transient and bias the next measurement stratum.
    std::vector<uint32_t> inSlack, outBacklog;
    inSlack.reserve(ins_.size());
    outBacklog.reserve(outs_.size());
    for (const Binding &b : ins_)
        inSlack.push_back(srf_.warpInSlack(b.client));
    for (const Binding &b : outs_)
        outBacklog.push_back(srf_.warpOutBacklog(b.client));
    const uint64_t w0 = srf_.stats().wordsTransferred;
    const uint64_t armIter = fr.arm / ii;
    // Split the region: all but the last few iterations advance through
    // the SRF's closed-form bulk paths (O(window) state math plus the
    // O(rows) data synthesis); the boundary tail replays per row so the
    // value rings and stream-buffer windows end exactly where a full
    // per-row replay would, and the tail's per-row asserts double-check
    // the bulk state.  depth ring rows plus the deepest stage skew
    // bound how far back post-fold execution can read.
    uint32_t maxStage = 0;
    for (const LoopStreamOp &op : foldStreamOps_)
        maxStage = std::max(maxStage, op.stage);
    const uint64_t tailIters =
        std::min<uint64_t>(fr.iters, depth + maxStage);
    const uint64_t bulk = fr.iters - tailIters;
    if (bulk) {
        std::vector<Srf::WarpRange> ranges;
        std::vector<Word> tiles;
        for (size_t s = 0; s < ins_.size(); ++s) {
            ranges.clear();
            uint32_t rec = 0;
            for (const LoopStreamOp &op : foldStreamOps_) {
                const kernelc::MicroOp &m = *op.m;
                if (m.h != kernelc::MicroHandler::In || m.streamIdx != s)
                    continue;
                rec = m.rec;
                ranges.push_back(
                    {m.elemIdx,
                     static_cast<uint32_t>(armIter - op.stage),
                     static_cast<uint32_t>(armIter + bulk - op.stage)});
            }
            if (ranges.empty())
                continue;
            srf_.warpInBulk(ins_[s].client, rec, ranges.data(),
                            ranges.size());
            stats_.sbReads += bulk * numClusters * ranges.size();
        }
        for (size_t s = 0; s < outs_.size(); ++s) {
            ranges.clear();
            tiles.clear();
            uint32_t rec = 0;
            for (const LoopStreamOp &op : foldStreamOps_) {
                const kernelc::MicroOp &m = *op.m;
                if (m.h == kernelc::MicroHandler::In || m.streamIdx != s)
                    continue;
                rec = m.rec;
                ranges.push_back(
                    {m.elemIdx,
                     static_cast<uint32_t>(armIter - op.stage),
                     static_cast<uint32_t>(armIter + bulk - op.stage)});
                // The producer's current ring rows, slot order, as the
                // tile this op's folded rows are synthesized from.
                const Word *ring =
                    &values_[static_cast<size_t>(m.src[0].node) * depth *
                             numClusters];
                tiles.insert(tiles.end(), ring,
                             ring + static_cast<size_t>(depth) *
                                        numClusters);
            }
            if (ranges.empty())
                continue;
            srf_.warpOutBulk(outs_[s].client, rec, ranges.data(),
                             ranges.size(), tiles.data(), depth);
            stats_.sbWrites += bulk * numClusters * ranges.size();
        }
    }
    Word row[numClusters];
    for (uint64_t j = bulk; j < fr.iters; ++j) {
        for (const LoopStreamOp &op : foldStreamOps_) {
            const kernelc::MicroOp &m = *op.m;
            uint32_t iter =
                static_cast<uint32_t>(armIter + j - op.stage);
            uint32_t first = iter * numClusters * m.rec + m.elemIdx;
            if (m.h == kernelc::MicroHandler::In) {
                Word *dst = &values_[m.dstBase +
                                     (iter & low_->mask) * numClusters];
                srf_.warpInRow(ins_[m.streamIdx].client, first, m.rec,
                               dst);
                stats_.sbReads += numClusters;
            } else {
                for (int lane = 0; lane < numClusters; ++lane)
                    row[lane] = value(m.src[0].node, iter, lane);
                srf_.warpOutRow(outs_[m.streamIdx].client, first, m.rec,
                                row);
                stats_.sbWrites += numClusters;
            }
        }
    }
    // Restore each client's captured steady-state occupancy: refill
    // input windows to their entry slack, drain output windows down to
    // their entry backlog.
    for (size_t i = 0; i < ins_.size(); ++i)
        srf_.warpInTopUp(ins_[i].client, inSlack[i]);
    for (size_t i = 0; i < outs_.size(); ++i)
        srf_.warpOutSettle(outs_[i].client, outBacklog[i]);
    const uint64_t moved = srf_.stats().wordsTransferred - w0;
    const uint64_t bw =
        static_cast<uint64_t>(cfg_.srfBandwidthWordsPerCycle);
    srf_.warpAddBusy(std::min<uint64_t>(
        fr.span + estStall, (moved + bw - 1) / bw));

    // Advance the loop clock across the folded region.
    t_ += fr.span;
    kernelCycles_ += fr.span + estStall;
    stats_.loopCycles += fr.span;
    stats_.stallCycles += estStall;
    launchFoldedIters_ += fr.iters;
    launchFoldedCycles_ += fr.span + estStall;
    foldPosMark_ = t_;
    foldStallMark_ = stats_.stallCycles;
    ++foldNext_;
    return fr.span + estStall;
}

void
ClusterArray::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    tPhase_ = sink->addTrack(trace::Cluster, "phase");
    tKernel_ = sink->addTrack(trace::Cluster, "kernel");
    tIssue_ = sink->addTrack(trace::Cluster, "issue");
    tStall_ = sink->addTrack(trace::Cluster, "stall");
    struct { FuClass cls; const char *base; } classes[] = {
        {FuClass::Adder, "add"}, {FuClass::Mul, "mul"},
        {FuClass::Dsq, "dsq"},   {FuClass::Sp, "sp"},
        {FuClass::Comm, "comm"}, {FuClass::SbIn, "sbin"},
        {FuClass::SbOut, "sbout"},
    };
    fuTracks_.clear();
    for (const auto &c : classes) {
        fuOff_[static_cast<size_t>(c.cls)] =
            static_cast<uint32_t>(fuTracks_.size());
        int n = unitsPerCluster(c.cls, cfg_);
        for (int i = 0; i < n; ++i)
            fuTracks_.push_back(sink->addTrack(
                trace::Cluster,
                n > 1 ? strfmt("%s%d", c.base, i)
                      : std::string(c.base)));
    }
}

void
ClusterArray::tracePhase(const char *name)
{
    // The transition tick belongs to the phase it closes; the new
    // phase's first cycle is the next one.
    Cycle c = trace_->now() + 1;
    trace_->closeSpan(tPhase_, c);
    if (name)
        trace_->openSpan(tPhase_, c, name);
}

void
ClusterArray::traceKernelStart()
{
    traceKernelStart_ = trace_->now();
    traceArith0_ = stats_.arithOps;
    traceFp0_ = stats_.fpOps;
    // Per-FU busy cycles come straight from the schedule: every
    // scheduled op occupies its assigned unit for opOccupancy cycles,
    // loop ops once per iteration.
    traceFuBusy_.assign(fuTracks_.size(), 0);
    auto account = [this](const ScheduledOp &s, uint64_t times) {
        Opcode op = kernel_->graph.nodes[s.node].op;
        FuClass cls = opInfo(op).cls;
        if (cls == FuClass::None)
            return;
        int n = unitsPerCluster(cls, cfg_);
        size_t idx = fuOff_[static_cast<size_t>(cls)] +
                     static_cast<size_t>(
                         std::min<int>(s.unit, n - 1));
        traceFuBusy_[idx] +=
            times * static_cast<uint64_t>(opOccupancy(op, cfg_));
    };
    for (const ScheduledOp &s : kernel_->loop.ops)
        account(s, trip_);
    if (blocksLive_) {
        if (!skipPrologue_)
            for (const ScheduledOp &s : kernel_->prologue.ops)
                account(s, 1);
        for (const ScheduledOp &s : kernel_->epilogue.ops)
            account(s, 1);
    }
    trace_->openSpan(tKernel_, traceKernelStart_,
                     trace_->intern(kernel_->name()), trip_);
    trace_->openSpan(tPhase_, traceKernelStart_, "startup");
}

void
ClusterArray::traceKernelRetire()
{
    Cycle end = trace_->now();
    trace_->closeSpan(tPhase_, end);    // the post-shutdown drain span
    trace_->closeSpanArgs(tKernel_, end,
                          stats_.arithOps - traceArith0_,
                          stats_.fpOps - traceFp0_);
    Cycle dur = end - traceKernelStart_;
    for (size_t i = 0; i < fuTracks_.size(); ++i) {
        if (!traceFuBusy_[i])
            continue;
        trace_->span(fuTracks_[i], traceKernelStart_, end, "busy",
                     std::min<uint64_t>(traceFuBusy_[i], dur));
    }
}

void
ClusterArray::rearmTrace()
{
    if (!trace_ || phase_ == Phase::Idle)
        return;
    // Re-derive per-launch tracking from the restored schedule and open
    // the kernel span at the restore point; op deltas and FU busy spans
    // then cover the post-restore portion of the launch.
    traceKernelStart();
    // traceKernelStart opened "startup"; move the open phase span to
    // the phase the restore landed in.
    const char *name = nullptr;
    switch (phase_) {
      case Phase::Startup:  break;
      case Phase::Prologue: name = "prologue"; break;
      case Phase::Loop:     name = "loop"; break;
      case Phase::Epilogue: name = "epilogue"; break;
      case Phase::Shutdown: name = "shutdown"; break;
      default:              name = "drain"; break;
    }
    if (name) {
        Cycle c = trace_->now();
        trace_->closeSpan(tPhase_, c);
        trace_->openSpan(tPhase_, c, name);
    }
}

Word
ClusterArray::value(uint32_t id, uint32_t iter, int lane) const
{
    const Node &n = kernel_->graph.nodes[id];
    switch (n.op) {
      case Opcode::Imm:
        return n.payload;
      case Opcode::UcrRd:
        return ucrs_[n.payload];
      case Opcode::Cid:
        return static_cast<Word>(lane);
      case Opcode::Iter:
        return iter;
      case Opcode::Acc:
        if (iter == 0) {
            if (restart_ && curBind_) {
                auto it = curBind_->accSaved.find(id);
                if (it != curBind_->accSaved.end())
                    return it->second[static_cast<size_t>(lane)];
            }
            return value(n.in[0], 0, lane);
        }
        return value(n.in[1], iter - 1, lane);
      default: {
        uint32_t it = (n.region == Region::Loop && trip_ > 0)
                          ? std::min(iter, trip_ - 1)
                          : 0;
        return values_[(static_cast<size_t>(id) * low_->depth +
                        (it & low_->mask)) *
                           numClusters +
                       static_cast<size_t>(lane)];
      }
    }
}

// --- pre-decoded micro-op engine (DESIGN.md section 9) ---------------

const Word *
ClusterArray::resolveSrc(const kernelc::MicroSrc &s, uint32_t iter,
                         uint32_t rowSlot, Word *scratch) const
{
    using kernelc::MicroSrcKind;
    switch (s.kind) {
      case MicroSrcKind::RowLoop:
        return &values_[s.base + rowSlot * numClusters];
      case MicroSrcKind::RowFixed:
        return &values_[s.base];
      case MicroSrcKind::Imm:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = s.imm;
        return scratch;
      case MicroSrcKind::Ucr: {
        Word w = ucrs_[s.imm];
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = w;
        return scratch;
      }
      case MicroSrcKind::Cid:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = static_cast<Word>(l);
        return scratch;
      case MicroSrcKind::IterIdx:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = iter;
        return scratch;
      case MicroSrcKind::AccNext:
        // value(Acc, iter > 0) = value(in[1], iter - 1): the producer's
        // row one slot back.  No clamp needed: live loop consumers have
        // iter < trip_, epilogue consumers iter == trip_, so iter - 1
        // never exceeds trip_ - 1.  iter == 0 (init chain / restart
        // carry-over) falls through to the graph walk in value().
        if (iter > 0)
            return &values_[s.base +
                            ((iter - 1) & low_->mask) * numClusters];
        [[fallthrough]];
      case MicroSrcKind::Generic:
      default:
        for (int l = 0; l < numClusters; ++l)
            scratch[l] = value(s.node, iter, l);
        return scratch;
    }
}

void
ClusterArray::execMicro(const kernelc::MicroOp &m, uint32_t iter,
                        uint32_t rowSlot)
{
    using kernelc::MicroHandler;
    // Unused operands resolve to a zero row so the dedicated arith
    // handlers stay branch-free across 1/2/3-input opcodes.
    static constexpr Word kZeroRow[numClusters] = {};
    Word b0[numClusters], b1[numClusters], b2[numClusters];
    const Word *s0 = m.numIn > 0
                         ? resolveSrc(m.src[0], iter, rowSlot, b0)
                         : kZeroRow;
    const Word *s1 = m.numIn > 1
                         ? resolveSrc(m.src[1], iter, rowSlot, b1)
                         : kZeroRow;
    const Word *s2 = m.numIn > 2
                         ? resolveSrc(m.src[2], iter, rowSlot, b2)
                         : kZeroRow;
    Word *d = &values_[m.dstBase +
                       (m.dstLoop ? rowSlot : 0u) * numClusters];
    switch (m.h) {
      case MicroHandler::In:
        srf_.inConsumeRow(ins_[m.streamIdx].client,
                          iter * numClusters * m.rec + m.elemIdx,
                          m.rec, d);
        stats_.sbReads += numClusters;
        break;
      case MicroHandler::OutLoop:
        srf_.outProduceRow(outs_[m.streamIdx].client,
                           iter * numClusters * m.rec + m.elemIdx,
                           m.rec, s0);
        stats_.sbWrites += numClusters;
        break;
      case MicroHandler::OutEpilogue:
        srf_.outProduceRow(outs_[m.streamIdx].client,
                           trip_ * m.rec * numClusters +
                               m.elemIdx * numClusters,
                           1, s0);
        stats_.sbWrites += numClusters;
        break;
      case MicroHandler::OutCond: {
        int client = outs_[m.streamIdx].client;
        for (int l = 0; l < numClusters; ++l) {
            if (s1[l]) {
                srf_.outProduce(client, srf_.outAppendPos(client),
                                s0[l]);
                ++stats_.sbWrites;
            }
        }
        break;
      }
      case MicroHandler::CommPerm:
        for (int l = 0; l < numClusters; ++l)
            d[l] = s0[s1[l] % numClusters];
        break;
      case MicroHandler::SpRd:
        for (int l = 0; l < numClusters; ++l)
            d[l] = scratchpad_[s0[l] % scratchpad_.size()]
                              [static_cast<size_t>(l)];
        break;
      case MicroHandler::SpWr:
        for (int l = 0; l < numClusters; ++l)
            scratchpad_[s0[l] % scratchpad_.size()]
                       [static_cast<size_t>(l)] = s1[l];
        break;
      case MicroHandler::UcrWr:
        ucrs_[m.ucrIdx] = s0[0];
        break;
#define IMAGINE_M(name)                                                  \
      case MicroHandler::name:                                           \
        for (int l = 0; l < numClusters; ++l)                            \
            d[l] = evalArithScalar<Opcode::name>(s0[l], s1[l], s2[l]);   \
        break;
    IMAGINE_ARITH_OPS(IMAGINE_M)
#undef IMAGINE_M
    }
}

bool
ClusterArray::microLoopCanIssue(size_t b, uint64_t iterBase,
                                bool filter) const
{
    using kernelc::MicroHandler;
    const kernelc::LoweredRegion &L = low_->loop;
    for (uint32_t i = L.bucketBegin[b]; i < L.bucketBegin[b + 1]; ++i) {
        const kernelc::MicroOp &m = L.ops[i];
        if (m.h > MicroHandler::OutCond)  // stream handlers are 0..3
            continue;
        uint32_t st = L.stage[i];
        if (filter && (st > iterBase || iterBase - st >= trip_))
            continue;
        uint32_t iter = static_cast<uint32_t>(iterBase - st);
        switch (m.h) {
          case MicroHandler::In:
            if (!srf_.inReady(ins_[m.streamIdx].client,
                              streamElem(iter, numClusters - 1, m.rec,
                                         m.elemIdx)))
                return false;
            break;
          case MicroHandler::OutLoop:
            if (!srf_.outCanAccept(outs_[m.streamIdx].client,
                                   streamElem(iter, numClusters - 1,
                                              m.rec, m.elemIdx)))
                return false;
            break;
          case MicroHandler::OutEpilogue:
            if (!srf_.outCanAccept(outs_[m.streamIdx].client,
                                   trip_ * m.rec * numClusters +
                                       m.elemIdx * numClusters +
                                       (numClusters - 1)))
                return false;
            break;
          default: {  // OutCond
            int client = outs_[m.streamIdx].client;
            if (!srf_.outCanAccept(client,
                                   srf_.outAppendPos(client) +
                                       numClusters - 1))
                return false;
            break;
          }
        }
    }
    return true;
}

bool
ClusterArray::microBlockCanIssue(const kernelc::LoweredRegion &L,
                                 size_t begin, size_t end) const
{
    using kernelc::MicroHandler;
    for (size_t i = begin; i < end; ++i) {
        const kernelc::MicroOp &m = L.ops[i];
        switch (m.h) {
          case MicroHandler::In:
            if (!srf_.inReady(ins_[m.streamIdx].client,
                              streamElem(trip_, numClusters - 1, m.rec,
                                         m.elemIdx)))
                return false;
            break;
          case MicroHandler::OutLoop:
            if (!srf_.outCanAccept(outs_[m.streamIdx].client,
                                   streamElem(trip_, numClusters - 1,
                                              m.rec, m.elemIdx)))
                return false;
            break;
          case MicroHandler::OutEpilogue:
            if (!srf_.outCanAccept(outs_[m.streamIdx].client,
                                   trip_ * m.rec * numClusters +
                                       m.elemIdx * numClusters +
                                       (numClusters - 1)))
                return false;
            break;
          case MicroHandler::OutCond: {
            int client = outs_[m.streamIdx].client;
            if (!srf_.outCanAccept(client,
                                   srf_.outAppendPos(client) +
                                       numClusters - 1))
                return false;
            break;
          }
          default:
            break;
        }
    }
    return true;
}

void
ClusterArray::execLoopPositionMicro(uint64_t p)
{
    if (p >= loopWindow_)
        return;
    const kernelc::LoweredRegion &L = low_->loop;
    uint64_t ib = p / kernel_->loop.ii;
    size_t b = static_cast<size_t>(p % kernel_->loop.ii);
    uint32_t mask = low_->mask;
    for (uint32_t i = L.bucketBegin[b]; i < L.bucketBegin[b + 1]; ++i) {
        uint32_t st = L.stage[i];
        if (st > ib || ib - st >= trip_)
            continue;
        uint32_t iter = static_cast<uint32_t>(ib - st);
        execMicro(L.ops[i], iter, iter & mask);
    }
}

void
ClusterArray::accountMix(const OpMix &mix, uint64_t times)
{
    uint64_t lanes = static_cast<uint64_t>(numClusters) * times;
    stats_.issuedOps += mix.issuedOps * lanes;
    stats_.arithOps += mix.arithOps * lanes;
    stats_.fpOps += mix.fpOps * lanes;
    stats_.lrfReads += mix.lrfReads * lanes;
    stats_.lrfWrites += mix.lrfWrites * lanes;
    stats_.spAccesses += mix.spAccesses * lanes;
    stats_.commWords += mix.commWords * lanes;
}

void
ClusterArray::finishLoopBookkeeping()
{
    // Save accumulator finals so a Restart can carry them over.
    for (uint32_t id = 0; id < kernel_->graph.nodes.size(); ++id) {
        const Node &n = kernel_->graph.nodes[id];
        if (n.op != Opcode::Acc)
            continue;
        std::array<Word, numClusters> fin;
        for (int lane = 0; lane < numClusters; ++lane)
            fin[static_cast<size_t>(lane)] = value(id, trip_, lane);
        curBind_->accSaved[id] = fin;
    }
    // Software-pipeline priming/drain attribution (the paper counts
    // priming iterations as non-main-loop time).
    uint64_t priming = static_cast<uint64_t>(kernel_->loop.stages() - 1) *
                       kernel_->loop.ii;
    stats_.primingCycles += std::min(priming, loopTotal_);
    accountMix(kernel_->loopMix, trip_);

    // Finalize the launch's sampled-fidelity record.  The error bound
    // combines a fixed floor (strata edge effects plus the residual
    // arbiter-phase bias that steady-occupancy restoration cannot
    // capture, measured under 0.8% across all kernel families) with
    // the spread of observed stall rates scaled by the folded share of
    // the launch: the folded cycles are exact in issue slots and
    // bounded by the best/worst measured stall behavior.
    if (launchFoldedIters_ > 0) {
        double bound =
            0.01 + (launchRateMax_ - launchRateMin_) *
                        static_cast<double>(launchFoldedCycles_) /
                        static_cast<double>(
                            std::max<uint64_t>(kernelCycles_, 1));
        auto [it, fresh] =
            foldReportIdx_.try_emplace(kernel_, foldReport_.size());
        if (fresh) {
            KernelFoldRecord r;
            r.name = kernel_->name();
            foldReport_.push_back(std::move(r));
        }
        KernelFoldRecord &rec = foldReport_[it->second];
        ++rec.launches;
        rec.foldedIters += launchFoldedIters_;
        rec.foldedCycles += launchFoldedCycles_;
        rec.errorBound = std::max(rec.errorBound, bound);
    }
}

bool
ClusterArray::outsDrained() const
{
    for (const Binding &b : outs_)
        if (!srf_.outDrained(b.client))
            return false;
    return true;
}

void
ClusterArray::retire()
{
    IMAGINE_ASSERT(done(), "retire before kernel completion");
    ++stats_.kernelCycleHist[StatsRegistry::bucketOf(
        kernelCycles_, ClusterStats::numKernelCycleBuckets)];
    if (trace_)
        traceKernelRetire();
    phase_ = Phase::Idle;
}

void
ClusterArray::tick()
{
    if (phase_ == Phase::Idle || phase_ == Phase::Done)
        return;
    ++kernelCycles_;

    switch (phase_) {
      case Phase::Startup:
        ++stats_.startupCycles;
        if (++t_ >= static_cast<uint64_t>(cfg_.kernelStartupCycles)) {
            phase_ = (skipPrologue_ || !blocksLive_ ||
                      low_->prologue.ops.empty())
                         ? Phase::Loop
                         : Phase::Prologue;
            t_ = 0;
            if (phase_ == Phase::Loop) {
                foldPosMark_ = 0;
                foldStallMark_ = stats_.stallCycles;
            }
            if (phase_ == Phase::Prologue)
                accountMix(kernel_->prologueMix, 1);
            if (trace_)
                tracePhase(phase_ == Phase::Prologue ? "prologue"
                                                     : "loop");
        }
        break;

      case Phase::Prologue: {
        const auto &L = low_->prologue;
        while (proCursor_ < L.ops.size() && L.stage[proCursor_] < t_)
            ++proCursor_;
        while (proCursor_ < L.ops.size() && L.stage[proCursor_] == t_) {
            execMicro(L.ops[proCursor_], 0, 0);
            ++proCursor_;
        }
        ++stats_.prologueCycles;
        if (++t_ >= static_cast<uint64_t>(kernel_->prologue.length)) {
            phase_ = Phase::Loop;
            t_ = 0;
            foldPosMark_ = 0;
            foldStallMark_ = stats_.stallCycles;
            if (trace_)
                tracePhase("loop");
        }
        break;
      }

      case Phase::Loop: {
        // A driver that ignores foldArmed() (direct-tick rigs, chaos
        // drivers) forfeits the fold: execution simply stays
        // cycle-accurate past the arm position.
        while (foldNext_ < foldPlan_.size() &&
               t_ > foldPlan_[foldNext_].arm)
            ++foldNext_;
        // Open the next fold's stall-rate measurement window: marks are
        // (re)taken when the loop clock first reaches measureFrom, so
        // only the transient-free tail of the stratum is measured.  The
        // foldPosMark_ guard makes this one-shot while stalled here.
        if (foldNext_ < foldPlan_.size() &&
            t_ == foldPlan_[foldNext_].measureFrom &&
            foldPosMark_ != t_) {
            foldPosMark_ = t_;
            foldStallMark_ = stats_.stallCycles;
        }
        // The stage array filters liveness; the stream check walks only
        // the bucket's contiguous records.
        size_t b = static_cast<size_t>(t_ % kernel_->loop.ii);
        bool steady = t_ >= steadyLo_ && t_ < steadyHi_;
        if (t_ < loopWindow_ && low_->loop.bucketHasStream[b] &&
            !microLoopCanIssue(b, t_ / kernel_->loop.ii, !steady)) {
            ++stats_.stallCycles;
            if (trace_)
                trace_->touchSpan(tStall_, "stall");
            if (++stallWatchdog_ > 2'000'000) {
                IMAGINE_PANIC("kernel %s wedged in main loop at t=%llu",
                              kernel_->name(),
                              static_cast<unsigned long long>(t_));
            }
            break;
        }
        stallWatchdog_ = 0;
        execLoopPositionMicro(t_);
        ++stats_.loopCycles;
        if (trace_)
            trace_->touchSpan(tIssue_, "issue");
        ++t_;
        if (t_ >= loopTotal_) {
            finishLoopBookkeeping();
            phase_ = (!blocksLive_ || low_->epilogue.ops.empty())
                         ? Phase::Shutdown
                         : Phase::Epilogue;
            if (phase_ == Phase::Epilogue)
                accountMix(kernel_->epilogueMix, 1);
            t_ = 0;
            if (trace_)
                tracePhase(phase_ == Phase::Epilogue ? "epilogue"
                                                     : "shutdown");
        }
        break;
      }

      case Phase::Epilogue: {
        const auto &L = low_->epilogue;
        size_t begin = epiCursor_;
        while (begin < L.ops.size() && L.stage[begin] < t_)
            ++begin;
        size_t end = begin;
        while (end < L.ops.size() && L.stage[end] == t_)
            ++end;
        if (!microBlockCanIssue(L, begin, end)) {
            ++stats_.stallCycles;
            if (trace_)
                trace_->touchSpan(tStall_, "stall");
            if (++stallWatchdog_ > 2'000'000)
                IMAGINE_PANIC("kernel %s wedged in epilogue",
                              kernel_->name());
            break;
        }
        stallWatchdog_ = 0;
        for (size_t i = begin; i < end; ++i)
            execMicro(L.ops[i], trip_, epiRowSlot_);
        epiCursor_ = end;
        ++stats_.epilogueCycles;
        if (++t_ >= static_cast<uint64_t>(kernel_->epilogue.length)) {
            phase_ = Phase::Shutdown;
            t_ = 0;
            if (trace_)
                tracePhase("shutdown");
        }
        break;
      }

      case Phase::Shutdown:
        ++stats_.shutdownCycles;
        if (++t_ >= static_cast<uint64_t>(cfg_.kernelShutdownCycles)) {
            phase_ = Phase::Done;
            t_ = 0;
            if (trace_)
                tracePhase("drain");
        }
        break;

      default:
        break;
    }
}

void
ClusterArray::saveState(ckpt::Serializer &s) const
{
    const std::vector<kernelc::CompiledKernel> &reg = *s.ctx().kernels;
    // Kernel pointers always point into the system's registry; encode
    // them as registry indices (UINT32_MAX = null).
    auto kernelIdx = [&reg](const CompiledKernel *k) -> uint32_t {
        return k ? static_cast<uint32_t>(k - reg.data()) : UINT32_MAX;
    };
    s.vec(ucrs_);
    s.vec(scratchpad_);
    s.u64(bindClock_);
    // Bind cache sorted by registry index so the byte image is
    // independent of hash-map iteration order.
    std::vector<std::pair<uint32_t, const KernelBind *>> entries;
    entries.reserve(binds_.size());
    for (const auto &[k, b] : binds_)
        entries.emplace_back(kernelIdx(k), &b);
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) {
                  return a.first < b.first;
              });
    s.u64(entries.size());
    for (const auto &[idx, b] : entries) {
        s.u32(idx);
        s.b(b->hasRun);
        s.u64(b->lastUse);
        std::vector<uint32_t> accIds;
        accIds.reserve(b->accSaved.size());
        for (const auto &[id, fin] : b->accSaved) {
            (void)fin;
            accIds.push_back(id);
        }
        std::sort(accIds.begin(), accIds.end());
        s.u64(accIds.size());
        for (uint32_t id : accIds) {
            s.u32(id);
            const auto &fin = b->accSaved.at(id);
            s.bytes(fin.data(), fin.size() * sizeof(Word));
        }
        // The lowered trace is shared process-wide via the compile
        // cache and re-fetched on rebind; never serialized.
    }
    s.u32(kernelIdx(kernel_));
    s.u32(kernelIdx(lastKernel_));
    s.u64(ins_.size());
    for (const Binding &b : ins_) {
        s.i32(b.client);
        s.u32(b.length);
    }
    s.u64(outs_.size());
    for (const Binding &b : outs_) {
        s.i32(b.client);
        s.u32(b.length);
    }
    s.u32(trip_);
    s.b(restart_);
    s.b(skipPrologue_);
    s.u8(static_cast<uint8_t>(phase_));
    s.u64(t_);
    s.u64(kernelCycles_);
    s.u64(stallWatchdog_);
    s.u64(proCursor_);
    s.u64(epiCursor_);
    s.vec(values_);
}

void
ClusterArray::loadState(ckpt::Deserializer &d)
{
    const std::vector<kernelc::CompiledKernel> &reg = *d.ctx().kernels;
    auto kernelAt = [&reg](uint32_t idx) -> const CompiledKernel * {
        return idx == UINT32_MAX ? nullptr : &reg.at(idx);
    };
    ucrs_ = d.vec<Word>();
    scratchpad_ = d.vec<std::array<Word, numClusters>>();
    bindClock_ = d.u64();
    binds_.clear();
    for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
        const CompiledKernel *k = kernelAt(d.u32());
        KernelBind &b = binds_[k];
        b.hasRun = d.b();
        b.lastUse = d.u64();
        for (uint64_t a = 0, na = d.u64(); a < na; ++a) {
            uint32_t id = d.u32();
            std::array<Word, numClusters> fin;
            d.bytes(fin.data(), fin.size() * sizeof(Word));
            b.accSaved[id] = fin;
        }
    }
    kernel_ = kernelAt(d.u32());
    lastKernel_ = kernelAt(d.u32());
    curBind_ = kernel_ ? &binds_[kernel_] : nullptr;
    constexpr size_t kBindingBytes = 8;     // i32 client, u32 length
    ins_.assign(d.count(kBindingBytes), Binding{});
    for (Binding &b : ins_) {
        b.client = d.i32();
        b.length = d.u32();
    }
    outs_.assign(d.count(kBindingBytes), Binding{});
    for (Binding &b : outs_) {
        b.client = d.i32();
        b.length = d.u32();
    }
    trip_ = d.u32();
    restart_ = d.b();
    skipPrologue_ = d.b();
    phase_ = static_cast<Phase>(d.u8());
    t_ = d.u64();
    kernelCycles_ = d.u64();
    stallWatchdog_ = d.u64();
    proCursor_ = d.u64();
    epiCursor_ = d.u64();
    values_ = d.vec<Word>();
    // Everything derived from (kernel, trip, bind) is recomputed, not
    // restored: same inputs, same tables.
    if (kernel_)
        bindDerived();
}

} // namespace imagine
