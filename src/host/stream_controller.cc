#include "host/stream_controller.hh"

#include <algorithm>
#include <unordered_map>

#include "ckpt/serializer.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

namespace
{

/** Imagine-memory region holding kernel microcode images. */
constexpr Addr ucodeImageBase = Addr(1) << 24;

} // namespace

void
ScStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".instrsRetired", &instrsRetired);
    std::vector<std::string> kinds;
    for (int i = 0; i < static_cast<int>(StreamOpKind::NumKinds); ++i)
        kinds.push_back(
            streamOpKindName(static_cast<StreamOpKind>(i)));
    reg.vector(prefix + ".kind", kindCount, kinds);
    reg.scalar(prefix + ".ucodeLoadsIssued", &ucodeLoadsIssued);
    reg.scalar(prefix + ".ucodeWordsLoaded", &ucodeWordsLoaded);
    reg.scalar(prefix + ".memOpWords", &memOpWords);
    reg.scalar(prefix + ".memStreamOps", &memStreamOps);
}

void
StreamController::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

StreamController::StreamController(const MachineConfig &cfg, Srf &srf,
                                   MemorySystem &mem,
                                   ClusterArray &clusters,
                                   const KernelRegistry &kernels)
    : cfg_(cfg), srf_(srf), mem_(mem), clusters_(clusters),
      kernels_(kernels), sdrs_(cfg.numSdrs), mars_(cfg.numMars),
      ucrs_(cfg.numUcrs, 0)
{
}

void
StreamController::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    slotTracks_.clear();
    for (int i = 0; i < cfg_.scoreboardSlots; ++i)
        slotTracks_.push_back(
            sink->addTrack(trace::ScComp, strfmt("slot%d", i)));
    slotTrackBusy_.assign(slotTracks_.size(), 0);
}

void
StreamController::rearmTrace()
{
    if (!trace_)
        return;
    slotTrackBusy_.assign(slotTracks_.size(), 0);
    for (Slot &s : slots_) {
        if (!s.instr)
            continue;
        for (size_t i = 0; i < slotTrackBusy_.size(); ++i) {
            if (slotTrackBusy_[i])
                continue;
            slotTrackBusy_[i] = 1;
            s.traceTrack = static_cast<int16_t>(i);
            const char *stage;
            switch (s.state) {
              case SlotState::Waiting:
                stage = s.ready ? "res" : "dep";
                break;
              case SlotState::NeedUcode: stage = "ucode"; break;
              case SlotState::Issuing: stage = "issue"; break;
              case SlotState::Running: stage = "run"; break;
              default: stage = "stuck"; break;
            }
            s.traceStage = stage;
            trace_->openSpan(slotTracks_[i], trace_->now(), stage,
                             s.idx,
                             static_cast<uint64_t>(s.instr->kind));
            break;
        }
    }
}

void
StreamController::beginProgram(const StreamProgram &program)
{
    IMAGINE_ASSERT(slots_.empty(), "beginProgram with busy scoreboard");
    program_ = &program;
    done_.assign(program.instrs.size(), 0);
    eventPending_ = true;
}

void
StreamController::retireHostSide(uint32_t idx, StreamOpKind kind)
{
    IMAGINE_ASSERT(idx < done_.size(), "retire out of range");
    done_[idx] = 1;
    refreshReady();
    eventPending_ = true;
    ++stats_.instrsRetired;
    ++stats_.kindCount[static_cast<int>(kind)];
}

void
StreamController::enqueue(uint32_t idx, const StreamInstr *instr)
{
    IMAGINE_ASSERT(!scoreboardFull(), "scoreboard overflow");
    IMAGINE_ASSERT(idx < done_.size(), "instruction index out of range");
    Slot s;
    s.idx = idx;
    s.instr = instr;
    s.ready = depsSatisfied(s);
    eventPending_ = true;
    if (trace_) {
        // Lease a free track from the fixed scoreboard pool (one always
        // exists: slots_ is bounded by the same cfg.scoreboardSlots).
        for (size_t i = 0; i < slotTrackBusy_.size(); ++i) {
            if (slotTrackBusy_[i])
                continue;
            slotTrackBusy_[i] = 1;
            s.traceTrack = static_cast<int16_t>(i);
            s.traceStage = s.ready ? "res" : "dep";
            trace_->openSpan(slotTracks_[i], trace_->now(),
                             s.traceStage, s.idx,
                             static_cast<uint64_t>(instr->kind));
            break;
        }
    }
    slots_.push_back(std::move(s));
}

bool
StreamController::instrDone(uint32_t idx) const
{
    return done_[idx] != 0;
}

bool
StreamController::depsSatisfied(const Slot &s) const
{
    for (uint32_t d : s.instr->deps)
        if (!done_[d])
            return false;
    return true;
}

void
StreamController::refreshReady()
{
    for (Slot &s : slots_)
        if (s.instr && !s.ready)
            s.ready = depsSatisfied(s);
}

bool
StreamController::ucodeResident(uint16_t kernelId) const
{
    return ucodeSize_.count(kernelId) != 0;
}

bool
StreamController::startUcodeLoad(uint16_t kernelId, Cycle now)
{
    (void)now;
    if (ucodeLoadAg_ >= 0)
        return ucodeLoading_ == kernelId;
    int ag = -1;
    for (int i = 0; i < cfg_.numAddressGenerators; ++i) {
        if (mem_.agIdle(i) && i != reservedAg_) {
            ag = i;
            break;
        }
    }
    if (ag < 0)
        return false;
    const kernelc::CompiledKernel &k = kernels_[kernelId];
    IMAGINE_ASSERT(k.ucodeInstrs <= cfg_.ucodeStoreInstrs,
                   "kernel %s does not fit in the microcode store",
                   k.name());
    // Evict least-recently-used kernels until the new one fits.
    while (ucodeUsed_ + k.ucodeInstrs > cfg_.ucodeStoreInstrs) {
        IMAGINE_ASSERT(!ucodeLru_.empty(), "microcode store accounting");
        uint16_t victim = ucodeLru_.back();
        ucodeLru_.pop_back();
        ucodeUsed_ -= ucodeSize_[victim];
        ucodeSize_.erase(victim);
    }
    uint32_t words = static_cast<uint32_t>(k.ucodeInstrs) *
                     cfg_.ucodeWordsPerInstr;
    mem_.startSinkLoad(ag, ucodeImageBase + Addr(kernelId) * 65536, words);
    ucodeLoadAg_ = ag;
    ucodeLoading_ = kernelId;
    ++stats_.ucodeLoadsIssued;
    stats_.ucodeWordsLoaded += words;
    return true;
}

void
StreamController::tryIssue(Slot &s, Cycle now)
{
    int extra = 0;
    switch (s.instr->kind) {
      case StreamOpKind::KernelExec:
      case StreamOpKind::Restart:
      case StreamOpKind::MemLoad:
      case StreamOpKind::MemStore:
        extra = cfg_.quirkIssueLatency;
        break;
      default:
        break;
    }
    s.state = SlotState::Issuing;
    s.issueDone = now + cfg_.scIssueOverhead + extra;
    issueBusy_ = true;
    issueBusyUntil_ = s.issueDone;
}

void
StreamController::dispatch(Slot &s, Cycle now)
{
    (void)now;
    const StreamInstr &si = *s.instr;
    switch (si.kind) {
      case StreamOpKind::SdrWrite:
        sdrs_[si.regIndex] = si.sdr;
        complete(s);
        return;
      case StreamOpKind::MarWrite:
        mars_[si.regIndex] = si.mar;
        complete(s);
        return;
      case StreamOpKind::UcrWrite:
        ucrs_[si.regIndex] = si.value;
        complete(s);
        return;
      case StreamOpKind::Move:
      case StreamOpKind::Sync:
      case StreamOpKind::RegRead:
      case StreamOpKind::UcodeLoad:
        complete(s);
        return;
      case StreamOpKind::MemLoad:
      case StreamOpKind::MemStore: {
        const Mar &mar = mars_[si.marIndex];
        const Sdr &data = sdrs_[si.dataSdr];
        const Sdr *idx = si.indexed ? &sdrs_[si.indexSdr] : nullptr;
        if (reservedAg_ == s.ag)
            reservedAg_ = -1;
        if (si.kind == StreamOpKind::MemLoad)
            mem_.startLoad(s.ag, mar, data, idx);
        else
            mem_.startStore(s.ag, mar, data, idx);
        stats_.memOpWords += data.length;
        ++stats_.memStreamOps;
        s.state = SlotState::Running;
        return;
      }
      case StreamOpKind::KernelExec:
      case StreamOpKind::Restart: {
        const kernelc::CompiledKernel &k = kernels_[si.kernelId];
        s.inPlace = false;
        for (uint8_t o : si.outSdrs) {
            const Sdr &os = sdrs_[o];
            for (uint8_t in : si.inSdrs) {
                const Sdr &is = sdrs_[in];
                if (os.srfOffset < is.srfOffset + is.length &&
                    is.srfOffset < os.srfOffset + os.length)
                    s.inPlace = true;
            }
        }
        std::vector<ClusterArray::Binding> ins, outs;
        for (size_t i = 0; i < si.inSdrs.size(); ++i) {
            Sdr sd = sdrs_[si.inSdrs[i]];
            if (si.truncateInputs) {
                uint32_t group = static_cast<uint32_t>(
                                     k.graph.inRec[i]) *
                                 numClusters;
                sd.length -= sd.length % group;
            }
            uint32_t window = static_cast<uint32_t>(k.graph.inRec[i]) *
                              numClusters * 2;
            s.inClients.push_back(srf_.openIn(sd, window));
            ins.push_back({s.inClients.back(), sd.length});
        }
        for (size_t i = 0; i < si.outSdrs.size(); ++i) {
            const Sdr &sd = sdrs_[si.outSdrs[i]];
            uint32_t rec = std::max<uint32_t>(k.graph.outRec[i], 1);
            s.outClients.push_back(
                srf_.openOut(sd, rec * numClusters * 2));
            outs.push_back({s.outClients.back(), sd.length});
        }
        // Snapshot kernel parameters into the micro-controller.
        for (int i = 0; i < cfg_.numUcrs; ++i)
            clusters_.setUcr(i, ucrs_[static_cast<size_t>(i)]);
        clusters_.start(&k, std::move(ins), std::move(outs),
                        si.explicitTrip,
                        si.kind == StreamOpKind::Restart);
        // Mark recency for the microcode store.
        auto it = std::find(ucodeLru_.begin(), ucodeLru_.end(),
                            si.kernelId);
        if (it != ucodeLru_.end())
            ucodeLru_.erase(it);
        ucodeLru_.push_front(si.kernelId);
        s.state = SlotState::Running;
        return;
      }
      default:
        IMAGINE_PANIC("dispatch of unknown stream op kind");
    }
}

void
StreamController::complete(Slot &s)
{
    // Injected stuck-completion fault: the op finished on its resource
    // but the scoreboard never sees the completion signal.  Dependents
    // never issue; the forward-progress watchdog reports the hang.
    if (inj_ && inj_->onSlotCompletion(s.idx)) {
        s.state = SlotState::Stuck;
        return;
    }
    done_[s.idx] = 1;
    refreshReady();
    compactPending_ = true;
    ++stats_.instrsRetired;
    ++stats_.kindCount[static_cast<int>(s.instr->kind)];
    if (trace_ && s.traceTrack >= 0) {
        uint32_t t = slotTracks_[static_cast<size_t>(s.traceTrack)];
        trace_->closeSpan(t, trace_->now() + 1);
        trace_->instant(t, "retire", s.idx,
                        static_cast<uint64_t>(s.instr->kind));
        slotTrackBusy_[static_cast<size_t>(s.traceTrack)] = 0;
        s.traceTrack = -1;
    }
    s.instr = nullptr;  // marks the slot for removal
}

void
StreamController::retryOrGiveUp(Slot &s)
{
    const StreamInstr &si = *s.instr;
    if (si.kind == StreamOpKind::Restart || s.inPlace ||
        s.retries >= cfg_.faults.maxRetries) {
        const char *why;
        std::string budget;
        if (si.kind == StreamOpKind::Restart) {
            why = "Restart accumulator carry-over cannot be replayed";
        } else if (s.inPlace) {
            why = "in-place stream update overwrote its own input";
        } else {
            budget = strfmt("retry budget (%d) exhausted",
                            cfg_.faults.maxRetries);
            why = budget.c_str();
        }
        inj_->noteRetryExhausted();
        throw SimError(
            SimErrorKind::UnrecoveredFault,
            strfmt("detected fault in %s instr %u%s%s%s: %s",
                   streamOpKindName(si.kind), s.idx,
                   si.label.empty() ? "" : " \"",
                   si.label.c_str(), si.label.empty() ? "" : "\"",
                   why));
    }
    ++s.retries;
    inj_->noteRetry();
    // Back to Waiting: the issue loop re-acquires resources and the
    // dispatch path re-runs the op from intact SRF/DRAM source data.
    s.state = SlotState::Waiting;
    s.ag = -1;
    s.issueDone = 0;
}

bool
StreamController::completionDue(Cycle now) const
{
    // At most one slot is Issuing, and only while the issue pipeline is
    // busy (issueScan() stops at the first issue and only runs once the
    // pipeline is free); it dispatches exactly when the pipeline frees.
    if (issueBusy_ && now >= issueBusyUntil_)
        return true;
    // A done AG belongs to a Running memory slot or to the microcode
    // load, and the clusters are only done() under a Running kernel
    // slot.
    for (int i = 0; i < cfg_.numAddressGenerators; ++i)
        if (mem_.agDone(i))
            return true;
    return clusters_.done();
}

void
StreamController::processCompletions(Cycle now)
{
    for (Slot &s : slots_) {
        if (!s.instr)
            continue;
        if (s.state == SlotState::Issuing && now >= s.issueDone) {
            dispatch(s, now);
            continue;
        }
        if (s.state != SlotState::Running)
            continue;
        switch (s.instr->kind) {
          case StreamOpKind::MemLoad:
          case StreamOpKind::MemStore:
            if (mem_.agDone(s.ag)) {
                bool faulted = inj_ && mem_.agFaulted(s.ag);
                mem_.finish(s.ag);
                if (faulted) {
                    // Source data (DRAM for loads, SRF for stores) is
                    // intact: re-run the transfer.
                    retryOrGiveUp(s);
                    break;
                }
                complete(s);
            }
            break;
          case StreamOpKind::KernelExec:
          case StreamOpKind::Restart:
            if (clusters_.done()) {
                bool faulted = false;
                if (inj_) {
                    for (int c : s.outClients)
                        faulted = faulted || srf_.clientFaulted(c);
                }
                clusters_.retire();
                if (faulted) {
                    // Discard this run's outputs; inputs are still
                    // resident in the SRF, so the kernel can re-run.
                    for (int c : s.inClients)
                        srf_.close(c);
                    for (int c : s.outClients)
                        srf_.close(c);
                    s.inClients.clear();
                    s.outClients.clear();
                    retryOrGiveUp(s);
                    break;
                }
                for (int c : s.inClients)
                    srf_.close(c);
                // Conditional streams report their produced length back
                // into the SDR file.
                for (size_t i = 0; i < s.outClients.size(); ++i) {
                    uint32_t produced = srf_.close(s.outClients[i]);
                    sdrs_[s.instr->outSdrs[i]].length = produced;
                }
                // Scalar kernel results become host-visible.
                const kernelc::CompiledKernel &k =
                    kernels_[s.instr->kernelId];
                for (const kernelc::Node &n : k.graph.nodes) {
                    if (n.op == Opcode::UcrWr)
                        ucrs_[n.payload] = clusters_.ucr(
                            static_cast<int>(n.payload));
                }
                complete(s);
            }
            break;
          default:
            break;
        }
    }
}

void
StreamController::tick(Cycle now)
{
    // Everything below the completion loop reads only SC state, the
    // clusters' busy flag and AG idleness, and those change only at an
    // SC-visible event (DESIGN.md section 8): without one the tick has
    // nothing to do.
    bool event = eventPending_;
    eventPending_ = false;

    // --- finish a microcode load ---------------------------------------
    if (ucodeLoadAg_ >= 0 && mem_.agDone(ucodeLoadAg_)) {
        event = true;
        mem_.finish(ucodeLoadAg_);
        if (inj_ && inj_->onUcodeLoad(ucodeLoading_)) {
            // Parity caught a corrupted transfer: discard and re-run.
            uint16_t kernelId = ucodeLoading_;
            ucodeLoadAg_ = -1;
            ucodeLoading_ = UINT16_MAX;
            if (++ucodeRetries_ > cfg_.faults.maxRetries) {
                inj_->noteRetryExhausted();
                throw SimError(
                    SimErrorKind::UnrecoveredFault,
                    strfmt("microcode load of kernel %s corrupted; "
                           "retry budget (%d) exhausted",
                           kernels_[kernelId].name(),
                           cfg_.faults.maxRetries));
            }
            inj_->noteRetry();
            startUcodeLoad(kernelId, now);
        } else {
            const kernelc::CompiledKernel &k = kernels_[ucodeLoading_];
            ucodeSize_[ucodeLoading_] = k.ucodeInstrs;
            ucodeUsed_ += k.ucodeInstrs;
            ucodeLru_.push_front(ucodeLoading_);
            ucodeLoadAg_ = -1;
            ucodeLoading_ = UINT16_MAX;
            ucodeRetries_ = 0;
        }
    }

    // --- completions and dispatches ------------------------------------
    // Slot order matters (SRF client handles, fault-injector draws), so
    // a due event runs the full in-order loop.
    if (completionDue(now)) {
        event = true;
        processCompletions(now);
    }
    if (compactPending_) {
        std::erase_if(slots_, [](const Slot &s) { return !s.instr; });
        compactPending_ = false;
    }

    if (issueBusy_ && now >= issueBusyUntil_) {
        issueBusy_ = false;
        event = true;
    }
    if (clusters_.busy() != clustersBusy_)
        event = true;
    if (!event)
        return;

    if (!issueBusy_)
        issueScan(now);
    clustersBusy_ = clusters_.busy();
    if (trace_)
        traceSlotStages();
    classifyIdle();
}

bool
StreamController::kernelInFlight() const
{
    if (clusters_.busy())
        return true;
    for (const Slot &s : slots_) {
        if ((s.state == SlotState::Issuing ||
             s.state == SlotState::Running) &&
            (s.instr->kind == StreamOpKind::KernelExec ||
             s.instr->kind == StreamOpKind::Restart))
            return true;
    }
    return false;
}

int
StreamController::freeAg() const
{
    for (int i = 0; i < cfg_.numAddressGenerators; ++i)
        if (mem_.agIdle(i) && i != ucodeLoadAg_ && i != reservedAg_)
            return i;
    return -1;
}

void
StreamController::issueScan(Cycle now)
{
    // Oldest eligible slot first; the scan stops at the first issue.
    const bool kernelBusy = kernelInFlight();
    for (Slot &s : slots_) {
        if (s.state != SlotState::Waiting &&
            s.state != SlotState::NeedUcode) {
            continue;
        }
        if (!s.ready)
            continue;
        switch (s.instr->kind) {
          case StreamOpKind::KernelExec:
          case StreamOpKind::Restart: {
            if (kernelBusy)
                continue;
            if (!ucodeResident(s.instr->kernelId)) {
                s.state = SlotState::NeedUcode;
                startUcodeLoad(s.instr->kernelId, now);
                continue;
            }
            s.state = SlotState::Waiting;
            tryIssue(s, now);
            break;
          }
          case StreamOpKind::MemLoad:
          case StreamOpKind::MemStore: {
            int ag = freeAg();
            // Reserve an AG for a pending microcode load.
            if (ag < 0)
                continue;
            s.ag = ag;
            reservedAg_ = ag;   // held until dispatch
            tryIssue(s, now);
            break;
          }
          default:
            tryIssue(s, now);
            break;
        }
        if (issueBusy_)
            break;
    }
}

void
StreamController::traceSlotStages()
{
    // Slot lifecycle state only moves inside ticks, so re-opening the
    // stage span here (once per real tick) segments every slot's
    // residency exactly: dep-blocked -> resource-blocked -> ucode ->
    // issue -> run -> stuck.
    for (Slot &s : slots_) {
        if (!s.instr || s.traceTrack < 0)
            continue;
        const char *stage;
        switch (s.state) {
          case SlotState::Waiting:
            stage = s.ready ? "res" : "dep";
            break;
          case SlotState::NeedUcode: stage = "ucode"; break;
          case SlotState::Issuing: stage = "issue"; break;
          case SlotState::Running: stage = "run"; break;
          default: stage = "stuck"; break;
        }
        if (stage == s.traceStage)
            continue;
        uint32_t t = slotTracks_[static_cast<size_t>(s.traceTrack)];
        Cycle c = trace_->now() + 1;
        trace_->closeSpan(t, c);
        trace_->openSpan(t, c, stage, s.idx,
                         static_cast<uint64_t>(s.instr->kind));
        s.traceStage = stage;
    }
}

namespace
{

const char *
slotStateName(int state)
{
    switch (state) {
      case 0: return "Waiting";
      case 1: return "NeedUcode";
      case 2: return "Issuing";
      case 3: return "Running";
      case 4: return "Stuck";
    }
    return "unknown";
}

} // namespace

void
StreamController::dumpHang(HangReport &report) const
{
    std::unordered_map<uint32_t, const Slot *> byIdx;
    for (const Slot &s : slots_) {
        if (!s.instr)
            continue;
        byIdx.emplace(s.idx, &s);
        HangReport::SlotInfo info;
        info.idx = s.idx;
        info.label = s.instr->label;
        info.kind = streamOpKindName(s.instr->kind);
        info.state = slotStateName(static_cast<int>(s.state));
        for (uint32_t d : s.instr->deps)
            if (!done_[d])
                info.waitingOn.push_back(d);
        info.ag = s.ag;
        info.retries = s.retries;
        report.slots.push_back(std::move(info));
    }
    report.instrsRetired = stats_.instrsRetired;

    // Dependency-cycle finder over the occupied scoreboard slots: an
    // edge instr -> dep for every unsatisfied compiler-encoded dep that
    // is itself sitting in the scoreboard.  A cycle means the program
    // is malformed (deps normally point strictly backwards) and no
    // amount of waiting will resolve it.
    std::unordered_map<uint32_t, int> color;    // 1 in-stack, 2 done
    std::vector<uint32_t> path;
    auto dfs = [&](auto &&self, uint32_t idx) -> bool {
        color[idx] = 1;
        path.push_back(idx);
        for (uint32_t d : byIdx.at(idx)->instr->deps) {
            if (done_[d] || !byIdx.count(d))
                continue;
            int c = color.count(d) ? color[d] : 0;
            if (c == 1) {
                // Found a back edge: report the cycle portion of the
                // current path, starting at d.
                auto it = std::find(path.begin(), path.end(), d);
                report.depCycle.assign(it, path.end());
                return true;
            }
            if (c == 0 && self(self, d))
                return true;
        }
        path.pop_back();
        color[idx] = 2;
        return false;
    };
    for (const auto &[idx, slot] : byIdx) {
        (void)slot;
        if (!color.count(idx) && dfs(dfs, idx))
            break;
    }
}

void
StreamController::saveState(ckpt::Serializer &s) const
{
    s.u64(slots_.size());
    for (const Slot &sl : slots_) {
        // The instr pointer is always &program_->instrs[idx] (enqueue
        // stores the reference it is handed), so idx alone recovers it.
        s.u32(sl.idx);
        s.u8(static_cast<uint8_t>(sl.state));
        s.u64(sl.issueDone);
        s.i32(sl.ag);
        s.i32(sl.retries);
        s.b(sl.inPlace);
        s.vec(sl.inClients);
        s.vec(sl.outClients);
    }
    s.vec(done_);
    s.i32(reservedAg_);
    s.b(issueBusy_);
    s.u64(issueBusyUntil_);
    s.u64(sdrs_.size());
    for (const Sdr &r : sdrs_) {
        s.u32(r.srfOffset);
        s.u32(r.length);
    }
    s.u64(mars_.size());
    for (const Mar &m : mars_) {
        s.u64(m.baseWord);
        s.u8(static_cast<uint8_t>(m.mode));
        s.u32(m.strideWords);
        s.u32(m.recordWords);
    }
    s.vec(ucrs_);
    // LRU order is meaningful; the list serializes front to back.
    s.u64(ucodeLru_.size());
    for (uint16_t id : ucodeLru_)
        s.u16(id);
    // ucodeSize_ is unordered; sort by kernel id for a stable byte
    // image (bisect compares sections byte-for-byte).
    std::vector<std::pair<uint16_t, int>> sizes(ucodeSize_.begin(),
                                                ucodeSize_.end());
    std::sort(sizes.begin(), sizes.end());
    s.u64(sizes.size());
    for (const auto &[id, instrs] : sizes) {
        s.u16(id);
        s.i32(instrs);
    }
    s.i32(ucodeUsed_);
    s.i32(ucodeLoadAg_);
    s.u16(ucodeLoading_);
    s.i32(ucodeRetries_);
    s.u8(static_cast<uint8_t>(idleCause_));
}

void
StreamController::loadState(ckpt::Deserializer &d)
{
    // Fewest serialized bytes of a slot, an SDR and a MAR.
    constexpr size_t kSlotBytes = 38, kSdrBytes = 8, kMarBytes = 17;
    slots_.assign(d.count(kSlotBytes), Slot{});
    for (Slot &sl : slots_) {
        sl.idx = d.u32();
        if (sl.idx >= program_->instrs.size())
            throw SimError(SimErrorKind::Fatal,
                           strfmt("checkpoint scoreboard slot names "
                                  "instruction %u of %zu",
                                  sl.idx, program_->instrs.size()));
        sl.instr = &program_->instrs[sl.idx];
        sl.state = static_cast<SlotState>(d.u8());
        sl.issueDone = d.u64();
        sl.ag = d.i32();
        sl.retries = d.i32();
        sl.inPlace = d.b();
        sl.inClients = d.vec<int>();
        sl.outClients = d.vec<int>();
    }
    done_ = d.vec<uint8_t>();
    reservedAg_ = d.i32();
    issueBusy_ = d.b();
    issueBusyUntil_ = d.u64();
    sdrs_.assign(d.count(kSdrBytes), Sdr{});
    for (Sdr &r : sdrs_) {
        r.srfOffset = d.u32();
        r.length = d.u32();
    }
    mars_.assign(d.count(kMarBytes), Mar{});
    for (Mar &m : mars_) {
        m.baseWord = d.u64();
        m.mode = static_cast<MarMode>(d.u8());
        m.strideWords = d.u32();
        m.recordWords = d.u32();
    }
    ucrs_ = d.vec<Word>();
    ucodeLru_.clear();
    for (uint64_t i = 0, n = d.u64(); i < n; ++i)
        ucodeLru_.push_back(d.u16());
    ucodeSize_.clear();
    for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
        uint16_t id = d.u16();
        ucodeSize_[id] = d.i32();
    }
    ucodeUsed_ = d.i32();
    ucodeLoadAg_ = d.i32();
    ucodeLoading_ = d.u16();
    ucodeRetries_ = d.i32();
    idleCause_ = static_cast<IdleCause>(d.u8());
    // Derived state: re-derive readiness and treat the restore as an
    // event, so the next tick rebuilds the scan and idle cause.
    for (Slot &sl : slots_)
        sl.ready = depsSatisfied(sl);
    compactPending_ = false;
    eventPending_ = true;
}

void
StreamController::classifyIdle()
{
    if (clusters_.busy()) {
        idleCause_ = IdleCause::None;
        return;
    }
    bool kernelNeedsUcode = false;
    bool kernelBlockedOnMem = false;
    bool kernelIssuing = false;
    bool anyKernel = false;
    bool anyMem = false;
    for (const Slot &s : slots_) {
        if (!s.instr)
            continue;
        StreamOpKind k = s.instr->kind;
        if (isMemOp(k))
            anyMem = true;
        if (k != StreamOpKind::KernelExec && k != StreamOpKind::Restart)
            continue;
        anyKernel = true;
        if (s.state == SlotState::NeedUcode) {
            kernelNeedsUcode = true;
        } else if (s.state == SlotState::Issuing) {
            kernelIssuing = true;
        } else if (s.state == SlotState::Waiting) {
            // Blocked on a memory dependency?
            for (uint32_t d : s.instr->deps) {
                if (!done_[d] && program_ &&
                    isMemOp(program_->instrs[d].kind)) {
                    kernelBlockedOnMem = true;
                }
            }
            if (s.ready)
                kernelIssuing = true;   // eligible, waiting for pipeline
        }
    }
    if (kernelNeedsUcode)
        idleCause_ = IdleCause::UcodeLoad;
    else if (kernelBlockedOnMem)
        idleCause_ = IdleCause::Memory;
    else if (kernelIssuing)
        idleCause_ = IdleCause::ScOverhead;
    else if (!anyKernel && anyMem)
        idleCause_ = IdleCause::Memory;
    else
        idleCause_ = IdleCause::Host;
}

} // namespace imagine
