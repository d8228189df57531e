#include "mem/memory.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
MemStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".wordsLoaded", &wordsLoaded);
    reg.scalar(prefix + ".wordsStored", &wordsStored);
    reg.scalar(prefix + ".cacheHits", &cacheHits);
    reg.scalar(prefix + ".dramAccesses", &dramAccesses);
    reg.scalar(prefix + ".rowMisses", &rowMisses);
    reg.scalar(prefix + ".bugPrecharges", &bugPrecharges);
    reg.scalar(prefix + ".channelBusyMemCycles", &channelBusyMemCycles);
}

void
MemorySystem::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

MemorySystem::MemorySystem(const MachineConfig &cfg, Srf &srf)
    : cfg_(cfg), srf_(srf), ags_(cfg.numAddressGenerators),
      channels_(cfg.numChannels),
      cacheTags_(static_cast<size_t>(cfg.mcCacheWords), -1)
{
    for (Channel &ch : channels_)
        ch.banks.assign(cfg.banksPerChannel, Bank{});
}

double
MemorySystem::peakWordsPerCycle() const
{
    return static_cast<double>(cfg_.numChannels) / cfg_.memClockDivider;
}

void
MemorySystem::setTrace(trace::TraceSink *sink)
{
    trace_ = sink;
    if (!sink)
        return;
    agTracks_.clear();
    chanTracks_.clear();
    for (size_t i = 0; i < ags_.size(); ++i)
        agTracks_.push_back(
            sink->addTrack(trace::MemComp, strfmt("ag%zu", i)));
    for (size_t i = 0; i < channels_.size(); ++i)
        chanTracks_.push_back(
            sink->addTrack(trace::MemComp, strfmt("chan%zu", i)));
}

void
MemorySystem::rearmTrace()
{
    if (!trace_)
        return;
    for (size_t i = 0; i < ags_.size(); ++i) {
        const AgState &st = ags_[i];
        if (!st.active)
            continue;
        trace_->openSpan(agTracks_[i], trace_->now(),
                         st.sink ? "ucode"
                                 : (st.isLoad ? "load" : "store"),
                         st.length);
    }
}

void
MemorySystem::startLoad(int ag, const Mar &mar, const Sdr &dst,
                        const Sdr *idx)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = true;
    st.mar = mar;
    st.length = dst.length;
    st.dataClient = srf_.openOut(dst);
    if (mar.mode == MarMode::Indexed) {
        IMAGINE_ASSERT(idx, "indexed load without index stream");
        st.indexed = true;
        st.idxClient = srf_.openIn(*idx);
        IMAGINE_ASSERT(idx->length * mar.recordWords == dst.length,
                       "index stream length %u does not cover %u words",
                       idx->length, dst.length);
    } else {
        IMAGINE_ASSERT(dst.length % mar.recordWords == 0,
                       "stream length %u not a multiple of record size %u",
                       dst.length, mar.recordWords);
    }
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "load", st.length);
}

void
MemorySystem::startStore(int ag, const Mar &mar, const Sdr &src,
                         const Sdr *idx)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = false;
    st.mar = mar;
    st.length = src.length;
    st.dataClient = srf_.openIn(src);
    if (mar.mode == MarMode::Indexed) {
        IMAGINE_ASSERT(idx, "indexed store without index stream");
        st.indexed = true;
        st.idxClient = srf_.openIn(*idx);
    }
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "store", st.length);
}

void
MemorySystem::startSinkLoad(int ag, Addr baseWord, uint32_t words)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(!st.active, "AG%d already busy", ag);
    st = AgState{};
    st.active = true;
    st.isLoad = true;
    st.sink = true;
    st.mar.baseWord = baseWord;
    st.mar.mode = MarMode::Stride;
    st.mar.strideWords = 1;
    st.mar.recordWords = 1;
    st.length = words;
    if (trace_)
        trace_->openSpan(agTracks_[static_cast<size_t>(ag)],
                         trace_->now(), "ucode", st.length);
}

bool
MemorySystem::agDone(int ag) const
{
    const AgState &st = ags_[ag];
    if (!st.active || st.completed < st.length)
        return false;
    if (st.isLoad && !st.sink)
        return srf_.outDrained(st.dataClient);
    return true;
}

bool
MemorySystem::agFaulted(int ag) const
{
    const AgState &st = ags_[ag];
    if (!st.active)
        return false;
    if (st.faultDetected)
        return true;
    return st.isLoad && !st.sink && st.dataClient >= 0 &&
           srf_.clientFaulted(st.dataClient);
}

void
MemorySystem::dumpHang(HangReport &report) const
{
    for (size_t i = 0; i < ags_.size(); ++i) {
        const AgState &st = ags_[i];
        HangReport::AgInfo info;
        info.ag = static_cast<int>(i);
        info.active = st.active;
        info.isLoad = st.isLoad;
        info.sink = st.sink;
        info.completed = st.completed;
        info.length = st.length;
        report.ags.push_back(std::move(info));
    }
    report.queuedDramRequests = 0;
    for (const Channel &ch : channels_)
        report.queuedDramRequests += ch.queue.size();
}

namespace
{

/** Expose a priority_queue's protected underlying container. */
template <typename Q>
const typename Q::container_type &
pqContainer(const Q &q)
{
    struct Hack : Q
    {
        using Q::c;
    };
    return q.*&Hack::c;
}

} // namespace

void
MemorySystem::saveState(ckpt::Serializer &s) const
{
    s.u64(ags_.size());
    for (const AgState &st : ags_) {
        s.b(st.active);
        s.b(st.isLoad);
        s.b(st.indexed);
        s.b(st.sink);
        s.u64(st.mar.baseWord);
        s.u8(static_cast<uint8_t>(st.mar.mode));
        s.u32(st.mar.strideWords);
        s.u32(st.mar.recordWords);
        s.i32(st.dataClient);
        s.i32(st.idxClient);
        s.u32(st.length);
        s.u32(st.nextElem);
        s.u32(st.completed);
        s.u32(st.curRecord);
        s.u64(st.curRecordBase);
        // The heap array verbatim: restoring it element by element
        // reproduces the identical internal layout (each push's sift-up
        // terminates immediately on an already-valid heap), so pop
        // order is bit-identical to the run that wrote it.
        const std::vector<Delivery> &heap = pqContainer(st.deliveries);
        s.u64(heap.size());
        for (const Delivery &del : heap) {
            s.u64(del.ready);
            s.u32(del.elem);
            s.u32(del.data);
        }
        s.u64(st.startCycle);
        s.b(st.faultDetected);
        s.u64(st.stallUntil);
    }
    s.u64(channels_.size());
    for (size_t c = 0; c < channels_.size(); ++c) {
        const Channel &ch = channels_[c];
        s.u64(ch.queue.size());
        for (const DramReq &rq : ch.queue) {
            s.u64(reqAddr(rq, c));
            s.u32(rq.elem);
            s.u8(rq.ag);
            s.b(rq.isWrite);
            s.u64(rq.enqueuedMem);
        }
        s.u64(ch.banks.size());
        for (const Bank &bk : ch.banks) {
            s.i64(bk.openRow);
            s.u64(bk.nextFreeMem);
            s.u32(bk.seqHits);
            s.u64(bk.lastPerChan);
        }
        s.u64(ch.busNextFreeMem);
        s.u32(ch.frontSkips);
    }
    s.vec(cacheTags_);
    space_.saveState(s);
}

void
MemorySystem::loadState(ckpt::Deserializer &d)
{
    ags_.assign(d.u64(), AgState{});
    for (AgState &st : ags_) {
        st.active = d.b();
        st.isLoad = d.b();
        st.indexed = d.b();
        st.sink = d.b();
        st.mar.baseWord = d.u64();
        st.mar.mode = static_cast<MarMode>(d.u8());
        st.mar.strideWords = d.u32();
        st.mar.recordWords = d.u32();
        st.dataClient = d.i32();
        st.idxClient = d.i32();
        st.length = d.u32();
        st.nextElem = d.u32();
        st.completed = d.u32();
        st.curRecord = d.u32();
        st.curRecordBase = d.u64();
        for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
            Delivery del;
            del.ready = d.u64();
            del.elem = d.u32();
            del.data = d.u32();
            st.deliveries.push(del);
        }
        st.startCycle = d.u64();
        st.faultDetected = d.b();
        st.stallUntil = d.u64();
    }
    channels_.assign(d.u64(), Channel{});
    for (size_t c = 0; c < channels_.size(); ++c) {
        Channel &ch = channels_[c];
        for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
            Addr addr = d.u64();
            uint32_t elem = d.u32();
            uint8_t ag = d.u8();
            bool isWrite = d.b();
            Cycle enq = d.u64();
            if (!MemorySpace::inBounds(addr) ||
                addr % channels_.size() != c)
                throw SimError(SimErrorKind::Fatal,
                               strfmt("checkpoint DRAM request for word "
                                      "0x%llx is not on channel %zu",
                                      static_cast<unsigned long long>(addr),
                                      c));
            ch.queue.push_back(makeReq(addr, elem, ag, isWrite, enq));
        }
        ch.banks.assign(d.u64(), Bank{});
        for (Bank &bk : ch.banks) {
            bk.openRow = d.i64();
            bk.nextFreeMem = d.u64();
            bk.seqHits = d.u32();
            bk.lastPerChan = d.u64();
        }
        ch.busNextFreeMem = d.u64();
        ch.frontSkips = d.u32();
    }
    cacheTags_ = d.vec<int64_t>();
    space_.loadState(d);
}

void
MemorySystem::finish(int ag)
{
    AgState &st = ags_[ag];
    IMAGINE_ASSERT(agDone(ag), "finish on unfinished AG%d", ag);
    if (trace_)
        trace_->closeSpan(agTracks_[static_cast<size_t>(ag)],
                          trace_->now());
    if (st.dataClient >= 0)
        srf_.close(st.dataClient);
    if (st.idxClient >= 0)
        srf_.close(st.idxClient);
    st = AgState{};
}

bool
MemorySystem::recordBase(AgState &st, uint32_t record, Addr &base)
{
    if (!st.indexed) {
        base = st.mar.baseWord +
               static_cast<Addr>(record) * st.mar.strideWords;
        return true;
    }
    if (st.curRecord == record) {
        base = st.curRecordBase;
        return true;
    }
    if (!srf_.inReady(st.idxClient, record))
        return false;
    Word off = srf_.inConsume(st.idxClient, record);
    st.curRecord = record;
    st.curRecordBase = st.mar.baseWord + off;
    base = st.curRecordBase;
    return true;
}

void
MemorySystem::issueAccess(AgState &st, int agIdx, Addr addr, uint32_t elem,
                          Cycle now)
{
    if (st.isLoad) {
        size_t slot = addr % cacheTags_.size();
        if (cacheTags_[slot] == static_cast<int64_t>(addr)) {
            ++stats_.cacheHits;
            st.deliveries.push({now + cfg_.mcPipelineCycles, elem,
                                space_.readWord(addr)});
            return;
        }
        cacheTags_[slot] = static_cast<int64_t>(addr);
    } else {
        // Write-through: memory image updated at consume time; the tag
        // stays valid because data is always read from the image.
        size_t slot = addr % cacheTags_.size();
        if (cacheTags_[slot] != static_cast<int64_t>(addr))
            cacheTags_[slot] = -1;
    }
    channels_[addr % channels_.size()].queue.push_back(
        makeReq(addr, elem, static_cast<uint8_t>(agIdx), !st.isLoad,
                now / cfg_.memClockDivider));
}

MemorySystem::DramReq
MemorySystem::makeReq(Addr wordAddr, uint32_t elem, uint8_t ag,
                      bool isWrite, Cycle enqueuedMem) const
{
    // In bounds (< 2^26 words), so every decoded field fits 32 bits.
    DramReq r;
    r.perChan = static_cast<uint32_t>(wordAddr / channels_.size());
    uint32_t bankRow = r.perChan / static_cast<uint32_t>(cfg_.rowWords);
    uint32_t banks = static_cast<uint32_t>(cfg_.banksPerChannel);
    r.bank = static_cast<uint16_t>(bankRow % banks);
    r.row = bankRow / banks;
    r.elem = elem;
    r.ag = ag;
    r.isWrite = isWrite;
    r.enqueuedMem = enqueuedMem;
    return r;
}

void
MemorySystem::generate(int ag, Cycle now)
{
    AgState &st = ags_[ag];
    // Injected AG stall bursts: the generator goes quiet for a stretch
    // of cycles (a timing-only fault; no data is at risk).
    if (inj_) {
        if (now < st.stallUntil)
            return;
        if (st.nextElem < st.length) {
            int burst = inj_->onAgGenerate(ag);
            if (burst > 0) {
                st.stallUntil = now + static_cast<Cycle>(burst);
                return;
            }
        }
    }
    // Strided records burst several words per cycle; indexed (gather/
    // scatter) access is limited to one generated address per cycle.
    int budget = st.indexed ? 1 : 4;
    // Keep outstanding work inside the SRF buffer window (or a fixed
    // window for sink loads).
    while (budget > 0 && st.nextElem < st.length) {
        if (st.sink) {
            if (st.nextElem - st.completed >= 128)
                break;
        } else if (st.isLoad) {
            if (!srf_.outCanAccept(st.dataClient, st.nextElem))
                break;
        } else {
            if (!srf_.inReady(st.dataClient, st.nextElem))
                break;
        }
        uint32_t record = st.nextElem / st.mar.recordWords;
        uint32_t w = st.nextElem % st.mar.recordWords;
        Addr base;
        if (!recordBase(st, record, base))
            break;
        Addr addr = base + w;
        if (!MemorySpace::inBounds(addr)) {
            throw SimError(
                SimErrorKind::MemoryBounds,
                strfmt("AG%d %s generated word address 0x%llx outside "
                       "the 256 MB board address space (element %u, "
                       "base 0x%llx)",
                       ag, st.isLoad ? "load" : "store",
                       static_cast<unsigned long long>(addr),
                       st.nextElem,
                       static_cast<unsigned long long>(st.mar.baseWord)));
        }
        if (!st.isLoad) {
            Word data = srf_.inConsume(st.dataClient, st.nextElem);
            if (inj_) {
                // A flip on the way out over the SDRAM pins.
                FaultInjector::Flip f = inj_->onDramWord(addr, data);
                if (f.hit) {
                    data = f.word;
                    if (f.detected)
                        st.faultDetected = true;
                }
            }
            space_.writeWord(addr, data);
        }
        issueAccess(st, ag, addr, st.nextElem, now);
        ++st.nextElem;
        --budget;
    }
}

void
MemorySystem::tickChannels(uint64_t memCycle)
{
    for (Channel &ch : channels_) {
        if (ch.queue.empty() || ch.busNextFreeMem > memCycle)
            continue;
        // FR-FCFS with a starvation guard: prefer a row hit among the
        // oldest eight requests, but never skip the front more than 16
        // times in a row.
        size_t pick = 0;
        if (ch.frontSkips < 16) {
            size_t scan = std::min<size_t>(ch.queue.size(), 8);
            for (size_t i = 0; i < scan; ++i) {
                const DramReq &r = ch.queue[i];
                const Bank &b = ch.banks[r.bank];
                if (b.openRow == static_cast<int64_t>(r.row) &&
                    b.nextFreeMem <= memCycle) {
                    pick = i;
                    break;
                }
            }
        }
        ch.frontSkips = (pick == 0) ? 0 : ch.frontSkips + 1;
        DramReq req = ch.queue[pick];
        // Order-preserving removal: shift the entries older than the
        // pick down one slot and pop the front.  The FR-FCFS scan keys
        // on position (oldest eight), so relative order must survive;
        // this moves at most seven entries instead of deque::erase's
        // O(queue depth) tail shift.
        for (size_t i = pick; i > 0; --i)
            ch.queue[i] = ch.queue[i - 1];
        ch.queue.pop_front();

        const Addr perChan = req.perChan;
        Bank &bank = ch.banks[req.bank];
        const auto row = static_cast<int64_t>(req.row);
        const size_t chIdx = static_cast<size_t>(&ch - channels_.data());
        const Addr wordAddr = reqAddr(req, chIdx);

        uint64_t start = std::max(memCycle, bank.nextFreeMem);
        uint64_t cost;
        if (bank.openRow == row) {
            // The prototype bug only affects sequential (streaming)
            // access patterns: spurious precharges between consecutive
            // same-row accesses (section 3.3).
            if (perChan == bank.lastPerChan + 1)
                ++bank.seqHits;
            else
                bank.seqHits = 0;
            if (cfg_.quirkPrechargeBug && bank.seqHits >= 24) {
                cost = cfg_.tRp + cfg_.tRcd + cfg_.tCas;
                bank.seqHits = 0;
                ++stats_.bugPrecharges;
            } else {
                cost = 1;
            }
        } else {
            cost = (bank.openRow < 0 ? 0 : cfg_.tRp) + cfg_.tRcd +
                   cfg_.tCas;
            bank.openRow = row;
            bank.seqHits = 0;
            ++stats_.rowMisses;
        }
        bank.lastPerChan = perChan;
        uint64_t doneMem = start + cost;
        bank.nextFreeMem = doneMem;
        ch.busNextFreeMem = doneMem;
        ++stats_.dramAccesses;
        stats_.channelBusyMemCycles += cost;
        if (trace_) {
            // One access = one busy region in core cycles; contiguous
            // accesses coalesce (busNextFreeMem serializes the track).
            uint64_t div = static_cast<uint64_t>(cfg_.memClockDivider);
            trace_->mergeSpan(chanTracks_[chIdx], start * div,
                              doneMem * div, "busy", cost);
        }

        AgState &st = ags_[req.ag];
        Cycle readyCore = doneMem * cfg_.memClockDivider +
                          cfg_.mcPipelineCycles;
        Word data = req.isWrite ? 0 : space_.readWord(wordAddr);
        // A flip on the way in over the SDRAM pins.  Microcode (sink)
        // transfers are handled by the UcodeLoad fault site instead.
        if (inj_ && !req.isWrite && !st.sink) {
            FaultInjector::Flip f = inj_->onDramWord(wordAddr, data);
            if (f.hit) {
                data = f.word;
                if (f.detected)
                    st.faultDetected = true;
            }
        }
        st.deliveries.push({readyCore, req.elem, data});
    }
}

void
MemorySystem::tick(Cycle now)
{
    if (now % cfg_.memClockDivider == 0)
        tickChannels(now / cfg_.memClockDivider);

    for (size_t ag = 0; ag < ags_.size(); ++ag) {
        AgState &st = ags_[ag];
        if (!st.active)
            continue;
        generate(static_cast<int>(ag), now);
        while (!st.deliveries.empty() &&
               st.deliveries.top().ready <= now) {
            Delivery d = st.deliveries.top();
            st.deliveries.pop();
            if (st.isLoad && !st.sink) {
                srf_.outProduce(st.dataClient, d.elem, d.data);
                ++stats_.wordsLoaded;
            } else if (st.isLoad) {
                ++stats_.wordsLoaded;
            } else {
                ++stats_.wordsStored;
            }
            ++st.completed;
        }
    }
}

} // namespace imagine
