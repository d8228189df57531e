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
      rings_(ags_.size() * (channels_.size() + 1)),
      cacheTags_(static_cast<size_t>(cfg.mcCacheWords), -1),
      cacheDiv_(static_cast<uint32_t>(cfg.mcCacheWords)),
      chanDiv_(static_cast<uint32_t>(cfg.numChannels)),
      rowDiv_(static_cast<uint32_t>(cfg.rowWords)),
      bankDiv_(static_cast<uint32_t>(cfg.banksPerChannel))
{
    for (Channel &ch : channels_)
        ch.banks.assign(cfg.banksPerChannel, Bank{});
}

void
MemorySystem::setFaultInjector(FaultInjector *inj)
{
    // The injector picks the delivery order, so it cannot change under
    // words in flight.
    for (const AgState &st : ags_)
        IMAGINE_ASSERT(!st.active, "fault injector attached mid-transfer");
    inj_ = inj;
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

/** Fewest serialized bytes of one AG, one bank and one channel. */
constexpr size_t kAgBytes = 78;
constexpr size_t kBankBytes = 28;
constexpr size_t kChannelBytes = 28;

} // namespace

std::vector<MemorySystem::Delivery>
MemorySystem::pendingDeliveries(size_t ag) const
{
    if (inj_)
        return pqContainer(ags_[ag].deliveries);
    std::vector<Delivery> out;
    const size_t per = channels_.size() + 1;
    for (size_t r = ag * per; r < (ag + 1) * per; ++r)
        for (size_t i = 0; i < rings_[r].size(); ++i)
            out.push_back(rings_[r][i]);
    return out;
}

void
MemorySystem::pushDelivery(size_t ag, const Delivery &d)
{
    AgState &st = ags_[ag];
    if (inj_) {
        st.deliveries.push(d);
        return;
    }
    ring(ag, d.src).push_back(d);
    st.nextReady = std::min(st.nextReady, d.ready);
}

void
MemorySystem::deliverOne(AgState &st, const Delivery &d)
{
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

void
MemorySystem::deliver(size_t ag, Cycle now)
{
    AgState &st = ags_[ag];
    if (inj_) {
        while (!st.deliveries.empty() &&
               st.deliveries.top().ready <= now) {
            Delivery d = st.deliveries.top();
            st.deliveries.pop();
            deliverOne(st, d);
        }
        return;
    }
    Cycle next = UINT64_MAX;
    for (uint32_t src = 0; src <= channels_.size(); ++src) {
        Ring<Delivery> &q = ring(ag, src);
        while (!q.empty() && q.front().ready <= now) {
            deliverOne(st, q.front());
            q.pop_front();
        }
        if (!q.empty())
            next = std::min(next, q.front().ready);
    }
    st.nextReady = next;
}

void
MemorySystem::saveState(ckpt::Serializer &s) const
{
    s.u64(ags_.size());
    for (size_t ag = 0; ag < ags_.size(); ++ag) {
        const AgState &st = ags_[ag];
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
        std::vector<Delivery> pending = pendingDeliveries(ag);
        s.u64(pending.size());
        for (const Delivery &del : pending) {
            s.u64(del.ready);
            s.u32(del.elem);
            s.u32(del.data);
            s.u32(del.src);
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
    auto mismatch = [](const char *what, uint64_t got, int want) {
        throw SimError(SimErrorKind::Fatal,
                       strfmt("checkpoint memory system has %llu %s, this "
                              "machine %d",
                              static_cast<unsigned long long>(got), what,
                              want));
    };
    const size_t nAgs = d.count(kAgBytes);
    if (nAgs != static_cast<size_t>(cfg_.numAddressGenerators))
        mismatch("address generators", nAgs, cfg_.numAddressGenerators);
    ags_.assign(nAgs, AgState{});
    for (Ring<Delivery> &q : rings_)
        q.clear();
    for (size_t ag = 0; ag < nAgs; ++ag) {
        AgState &st = ags_[ag];
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
        if (st.mar.recordWords == 0)
            throw SimError(SimErrorKind::Fatal,
                           strfmt("checkpoint AG%zu has zero-word records",
                                  ag));
        st.genRecord = st.nextElem / st.mar.recordWords;
        st.genWord = st.nextElem % st.mar.recordWords;
        // Re-queued in saved order: that rebuilds a heap array verbatim
        // (each push's sift-up stops at once on a valid heap), so its
        // pop order is the saving run's, and refills each ring in order.
        // The config fingerprint pins whether an injector is attached,
        // so the saving run used the same delivery order.
        for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
            Delivery del;
            del.ready = d.u64();
            del.elem = d.u32();
            del.data = d.u32();
            del.src = d.u32();
            if (del.src > static_cast<uint32_t>(cfg_.numChannels))
                throw SimError(SimErrorKind::Fatal,
                               strfmt("checkpoint delivery source %u is "
                                      "not a channel or the cache",
                                      del.src));
            pushDelivery(ag, del);
        }
        st.startCycle = d.u64();
        st.faultDetected = d.b();
        st.stallUntil = d.u64();
    }
    const size_t nChannels = d.count(kChannelBytes);
    if (nChannels != static_cast<size_t>(cfg_.numChannels))
        mismatch("channels", nChannels, cfg_.numChannels);
    channels_.assign(nChannels, Channel{});
    for (size_t c = 0; c < channels_.size(); ++c) {
        Channel &ch = channels_[c];
        for (uint64_t i = 0, n = d.u64(); i < n; ++i) {
            Addr addr = d.u64();
            uint32_t elem = d.u32();
            uint8_t ag = d.u8();
            bool isWrite = d.b();
            auto bad = [&] {
                return SimError(SimErrorKind::Fatal,
                                strfmt("checkpoint DRAM request for word "
                                       "0x%llx is not on channel %zu",
                                       static_cast<unsigned long long>(addr),
                                       c));
            };
            if (!MemorySpace::inBounds(addr) || ag >= nAgs)
                throw bad();
            size_t reqCh = 0;
            ch.queue.push_back(makeReq(static_cast<uint32_t>(addr), elem, ag,
                                       isWrite, reqCh));
            if (reqCh != c)
                throw bad();
        }
        const size_t nBanks = d.count(kBankBytes);
        if (nBanks != static_cast<size_t>(cfg_.banksPerChannel))
            mismatch("banks per channel", nBanks, cfg_.banksPerChannel);
        ch.banks.assign(nBanks, Bank{});
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
    if (cacheTags_.size() != static_cast<size_t>(cfg_.mcCacheWords))
        mismatch("cache words", cacheTags_.size(), cfg_.mcCacheWords);
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
MemorySystem::issueAccess(AgState &st, int agIdx, uint32_t addr,
                          uint32_t elem, Cycle now)
{
    const auto tag = static_cast<int64_t>(addr);
    int64_t &slot = cacheTags_[cacheDiv_.mod(addr)];
    if (st.isLoad) {
        if (slot == tag) {
            ++stats_.cacheHits;
            pushDelivery(static_cast<size_t>(agIdx),
                         {now + cfg_.mcPipelineCycles, elem,
                          space_.readWord(addr),
                          static_cast<uint32_t>(channels_.size())});
            return;
        }
        slot = tag;
    } else if (slot != tag) {
        // Write-through: memory image updated at consume time; the tag
        // stays valid because data is always read from the image.
        slot = -1;
    }
    size_t ch = 0;
    DramReq rq = makeReq(addr, elem, static_cast<uint8_t>(agIdx),
                         !st.isLoad, ch);
    channels_[ch].queue.push_back(rq);
}

MemorySystem::DramReq
MemorySystem::makeReq(uint32_t wordAddr, uint32_t elem, uint8_t ag,
                      bool isWrite, size_t &ch) const
{
    DramReq r;
    r.perChan = chanDiv_.div(wordAddr);
    ch = wordAddr - r.perChan * chanDiv_.divisor();
    r.elem = elem;
    r.ag = ag;
    r.isWrite = isWrite;
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
        int burst = inj_->onAgGenerate(ag);
        if (burst > 0) {
            st.stallUntil = now + static_cast<Cycle>(burst);
            return;
        }
    }
    // Strided records burst several words per cycle; indexed (gather/
    // scatter) access is limited to one generated address per cycle.
    // Outstanding work stays inside the SRF buffer window (or a fixed
    // window for sink loads).  Nothing this loop does moves that
    // window's far edge - only deliveries and the SRF tick do - so the
    // burst's end is known up front.
    uint32_t end = std::min(st.length, st.nextElem + (st.indexed ? 1 : 4));
    if (st.sink)
        end = std::min(end, st.completed + 128);
    else if (st.isLoad)
        end = std::min(end, srf_.outWindowEnd(st.dataClient));
    else
        end = std::min(end, srf_.inFetched(st.dataClient));
    while (st.nextElem < end) {
        Addr base;
        if (!recordBase(st, st.genRecord, base))
            break;
        Addr addr = base + st.genWord;
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
        issueAccess(st, ag, static_cast<uint32_t>(addr), st.nextElem, now);
        ++st.nextElem;
        if (++st.genWord == st.mar.recordWords) {
            st.genWord = 0;
            ++st.genRecord;
        }
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
        uint32_t bankIdx = 0, rowIdx = 0;
        decodeBank(ch.queue.front().perChan, bankIdx, rowIdx);
        if (ch.frontSkips < 16) {
            size_t scan = std::min<size_t>(ch.queue.size(), 8);
            for (size_t i = 0; i < scan; ++i) {
                uint32_t bk = bankIdx, rw = rowIdx;
                if (i > 0)
                    decodeBank(ch.queue[i].perChan, bk, rw);
                const Bank &b = ch.banks[bk];
                if (b.openRow == static_cast<int64_t>(rw) &&
                    b.nextFreeMem <= memCycle) {
                    pick = i;
                    bankIdx = bk;
                    rowIdx = rw;
                    break;
                }
            }
        }
        ch.frontSkips = (pick == 0) ? 0 : ch.frontSkips + 1;
        DramReq req = ch.queue[pick];
        // Order-preserving removal: shift the entries older than the
        // pick down one slot and pop the front.  The FR-FCFS scan keys
        // on position (oldest eight), so relative order must survive;
        // this moves at most seven entries, not the queue's tail.
        for (size_t i = pick; i > 0; --i)
            ch.queue[i] = ch.queue[i - 1];
        ch.queue.pop_front();

        const Addr perChan = req.perChan;
        Bank &bank = ch.banks[bankIdx];
        const auto row = static_cast<int64_t>(rowIdx);
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
        pushDelivery(req.ag, {readyCore, req.elem, data,
                              static_cast<uint32_t>(chIdx)});
    }
}

void
MemorySystem::tick(Cycle now)
{
    const auto div = static_cast<uint64_t>(cfg_.memClockDivider);
    const uint64_t sinceBase = now - memBaseCore_;
    if (sinceBase >= div) {     // also true when now went backwards
        if (sinceBase == div) {
            memBaseCore_ = now;
            ++memNow_;
        } else {
            memNow_ = now / div;
            memBaseCore_ = memNow_ * div;
        }
    }
    if (now == memBaseCore_)
        tickChannels(memNow_);

    for (size_t ag = 0; ag < ags_.size(); ++ag) {
        const AgState &st = ags_[ag];
        if (!st.active)
            continue;
        if (st.nextElem < st.length)    // else generate() has no work
            generate(static_cast<int>(ag), now);
        if (inj_ || now >= st.nextReady)
            deliver(ag, now);
    }
}

} // namespace imagine
