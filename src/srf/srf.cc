#include "srf/srf.hh"

#include <algorithm>

#include "ckpt/serializer.hh"
#include "sim/fault.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "trace/trace.hh"

namespace imagine
{

void
SrfStats::registerOn(StatsRegistry &reg, const std::string &prefix)
{
    reg.scalar(prefix + ".wordsTransferred", &wordsTransferred);
    reg.scalar(prefix + ".busyCycles", &busyCycles);
}

void
Srf::registerStats(StatsRegistry &reg)
{
    stats_.registerOn(reg, componentName());
}

Srf::Srf(const MachineConfig &cfg)
    : cfg_(cfg), size_(cfg.srfSizeWords), data_(cfg.srfSizeWords, 0)
{
}

Word
Srf::read(uint32_t wordAddr) const
{
    IMAGINE_ASSERT(wordAddr < size_, "SRF read out of range: %u", wordAddr);
    return data_[wordAddr];
}

void
Srf::write(uint32_t wordAddr, Word w)
{
    IMAGINE_ASSERT(wordAddr < size_, "SRF write out of range: %u",
                   wordAddr);
    data_[wordAddr] = w;
}

Srf::Client &
Srf::at(int client)
{
    IMAGINE_ASSERT(client >= 0 &&
                       client < static_cast<int>(clients_.size()) &&
                       clients_[client].active,
                   "bad SRF client handle %d", client);
    return clients_[client];
}

const Srf::Client &
Srf::at(int client) const
{
    return const_cast<Srf *>(this)->at(client);
}

void
Srf::updateMovable(Client &c)
{
    bool m;
    if (!c.active)
        m = false;
    else if (c.isIn)
        m = c.fetched < c.length && c.fetched < c.base + c.windowWords;
    else
        m = c.base < c.produced && c.window[c.baseSlot];
    if (m != c.movable) {
        c.movable = m;
        movableCount_ += m ? 1 : -1;
    }
}

int
Srf::openIn(const Sdr &sdr, uint32_t minWindow)
{
    IMAGINE_ASSERT(sdr.srfOffset + sdr.length <= size_,
                   "stream [%u, %u) exceeds SRF capacity", sdr.srfOffset,
                   sdr.srfOffset + sdr.length);
    Client c;
    c.active = true;
    c.isIn = true;
    c.offset = sdr.srfOffset;
    c.length = sdr.length;
    c.windowWords = std::max(
        static_cast<uint32_t>(cfg_.streamBufferWords) * numClusters,
        minWindow);
    c.window.assign(c.windowWords, 0);
    int id = -1;
    for (size_t i = 0; i < clients_.size(); ++i) {
        if (!clients_[i].active) {
            clients_[i] = std::move(c);
            id = static_cast<int>(i);
            break;
        }
    }
    if (id < 0) {
        clients_.push_back(std::move(c));
        id = static_cast<int>(clients_.size() - 1);
    }
    updateMovable(clients_[static_cast<size_t>(id)]);
    return id;
}

int
Srf::openOut(const Sdr &sdr, uint32_t minWindow)
{
    int id = openIn(sdr, minWindow);
    clients_[id].isIn = false;
    updateMovable(clients_[static_cast<size_t>(id)]);
    return id;
}

uint32_t
Srf::close(int client)
{
    Client &c = at(client);
    uint32_t produced = c.produced;
    if (c.movable)
        --movableCount_;
    c = Client{};
    return produced;
}

bool
Srf::inReady(int client, uint32_t elem) const
{
    const Client &c = at(client);
    return elem < c.fetched;
}

Word
Srf::inConsume(int client, uint32_t elem)
{
    Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "inConsume on output client");
    IMAGINE_ASSERT(elem >= c.base && elem < c.fetched,
                   "SRF consume of element %u outside window [%u, %u)",
                   elem, c.base, c.fetched);
    uint32_t slot = slotOf(c, elem);
    IMAGINE_ASSERT(!c.window[slot], "SRF element %u consumed twice", elem);
    Word w = data_[c.offset + elem];
    c.window[slot] = 1;
    while (c.base < c.fetched && c.window[c.baseSlot])
        popBase(c);
    updateMovable(c);   // base advanced: window space may have opened
    return w;
}

void
Srf::inConsumeRow(int client, uint32_t first, uint32_t stride, Word *dst)
{
    Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "inConsume on output client");
    uint32_t last = first + (numClusters - 1) * stride;
    IMAGINE_ASSERT(first >= c.base && last < c.fetched,
                   "SRF consume of row [%u, %u] outside window [%u, %u)",
                   first, last, c.base, c.fetched);
    // The row spans less than the window (last < fetched <= base +
    // window), so stepping the ring slot by stride wraps at most once
    // per lane.
    const Word *src = &data_[c.offset];
    uint32_t slot = slotOf(c, first);
    for (int l = 0; l < numClusters; ++l) {
        uint32_t elem = first + static_cast<uint32_t>(l) * stride;
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u consumed twice",
                       elem);
        dst[l] = src[elem];
        c.window[slot] = 1;
        slot += stride;
        if (slot >= c.windowWords)
            slot -= c.windowWords;
    }
    // One base-advance sweep: the eight marks commute, so the final
    // base (and therefore the arbiter-visible window space) matches
    // eight sequential consumes exactly.
    while (c.base < c.fetched && c.window[c.baseSlot])
        popBase(c);
    updateMovable(c);
}

bool
Srf::outCanAccept(int client, uint32_t elem) const
{
    const Client &c = at(client);
    return elem >= c.base && elem < c.base + c.windowWords;
}

void
Srf::outProduce(int client, uint32_t elem, Word w)
{
    Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "outProduce on input client");
    IMAGINE_ASSERT(outCanAccept(client, elem),
                   "SRF produce of element %u outside window at base %u",
                   elem, c.base);
    uint32_t slot = slotOf(c, elem);
    IMAGINE_ASSERT(!c.window[slot], "SRF element %u produced twice", elem);
    IMAGINE_ASSERT(c.offset + elem < size_,
                   "stream overflow: element %u of stream at %u", elem,
                   c.offset);
    if (inj_) {
        FaultInjector::Flip f = inj_->onSrfWrite(c.offset + elem, w);
        if (f.hit) {
            w = f.word;
            if (f.detected)
                c.faulted = true;
        }
    }
    data_[c.offset + elem] = w;
    c.window[slot] = 1;
    c.produced = std::max(c.produced, elem + 1);
    updateMovable(c);   // the word at base may now be drainable
}

void
Srf::outProduceRow(int client, uint32_t first, uint32_t stride,
                   const Word *vals)
{
    Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "outProduce on input client");
    uint32_t last = first + (numClusters - 1) * stride;
    IMAGINE_ASSERT(first >= c.base && last < c.base + c.windowWords,
                   "SRF produce of row [%u, %u] outside window at base %u",
                   first, last, c.base);
    IMAGINE_ASSERT(c.offset + last < size_,
                   "stream overflow: element %u of stream at %u", last,
                   c.offset);
    Word *arr = &data_[c.offset];
    uint32_t slot = slotOf(c, first);
    for (int l = 0; l < numClusters; ++l) {
        uint32_t elem = first + static_cast<uint32_t>(l) * stride;
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u produced twice",
                       elem);
        Word w = vals[l];
        if (inj_) {
            FaultInjector::Flip f = inj_->onSrfWrite(c.offset + elem, w);
            if (f.hit) {
                w = f.word;
                if (f.detected)
                    c.faulted = true;
            }
        }
        arr[elem] = w;
        c.window[slot] = 1;
        slot += stride;
        if (slot >= c.windowWords)
            slot -= c.windowWords;
    }
    c.produced = std::max(c.produced, last + 1);
    updateMovable(c);
}

uint32_t
Srf::outAppendPos(int client) const
{
    return at(client).produced;
}

void
Srf::warpInRow(int client, uint32_t first, uint32_t stride, Word *dst)
{
    Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "warpInRow on output client");
    uint32_t last = first + (numClusters - 1) * stride;
    IMAGINE_ASSERT(first >= c.base && last < c.base + c.windowWords,
                   "SRF warp consume of row [%u, %u] outside window "
                   "[%u, %u)",
                   first, last, c.base, c.base + c.windowWords);
    IMAGINE_ASSERT(last < c.length,
                   "SRF warp consume of row [%u, %u] past stream end %u",
                   first, last, c.length);
    if (last >= c.fetched) {
        // Fetch inline what the arbiter would have streamed by now.
        stats_.wordsTransferred += last + 1 - c.fetched;
        c.fetched = last + 1;
    }
    const Word *src = &data_[c.offset];
    for (int l = 0; l < numClusters; ++l) {
        uint32_t elem = first + static_cast<uint32_t>(l) * stride;
        uint32_t slot = slotOf(c, elem);
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u consumed twice",
                       elem);
        dst[l] = src[elem];
        c.window[slot] = 1;
    }
    while (c.base < c.fetched && c.window[c.baseSlot])
        popBase(c);
    updateMovable(c);
}

void
Srf::warpOutRow(int client, uint32_t first, uint32_t stride,
                const Word *vals)
{
    Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "warpOutRow on input client");
    uint32_t last = first + (numClusters - 1) * stride;
    // Catch the arbiter up just far enough: drain the contiguous
    // present run at base only until the row fits in the space window
    // (during the folded cycles the arbiter would have moved at least
    // this much).  Draining more would leave the window emptier than
    // steady-state execution ever sees and bias the next stall-rate
    // measurement stratum.
    uint32_t drained = 0;
    while (c.base + c.windowWords <= last && c.base < c.produced &&
           c.window[c.baseSlot]) {
        popBase(c);
        ++drained;
    }
    IMAGINE_ASSERT(first >= c.base && last < c.base + c.windowWords,
                   "SRF warp produce of row [%u, %u] outside window at "
                   "base %u",
                   first, last, c.base);
    IMAGINE_ASSERT(c.offset + last < size_,
                   "stream overflow: element %u of stream at %u", last,
                   c.offset);
    Word *arr = &data_[c.offset];
    for (int l = 0; l < numClusters; ++l) {
        uint32_t elem = first + static_cast<uint32_t>(l) * stride;
        uint32_t slot = slotOf(c, elem);
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u produced twice",
                       elem);
        arr[elem] = vals[l];
        c.window[slot] = 1;
    }
    c.produced = std::max(c.produced, last + 1);
    stats_.wordsTransferred += drained;
    updateMovable(c);
}

void
Srf::warpInBulk(int client, uint32_t rec, const WarpRange *ops, size_t n)
{
    Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "warpInBulk on output client");
    const uint32_t rowWords = static_cast<uint32_t>(numClusters) * rec;
    // Per-record-word consumed-row frontier (exclusive).  Every record
    // word must be covered by exactly one op, or real execution could
    // never sweep the window past it.
    std::vector<uint32_t> hi(rec, UINT32_MAX);
    for (size_t i = 0; i < n; ++i) {
        IMAGINE_ASSERT(ops[i].elemIdx < rec &&
                           hi[ops[i].elemIdx] == UINT32_MAX,
                       "bulk In coverage of record word %u",
                       ops[i].elemIdx);
        IMAGINE_ASSERT(ops[i].rowHi > ops[i].rowLo,
                       "empty bulk In row range");
        hi[ops[i].elemIdx] = ops[i].rowHi;
    }
    uint32_t rMin = UINT32_MAX;
    uint64_t maxLast = 0;
    for (uint32_t e = 0; e < rec; ++e) {
        IMAGINE_ASSERT(hi[e] != UINT32_MAX,
                       "record word %u not covered by any loop In op", e);
        rMin = std::min(rMin, hi[e]);
        maxLast = std::max(
            maxLast, static_cast<uint64_t>(hi[e] - 1) * rowWords +
                         static_cast<uint32_t>(numClusters - 1) * rec + e);
    }
    IMAGINE_ASSERT(maxLast < c.length,
                   "bulk consume past stream end %u", c.length);
    // Fetch frontier and word count exactly as the per-row replay's
    // inline fetches would accumulate them (monotone max of row ends).
    const uint32_t fetched2 = static_cast<uint32_t>(maxLast) + 1;
    if (fetched2 > c.fetched) {
        stats_.wordsTransferred += fetched2 - c.fetched;
        c.fetched = fetched2;
    }
    // Post-sweep base: the first word of the lowest not-fully-consumed
    // row whose record word is still unconsumed.
    uint32_t base2 = rMin * rowWords;
    for (uint32_t e = 0; e < rec; ++e) {
        if (hi[e] == rMin) {
            base2 += e;
            break;
        }
    }
    IMAGINE_ASSERT(base2 >= c.base, "bulk consume behind base %u", c.base);
    setBase(c, base2);
    // Each ring slot holds the flag of its unique word in
    // [base, base + windowWords); set = consumed but not yet swept.
    for (uint32_t k = 0; k < c.windowWords; ++k) {
        uint32_t w = base2 + k;
        c.window[w % c.windowWords] = (w / rowWords) < hi[w % rec] ? 1 : 0;
    }
    updateMovable(c);
}

void
Srf::warpOutBulk(int client, uint32_t rec, const WarpRange *ops, size_t n,
                 const Word *tiles, uint32_t tileRows)
{
    Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "warpOutBulk on input client");
    IMAGINE_ASSERT(tileRows && (tileRows & (tileRows - 1)) == 0,
                   "tileRows %u not a power of two", tileRows);
    const uint32_t rowWords = static_cast<uint32_t>(numClusters) * rec;
    std::vector<uint32_t> hi(rec, UINT32_MAX);
    uint64_t maxLast = 0;
    for (size_t i = 0; i < n; ++i) {
        IMAGINE_ASSERT(ops[i].elemIdx < rec &&
                           hi[ops[i].elemIdx] == UINT32_MAX,
                       "bulk Out coverage of record word %u",
                       ops[i].elemIdx);
        IMAGINE_ASSERT(ops[i].rowHi > ops[i].rowLo,
                       "empty bulk Out row range");
        hi[ops[i].elemIdx] = ops[i].rowHi;
        maxLast = std::max(
            maxLast,
            static_cast<uint64_t>(ops[i].rowHi - 1) * rowWords +
                static_cast<uint32_t>(numClusters - 1) * rec +
                ops[i].elemIdx);
    }
    for (uint32_t e = 0; e < rec; ++e)
        IMAGINE_ASSERT(hi[e] != UINT32_MAX,
                       "record word %u not covered by any loop Out op", e);
    IMAGINE_ASSERT(c.offset + maxLast < size_,
                   "stream overflow: element %u of stream at %u",
                   static_cast<uint32_t>(maxLast), c.offset);
    // Synthesize the folded region's data: tile each op's producer
    // value-ring rows across its row range (row r uses ring slot
    // r & (tileRows - 1)), matching what the per-row replay re-emits.
    Word *arr = &data_[c.offset];
    for (size_t i = 0; i < n; ++i) {
        const WarpRange &r = ops[i];
        const Word *tile =
            tiles + i * tileRows * static_cast<uint32_t>(numClusters);
        for (uint32_t row = r.rowLo; row < r.rowHi; ++row) {
            const Word *src =
                tile + (row & (tileRows - 1)) *
                           static_cast<uint32_t>(numClusters);
            Word *dst = arr + static_cast<uint64_t>(row) * rowWords +
                        r.elemIdx;
            for (int l = 0; l < numClusters; ++l)
                dst[static_cast<uint32_t>(l) * rec] = src[l];
        }
    }
    // Drain point exactly as the per-row replay's minimal pre-drains
    // would leave it: the final base is set by the largest row end.
    const uint32_t produced2 = static_cast<uint32_t>(maxLast) + 1;
    uint32_t base2 = c.base;
    if (produced2 > c.windowWords)
        base2 = std::max(base2, produced2 - c.windowWords);
    stats_.wordsTransferred += base2 - c.base;
    setBase(c, base2);
    c.produced = std::max(c.produced, produced2);
    // Ring slots: set = produced but not yet drained.
    for (uint32_t k = 0; k < c.windowWords; ++k) {
        uint32_t w = base2 + k;
        c.window[w % c.windowWords] = (w / rowWords) < hi[w % rec] ? 1 : 0;
    }
    updateMovable(c);
}

uint32_t
Srf::warpInSlack(int client) const
{
    const Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "warpInSlack on output client");
    return c.fetched - c.base;
}

uint32_t
Srf::warpOutBacklog(int client) const
{
    const Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "warpOutBacklog on input client");
    return c.produced - c.base;
}

void
Srf::warpInTopUp(int client, uint32_t slackWords)
{
    Client &c = at(client);
    IMAGINE_ASSERT(c.isIn, "warpInTopUp on output client");
    uint32_t target =
        std::min({c.length, c.base + c.windowWords, c.base + slackWords});
    if (target > c.fetched) {
        stats_.wordsTransferred += target - c.fetched;
        c.fetched = target;
    }
    updateMovable(c);
}

void
Srf::warpOutSettle(int client, uint32_t backlogWords)
{
    Client &c = at(client);
    IMAGINE_ASSERT(!c.isIn, "warpOutSettle on input client");
    uint32_t drained = 0;
    while (c.base + backlogWords < c.produced && c.window[c.baseSlot]) {
        popBase(c);
        ++drained;
    }
    stats_.wordsTransferred += drained;
    updateMovable(c);
}

bool
Srf::outDrained(int client) const
{
    const Client &c = at(client);
    return c.base >= c.produced;
}

void
Srf::tick()
{
    if (clients_.empty())
        return;
    const size_t n = clients_.size();
    auto stepCursor = [this, n] {
        if (++rrNext_ == n)
            rrNext_ = 0;
    };
    if (movableCount_ == 0) {
        // Nothing the arbiter could move: same observable effects as a
        // full scan that found no work (cursor advances, zero words).
        stepCursor();
        return;
    }
    int tokens = cfg_.srfBandwidthWordsPerCycle;
    // Round-robin water-filling, granted as block transfers.  Within a
    // tick a client's grantable word count is fixed (consumes and
    // produces happen outside tick, so base/produced/fetched demand
    // cannot grow), and it is exactly the word count after which the
    // per-word loop's updateMovable would have flipped the client
    // ineligible:
    //   in:  min(length, base + windowWords) - fetched
    //   out: the run of consecutive present window bits from base.
    // Simulating the one-word-per-pass allocation over the compacted
    // (cursor-ordered) movable list with those caps therefore grants
    // word-for-word what the per-word loop granted - including the
    // partial final pass - and each client's words then move as one
    // bounds-checked block.
    grantIdx_.clear();
    grantCap_.clear();
    grantCnt_.clear();
    uint32_t tok32 = static_cast<uint32_t>(tokens);
    // Cursor-ordered walk, stopping once every movable client is found.
    const size_t movable = static_cast<size_t>(movableCount_);
    for (size_t k = 0, idx = rrNext_; k < n && grantIdx_.size() < movable;
         ++k) {
        const Client &c = clients_[idx];
        if (c.movable) {
            uint32_t cap;
            if (c.isIn) {
                cap = std::min(c.length, c.base + c.windowWords) -
                      c.fetched;
            } else {
                // Scan bounded by the tokens this tick could spend.
                cap = 0;
                uint32_t slot = c.baseSlot;
                while (cap < tok32 && c.base + cap < c.produced &&
                       c.window[slot]) {
                    ++cap;
                    if (++slot == c.windowWords)
                        slot = 0;
                }
            }
            grantIdx_.push_back(static_cast<uint32_t>(idx));
            grantCap_.push_back(std::min(cap, tok32));
            grantCnt_.push_back(0);
        }
        if (++idx == n)
            idx = 0;
    }
    bool progress = true;
    while (tokens > 0 && progress) {
        progress = false;
        for (size_t i = 0; i < grantIdx_.size() && tokens > 0; ++i) {
            if (grantCnt_[i] < grantCap_[i]) {
                ++grantCnt_[i];
                --tokens;
                progress = true;
            }
        }
    }
    for (size_t i = 0; i < grantIdx_.size(); ++i) {
        uint32_t g = grantCnt_[i];
        if (g == 0)
            continue;
        Client &c = clients_[grantIdx_[i]];
        if (trace_)
            trace_->touchSpan(clientTrack(grantIdx_[i]),
                              c.isIn ? "fill" : "drain", g);
        if (c.isIn) {
            c.fetched += g;
        } else {
            for (uint32_t r = 0; r < g; ++r)
                popBase(c);
        }
        updateMovable(c);
    }
    stepCursor();
    uint64_t moved =
        static_cast<uint64_t>(cfg_.srfBandwidthWordsPerCycle - tokens);
    stats_.wordsTransferred += moved;
    if (moved)
        ++stats_.busyCycles;
}

uint32_t
Srf::clientTrack(size_t idx)
{
    while (clientTracks_.size() <= idx)
        clientTracks_.push_back(trace_->addTrack(
            trace::SrfComp,
            strfmt("client%zu", clientTracks_.size())));
    return clientTracks_[idx];
}

void
Srf::saveState(ckpt::Serializer &s) const
{
    s.vec(data_);
    // The full client vector, inactive slots included: handles are
    // indices into it and the arbiter cursor wraps on its size.
    s.u64(clients_.size());
    for (const Client &c : clients_) {
        s.b(c.active);
        s.b(c.isIn);
        s.u32(c.offset);
        s.u32(c.length);
        s.u32(c.base);
        s.u32(c.fetched);
        s.u32(c.produced);
        s.vec(c.window);
        s.u32(c.windowWords);
        s.b(c.faulted);
        s.b(c.movable);
    }
    s.i32(movableCount_);
    s.u64(rrNext_);
}

void
Srf::loadState(ckpt::Deserializer &d)
{
    data_ = d.vec<Word>();
    clients_.assign(d.u64(), Client{});
    for (Client &c : clients_) {
        c.active = d.b();
        c.isIn = d.b();
        c.offset = d.u32();
        c.length = d.u32();
        c.base = d.u32();
        c.fetched = d.u32();
        c.produced = d.u32();
        c.window = d.vec<uint8_t>();
        c.windowWords = d.u32();
        c.faulted = d.b();
        c.movable = d.b();
        c.baseSlot = c.windowWords ? c.base % c.windowWords : 0;
    }
    movableCount_ = d.i32();
    rrNext_ = d.u64();
}

} // namespace imagine
