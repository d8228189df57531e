#include "srf/srf.hh"

#include <algorithm>

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

/** Fewest serialized bytes of one client slot (empty window). */
constexpr size_t kClientBytes = 36;

} // namespace

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

Word
Srf::injectWrite(Client &c, uint32_t elem, Word w)
{
    FaultInjector::Flip f = inj_->onSrfWrite(c.offset + elem, w);
    if (!f.hit)
        return w;
    if (f.detected)
        c.faulted = true;
    return f.word;
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
        movableBits_.resize((clients_.size() + 63) / 64);
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
    c.active = false;
    updateMovable(c);
    c = Client{};
    return produced;
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
    sweepBase(c, c.fetched - c.base);
    updateMovable(c);
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
        arr[elem] = inj_ ? injectWrite(c, elem, vals[l]) : vals[l];
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
    sweepBase(c, c.fetched - c.base);
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
    if (last >= c.base + c.windowWords)
        drained = sweepBase(c, std::min(last + 1 - c.windowWords - c.base,
                                        c.produced - c.base));
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
    if (c.base + backlogWords < c.produced)
        stats_.wordsTransferred +=
            sweepBase(c, c.produced - c.base - backlogWords);
    updateMovable(c);
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
    // Round-robin water-filling, granted as block transfers.  Within a
    // tick a client's grantable word count is fixed (consumes and
    // produces happen outside tick, so base/produced/fetched demand
    // cannot grow), and it is exactly the word count after which a
    // per-word loop's updateMovable would have flipped the client
    // ineligible:
    //   in:  min(length, base + windowWords) - fetched
    //   out: the run of consecutive present window bits from base.
    // Handing out one token per pass over the cursor-ordered movable
    // clients with those caps has a closed form (DESIGN.md section 8):
    // if the caps fit the bandwidth every client gets its cap;
    // otherwise each gets min(cap, L) for the largest level L whose
    // total fits, and the first r clients in cursor order whose cap
    // exceeds L get one word more, r being the tokens left over.
    const uint32_t tokens =
        static_cast<uint32_t>(cfg_.srfBandwidthWordsPerCycle);
    if (grantIdx_.size() < n) {
        grantIdx_.resize(n);
        grantCap_.resize(n);
    }
    uint32_t *idxs = grantIdx_.data();
    uint32_t *caps = grantCap_.data();
    // Cursor-ordered walk over the movable bits: slots [rrNext_, n),
    // then [0, rrNext_), stopping once every movable client is found.
    const size_t movable = static_cast<size_t>(movableCount_);
    size_t m = 0;
    uint64_t sum = 0;
    for (int pass = 0; pass < 2 && m < movable; ++pass) {
        const size_t lo = pass ? 0 : rrNext_, hi = pass ? rrNext_ : n;
        for (size_t w = lo >> 6; w << 6 < hi && m < movable; ++w) {
            uint64_t bits = movableBits_[w];
            if (w << 6 < lo)
                bits &= ~uint64_t(0) << (lo & 63);
            if ((w + 1) << 6 > hi)
                bits &= ~uint64_t(0) >> (64 - (hi & 63));
            for (; bits && m < movable; bits &= bits - 1) {
                const size_t idx = (w << 6) + std::countr_zero(bits);
                const Client &c = clients_[idx];
                uint32_t cap;
                if (c.isIn)
                    cap = std::min(c.length, c.base + c.windowWords) -
                          c.fetched;
                else    // bounded by the tokens this tick could spend
                    cap = runAtBase(c,
                                    std::min(tokens, c.produced - c.base));
                idxs[m] = static_cast<uint32_t>(idx);
                caps[m] = std::min(cap, tokens);
                sum += caps[m];
                ++m;
            }
        }
    }
    if (sum > tokens) {
        // Raise the level breakpoint by breakpoint while the clients
        // above it can all take the step; left = tokens - sum of
        // min(cap, level).
        uint32_t level = 0;
        uint64_t left = tokens;
        while (true) {
            uint32_t above = 0, next = UINT32_MAX;
            for (size_t i = 0; i < m; ++i) {
                if (caps[i] > level) {
                    ++above;
                    next = std::min(next, caps[i]);
                }
            }
            uint64_t step = static_cast<uint64_t>(above) * (next - level);
            if (step > left) {
                uint64_t rise = left / above;
                level += static_cast<uint32_t>(rise);
                left -= rise * above;
                break;
            }
            left -= step;
            level = next;
        }
        for (size_t i = 0; i < m; ++i) {
            uint32_t g = std::min(caps[i], level);
            if (caps[i] > level && left > 0) {
                ++g;
                --left;
            }
            caps[i] = g;
        }
    }
    for (size_t i = 0; i < m; ++i) {
        const uint32_t g = caps[i];
        if (g == 0)
            continue;
        Client &c = clients_[idxs[i]];
        if (trace_)
            trace_->touchSpan(clientTrack(idxs[i]),
                              c.isIn ? "fill" : "drain", g);
        if (c.isIn)
            c.fetched += g;
        else
            popRun(c, g);
        updateMovable(c);
    }
    stepCursor();
    const uint64_t moved = std::min<uint64_t>(sum, tokens);
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
    if (data_.size() != size_)
        throw SimError(SimErrorKind::Fatal,
                       strfmt("checkpoint SRF holds %zu words, this "
                              "machine %u",
                              data_.size(), size_));
    clients_.assign(d.count(kClientBytes), Client{});
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
        // Every window scan indexes the flags modulo windowWords.
        if (c.active && (c.windowWords == 0 ||
                         c.window.size() != c.windowWords))
            throw SimError(SimErrorKind::Fatal,
                           strfmt("checkpoint SRF client window has %zu "
                                  "flags for %u words",
                                  c.window.size(), c.windowWords));
        c.baseSlot = c.windowWords ? c.base % c.windowWords : 0;
    }
    movableCount_ = d.i32();
    rrNext_ = d.u64();
    movableBits_.assign((clients_.size() + 63) / 64, 0);
    for (size_t i = 0; i < clients_.size(); ++i)
        if (clients_[i].movable)
            movableBits_[i >> 6] |= uint64_t(1) << (i & 63);
}

} // namespace imagine
