/**
 * @file
 * Stream register file (SRF): the 128 KB on-chip nexus of Imagine.
 *
 * All stream instructions operate on data in the SRF.  Clients (the
 * eight clusters' stream ports and the two memory address generators)
 * attach through stream buffers; the SRF array itself provides a fixed
 * aggregate bandwidth (16 words/cycle = 12.8 GB/s at 200 MHz) that an
 * arbiter shares round-robin among clients with outstanding demand.
 *
 * Modeling note: stream data lives in the SRF backing array the moment
 * it is produced; the stream buffers model *availability and bandwidth*,
 * not storage.  An input client exposes a sliding availability window
 * (words the SRF has streamed into the buffer); an output client exposes
 * a sliding space window (words not yet drained into the array).  This
 * keeps functional state exact under software-pipelined access patterns
 * where several loop iterations are in flight at once.
 */

#ifndef IMAGINE_SRF_SRF_HH
#define IMAGINE_SRF_SRF_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "isa/stream.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "sim/log.hh"
#include "sim/types.hh"

namespace imagine
{

class FaultInjector;
class StatsRegistry;
namespace trace { class TraceSink; }

/** Aggregate SRF statistics. */
struct SrfStats
{
    uint64_t wordsTransferred = 0;  ///< words crossing the SRF array port
    uint64_t busyCycles = 0;        ///< cycles with at least one transfer

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The stream register file with its stream-buffer clients. */
class Srf : public Component
{
  public:
    explicit Srf(const MachineConfig &cfg);

    // --- functional backing-store access (also used by tests) ---------
    Word read(uint32_t wordAddr) const;
    void write(uint32_t wordAddr, Word w);
    uint32_t sizeWords() const { return size_; }

    // --- client lifecycle ---------------------------------------------
    /**
     * Open an input client: data flows SRF -> consumer.
     * @param sdr stream location and length
     * @param minWindow minimum buffer window in words; clients moving
     *        wide records (record x 8 lanes per SIMD iteration) need a
     *        window that covers at least one full iteration
     * @return client handle
     */
    int openIn(const Sdr &sdr, uint32_t minWindow = 0);
    /**
     * Open an output client: data flows producer -> SRF.
     * @param sdr stream location; length is the maximum (conditional
     *        streams may close shorter)
     */
    int openOut(const Sdr &sdr, uint32_t minWindow = 0);
    /** Release a client. Returns words actually produced (out clients). */
    uint32_t close(int client);

    // --- input-side consumer interface ---------------------------------
    /** True when stream word @p elem has been fetched into the buffer. */
    bool
    inReady(int client, uint32_t elem) const
    {
        return elem < inFetched(client);
    }
    /** Words streamed into the buffer so far: inReady(elem) is elem <
     *  inFetched(); a consume does not move it, only tick() does. */
    uint32_t inFetched(int client) const { return at(client).fetched; }
    /** Consume stream word @p elem (must be inReady).  Inline: a store
     *  consumes every word it moves through here. */
    Word
    inConsume(int client, uint32_t elem)
    {
        Client &c = at(client);
        IMAGINE_ASSERT(c.isIn, "inConsume on output client");
        IMAGINE_ASSERT(elem >= c.base && elem < c.fetched,
                       "SRF consume of element %u outside window [%u, %u)",
                       elem, c.base, c.fetched);
        uint32_t slot = slotOf(c, elem);
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u consumed twice",
                       elem);
        Word w = data_[c.offset + elem];
        c.window[slot] = 1;
        sweepBase(c, c.fetched - c.base);
        updateMovable(c);   // base advanced: window space may have opened
        return w;
    }
    /**
     * Consume one SIMD row: elements first + lane * stride for the
     * eight lanes, into @p dst.  Bounds and double-consume checks, the
     * final buffer-window state and the arbiter-visible effects are
     * identical to eight inConsume calls in lane order; the base
     * advance and eligibility update run once per row instead of per
     * word (the cluster's granted-path block transfer, DESIGN.md
     * section 9).
     */
    void inConsumeRow(int client, uint32_t first, uint32_t stride,
                      Word *dst);

    // --- output-side producer interface ---------------------------------
    /** True when the buffer can accept stream word @p elem. */
    bool
    outCanAccept(int client, uint32_t elem) const
    {
        const Client &c = at(client);
        return elem >= c.base && elem < c.base + c.windowWords;
    }
    /** One past the last word outCanAccept() takes; a produce does not
     *  move it, only a drain does. */
    uint32_t
    outWindowEnd(int client) const
    {
        const Client &c = at(client);
        return c.base + c.windowWords;
    }
    /** Produce stream word @p elem (must be accepted).  Inline: a load
     *  delivers every word it moves through here. */
    void
    outProduce(int client, uint32_t elem, Word w)
    {
        Client &c = at(client);
        IMAGINE_ASSERT(!c.isIn, "outProduce on input client");
        IMAGINE_ASSERT(outCanAccept(client, elem),
                       "SRF produce of element %u outside window at base %u",
                       elem, c.base);
        uint32_t slot = slotOf(c, elem);
        IMAGINE_ASSERT(!c.window[slot], "SRF element %u produced twice",
                       elem);
        IMAGINE_ASSERT(c.offset + elem < size_,
                       "stream overflow: element %u of stream at %u", elem,
                       c.offset);
        data_[c.offset + elem] = inj_ ? injectWrite(c, elem, w) : w;
        c.window[slot] = 1;
        c.produced = std::max(c.produced, elem + 1);
        updateMovable(c);   // the word at base may now be drainable
    }
    /**
     * Produce one SIMD row: elements first + lane * stride from
     * @p vals.  Per-word asserts and fault injection run in lane order
     * (the injector's decision sequence is unchanged); the eligibility
     * update runs once per row.
     */
    void outProduceRow(int client, uint32_t first, uint32_t stride,
                       const Word *vals);
    /** Conditional-stream append position (next element index). */
    uint32_t outAppendPos(int client) const;

    // --- sampled-fidelity bulk paths (DESIGN.md section 12) -------------
    /**
     * One stream op's row range inside a folded region: the op covers
     * record word @p elemIdx and has processed rows [rowLo, rowHi).
     */
    struct WarpRange
    {
        uint32_t elemIdx;
        uint32_t rowLo;
        uint32_t rowHi;
    };
    /**
     * Closed-form bulk advance of an input client across a folded
     * region: equivalent to replaying warpInRow for every row of every
     * op in @p ops (each op consumes record word elemIdx of rows
     * [rowLo, rowHi)), but O(windowWords) instead of O(rows).  The ops
     * must cover every record word exactly once - the full-coverage
     * property any working kernel loop has.  Word counts, base/fetched
     * frontiers and the window flag pattern land exactly where the
     * per-row replay would leave them.
     */
    void warpInBulk(int client, uint32_t rec, const WarpRange *ops,
                    size_t n);
    /**
     * Closed-form bulk advance of an output client: equivalent to
     * replaying warpOutRow for every row, with the folded region's
     * data synthesized by tiling each op's @p tiles slice (tileRows
     * value-ring rows x 8 lanes, row r uses slice r & (tileRows - 1)).
     * Counters, produced/base frontiers and window flags are exact;
     * the folded *data* holds representative ring values, like the
     * per-row replay's re-emitted rows.
     */
    void warpOutBulk(int client, uint32_t rec, const WarpRange *ops,
                     size_t n, const Word *tiles, uint32_t tileRows);
    /**
     * Fold-time variant of inConsumeRow: if part of the row has not yet
     * streamed into the buffer, the fetch is performed inline (counted
     * in wordsTransferred, exactly the words the arbiter would have
     * moved).  Consume order during a fold is identical to real
     * execution, so the buffer-window invariants carry over unchanged.
     */
    void warpInRow(int client, uint32_t first, uint32_t stride,
                   Word *dst);
    /**
     * Fold-time variant of outProduceRow: the row is written to the
     * array, draining just enough of the contiguous present run (as
     * the arbiter would have during the folded cycles, counted in
     * wordsTransferred) to make window space.  Fault injection is
     * skipped - folds are ineligible under armed faults.
     */
    void warpOutRow(int client, uint32_t first, uint32_t stride,
                    const Word *vals);
    /**
     * Buffer occupancy ahead of the consume point (fetched - base).
     * Captured at fold entry so the fold can restore the steady-state
     * occupancy on exit instead of a buffer-rich window that would
     * bias the next stall-rate measurement stratum.
     */
    uint32_t warpInSlack(int client) const;
    /** Produced-but-undrained words (produced - base), same purpose. */
    uint32_t warpOutBacklog(int client) const;
    /**
     * After a fold, refill an input client's availability window to
     * @p slackWords ahead of the consume point - the steady-state
     * occupancy captured at fold entry - counting the refill in
     * wordsTransferred.
     */
    void warpInTopUp(int client, uint32_t slackWords);
    /**
     * After a fold, drain an output client down to @p backlogWords
     * undrained words - the steady-state backlog captured at fold
     * entry - counting the drain in wordsTransferred.
     */
    void warpOutSettle(int client, uint32_t backlogWords);
    /** Credit estimated arbiter busy cycles for a folded region. */
    void warpAddBusy(uint64_t cycles) { stats_.busyCycles += cycles; }

    /** Advance one cycle: the arbiter moves words between array/buffers. */
    void tick();

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "srf"; }
    void tick(Cycle) override { tick(); }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    void saveState(ckpt::Serializer &s) const override;
    void loadState(ckpt::Deserializer &d) override;

    /** True when every produced word has drained into the array. */
    bool
    outDrained(int client) const
    {
        const Client &c = at(client);
        return c.base >= c.produced;
    }

    // --- resilience -----------------------------------------------------
    /** Attach a fault injector (null = no injection; the default). */
    void setFaultInjector(FaultInjector *inj) { inj_ = inj; }
    /**
     * True when a parity-detected bit flip corrupted a word this client
     * wrote; the owning stream op must be retried.  Cleared by close().
     */
    bool clientFaulted(int client) const { return at(client).faulted; }

    const SrfStats &stats() const { return stats_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink) { trace_ = sink; }

  private:
    struct Client
    {
        bool active = false;
        bool isIn = false;
        uint32_t offset = 0;        ///< SRF word offset of element 0
        uint32_t length = 0;        ///< stream length in words
        uint32_t base = 0;          ///< first un-retired element
        uint32_t fetched = 0;       ///< in: elements streamed into buffer
        uint32_t produced = 0;      ///< out: highest produced element + 1
        /** Consumed (in) / present (out) flags, one byte per word
         *  (byte flags beat std::vector<bool> bit ops on this path). */
        std::vector<uint8_t> window;
        uint32_t windowWords = 0;
        /** base % windowWords, stepped with base so no per-word path
         *  divides (derived: loadState() re-derives it). */
        uint32_t baseSlot = 0;
        bool faulted = false;       ///< detected fault in written data
        /**
         * Cached arbiter eligibility: the client has both demand and
         * window space, i.e. tick() could move a word for it.  Kept
         * exact by updateMovable() at every state mutation so the
         * idle-tick fast path never scans.
         */
        bool movable = false;
    };

    Client &
    at(int client)
    {
        IMAGINE_ASSERT(client >= 0 &&
                           client < static_cast<int>(clients_.size()) &&
                           clients_[static_cast<size_t>(client)].active,
                       "bad SRF client handle %d", client);
        return clients_[static_cast<size_t>(client)];
    }
    const Client &
    at(int client) const
    {
        return const_cast<Srf *>(this)->at(client);
    }
    /** Recompute @p c's movable flag and the movable-client count. */
    void
    updateMovable(Client &c)
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
            const auto i = static_cast<size_t>(&c - clients_.data());
            movableBits_[i >> 6] ^= uint64_t(1) << (i & 63);
        }
    }
    /** A word bound for the array at @p c's element @p elem passes the
     *  injector's SRF write site; returns the word to store. */
    Word injectWrite(Client &c, uint32_t elem, Word w);
    /** Ring slot of word @p elem, which lies in [base, base + window). */
    static uint32_t
    slotOf(const Client &c, uint32_t elem)
    {
        uint32_t s = c.baseSlot + (elem - c.base);
        return s >= c.windowWords ? s - c.windowWords : s;
    }
    /**
     * Index of the first clear flag among @p len window flags at @p p,
     * or @p len.  Eight flags per step (the zero-byte test of a 64-bit
     * word), inline: most runs are a word or two, where a memchr call
     * costs more than the scan.
     */
    static uint32_t
    firstClear(const uint8_t *p, uint32_t len)
    {
        constexpr uint64_t ones = 0x0101010101010101ull;
        uint32_t i = 0;
        for (; i + 8 <= len; i += 8) {
            uint64_t v;
            std::memcpy(&v, p + i, sizeof(v));
            if constexpr (std::endian::native == std::endian::big)
                v = __builtin_bswap64(v);   // flag i in the low byte
            // The lowest marked byte is exactly the first zero byte.
            uint64_t z = (v - ones) & ~v & (ones << 7);
            if (z)
                return i + static_cast<uint32_t>(std::countr_zero(z) >> 3);
        }
        while (i < len && p[i])
            ++i;
        return i;
    }
    /**
     * Length of the run of set window flags from base, at most @p limit
     * (<= windowWords) words: the words a sweep or a drain can retire.
     * The run spans at most two ring segments.
     */
    static uint32_t
    runAtBase(const Client &c, uint32_t limit)
    {
        const uint8_t *w = c.window.data();
        const uint32_t first = std::min(limit, c.windowWords - c.baseSlot);
        const uint32_t n = firstClear(w + c.baseSlot, first);
        if (n < first || first == limit)
            return n;
        return first + firstClear(w, limit - first);
    }
    /** Retire @p n (<= windowWords) words at base: clear their slots
     *  and step base once. */
    static void
    popRun(Client &c, uint32_t n)
    {
        const uint32_t first = std::min(n, c.windowWords - c.baseSlot);
        std::memset(c.window.data() + c.baseSlot, 0, first);
        if (n > first)
            std::memset(c.window.data(), 0, n - first);
        c.base += n;
        c.baseSlot += n;
        if (c.baseSlot >= c.windowWords)
            c.baseSlot -= c.windowWords;
    }
    /** Retire the longest set run at base, up to @p limit words. */
    static uint32_t
    sweepBase(Client &c, uint32_t limit)
    {
        uint32_t n = runAtBase(c, limit);
        if (n)
            popRun(c, n);
        return n;
    }
    /** Set base after a bulk jump (fold paths). */
    static void
    setBase(Client &c, uint32_t base)
    {
        c.base = base;
        c.baseSlot = base % c.windowWords;
    }

    const MachineConfig &cfg_;
    FaultInjector *inj_ = nullptr;
    uint32_t size_;
    std::vector<Word> data_;
    std::vector<Client> clients_;
    int movableCount_ = 0;          ///< clients with movable == true
    /** Bit i set when client slot i is movable, so the arbiter visits
     *  only those (derived: loadState() rebuilds it). */
    std::vector<uint64_t> movableBits_;
    size_t rrNext_ = 0;             ///< round-robin arbitration cursor
    /** Per-tick arbiter scratch, one entry per client slot: the
     *  movable clients in cursor order and their caps, then grants. */
    std::vector<uint32_t> grantIdx_, grantCap_;
    /** Trace track for client slot @p idx (created on first grant). */
    uint32_t clientTrack(size_t idx);
    trace::TraceSink *trace_ = nullptr;
    std::vector<uint32_t> clientTracks_;
    SrfStats stats_;
};

} // namespace imagine

#endif // IMAGINE_SRF_SRF_HH
