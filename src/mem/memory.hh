/**
 * @file
 * The Imagine memory system: two address generators (AGs) feeding a
 * memory controller with a small on-chip cache and four 32-bit 100 MHz
 * SDRAM channels.
 *
 * - Each AG executes one stream load or store at a time.  In strided
 *   mode it can generate several word addresses per cycle (burst
 *   records); in indexed (gather/scatter) mode it is limited to one
 *   address per cycle - which is why tiny-index-range loads saturate
 *   "on-chip maximum AG bandwidth" rather than DRAM bandwidth
 *   (section 3.3).
 * - The controller cache is a small direct-mapped word cache; it
 *   captures indexed accesses over ranges of a few words.
 * - Channels model open-row state per bank with activate/precharge/CAS
 *   timing and limited FR-FCFS reordering.  The prototype's precharge
 *   bug (spurious precharges between same-row accesses, costing ~20%
 *   of unit-stride bandwidth) is reproduced when
 *   MachineConfig::quirkPrechargeBug is set.
 */

#ifndef IMAGINE_MEM_MEMORY_HH
#define IMAGINE_MEM_MEMORY_HH

#include <cstdint>
#include <deque>
#include <queue>
#include <vector>

#include "isa/stream.hh"
#include "mem/memspace.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "sim/ring.hh"
#include "sim/types.hh"
#include "srf/srf.hh"

namespace imagine
{

class FaultInjector;
struct HangReport;
class StatsRegistry;
namespace trace { class TraceSink; }

/** Memory-system statistics. */
struct MemStats
{
    uint64_t wordsLoaded = 0;
    uint64_t wordsStored = 0;
    uint64_t cacheHits = 0;
    uint64_t dramAccesses = 0;
    uint64_t rowMisses = 0;
    uint64_t bugPrecharges = 0;
    uint64_t channelBusyMemCycles = 0;

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The complete off-chip memory path. */
class MemorySystem : public Component
{
  public:
    MemorySystem(const MachineConfig &cfg, Srf &srf);

    MemorySpace &space() { return space_; }
    const MemorySpace &space() const { return space_; }

    // --- stream-op control (driven by the stream controller) -----------
    bool agIdle(int ag) const { return !ags_[ag].active; }
    /**
     * Begin a stream load: DRAM -> SRF.
     * @param idx optional SDR describing a gather index stream
     */
    void startLoad(int ag, const Mar &mar, const Sdr &dst,
                   const Sdr *idx);
    /** Begin a stream store: SRF -> DRAM. */
    void startStore(int ag, const Mar &mar, const Sdr &src,
                    const Sdr *idx);
    /** Begin a sink load (microcode transfer): data is discarded. */
    void startSinkLoad(int ag, Addr baseWord, uint32_t words);
    /** True once all words transferred and drained. */
    bool
    agDone(int ag) const
    {
        // Polled for every AG on every cycle: the early-out stays inline.
        const AgState &st = ags_[static_cast<size_t>(ag)];
        if (!st.active || st.completed < st.length)
            return false;
        return !st.isLoad || st.sink || srf_.outDrained(st.dataClient);
    }
    /** Retire the finished op; releases SRF clients. */
    void finish(int ag);

    /** Advance one core cycle. */
    void tick(Cycle now) override;

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "mem"; }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    void saveState(ckpt::Serializer &s) const override;
    void loadState(ckpt::Deserializer &d) override;

    // --- resilience -----------------------------------------------------
    /**
     * Attach a fault injector (null = no injection; the default) while
     * no transfer is in flight: it selects the delivery order (see
     * Delivery).
     */
    void setFaultInjector(FaultInjector *inj);
    /**
     * True when a detected-but-uncorrected fault tainted this AG's
     * stream op (DRAM parity hit, or an SRF parity hit on the load's
     * destination client).  Checked by the stream controller before
     * retiring the op; cleared by finish().
     */
    bool agFaulted(int ag) const;
    /** Append AG and channel in-flight state to a hang report. */
    void dumpHang(HangReport &report) const;

    const MemStats &stats() const { return stats_; }
    /** Peak words per core cycle the DRAM interface can move. */
    double peakWordsPerCycle() const;

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);
    /**
     * After a checkpoint restore: re-open the AG stream-op spans for
     * transfers restored mid-flight (open spans are not serialized), so
     * their traced tails appear instead of being silently dropped when
     * the op completes against a track with nothing open.
     */
    void rearmTrace();

  private:
    /**
     * A word in flight back to its AG.  @c src is the channel that
     * served it, or the channel count for a controller-cache hit.
     *
     * Two delivery orders, one set per cycle.  Without an injector
     * each (AG, src) pair has a FIFO ring: a channel's completions are
     * serialized by its bus (busNextFreeMem), so their ready cycles
     * rise strictly, and every cache hit lands mcPipelineCycles after
     * its issue cycle, so each ring is monotone in @c ready and a
     * cycle pops exactly the words due.  The order within a cycle is
     * unobservable except through the injector's onSrfWrite draws, so
     * an injector-attached run keeps the per-AG min-heap whose pop
     * order its fault trace was recorded with.
     */
    struct Delivery
    {
        Cycle ready;
        uint32_t elem;
        Word data;
        uint32_t src;
        bool operator>(const Delivery &o) const { return ready > o.ready; }
    };

    /**
     * One queued DRAM word access.  The word address is perChan *
     * numChannels + the channel index, and bank and row follow from
     * perChan (decodeBank), so none of them is stored: a long store
     * queues tens of thousands of requests per channel, and this keeps
     * each at 12 bytes.  The queue stays a std::deque: it frees blocks
     * as it drains, where a doubling ring keeps its largest capacity
     * (a contiguous ring raised the QRD 65536x16 job's peak RSS by
     * 5.6 MB).
     */
    struct DramReq
    {
        uint32_t perChan;   ///< channel-local word address
        uint32_t elem;
        uint8_t ag;
        bool isWrite;
    };

    struct Bank
    {
        int64_t openRow = -1;
        uint64_t nextFreeMem = 0;
        uint32_t seqHits = 0;   ///< consecutive sequential hits (bug)
        Addr lastPerChan = ~Addr(0);    ///< previous in-channel address
    };

    struct Channel
    {
        std::deque<DramReq> queue;
        std::vector<Bank> banks;
        uint64_t busNextFreeMem = 0;
        uint32_t frontSkips = 0;    ///< starvation guard for FR-FCFS
    };

    struct AgState
    {
        bool active = false;
        bool isLoad = false;
        bool indexed = false;
        bool sink = false;      ///< discard data (microcode load)
        Mar mar;
        int dataClient = -1;
        int idxClient = -1;
        uint32_t length = 0;        ///< total words
        uint32_t nextElem = 0;      ///< next word address to generate
        /** nextElem / recordWords and nextElem % recordWords, stepped
         *  with nextElem (derived: loadState() re-derives them). */
        uint32_t genRecord = 0;
        uint32_t genWord = 0;
        uint32_t completed = 0;     ///< words fully transferred
        uint32_t curRecord = UINT32_MAX;
        Addr curRecordBase = 0;
        /** Injector-attached delivery order (see Delivery). */
        std::priority_queue<Delivery, std::vector<Delivery>,
                            std::greater<Delivery>> deliveries;
        /** Earliest ready cycle among the AG's delivery rings. */
        Cycle nextReady = UINT64_MAX;
        Cycle startCycle = 0;
        bool faultDetected = false; ///< DRAM parity hit on this op
        Cycle stallUntil = 0;       ///< injected AG stall burst end
    };

    /** Generate addresses for one AG with words left to generate. */
    void generate(int ag, Cycle now);
    /** Issue one word access into the cache/DRAM path. */
    void issueAccess(AgState &st, int agIdx, uint32_t addr, uint32_t elem,
                     Cycle now);
    /** Decode a request for in-bounds word address @p wordAddr, which
     *  lies perChan * numChannels + ch for the returned channel. */
    DramReq makeReq(uint32_t wordAddr, uint32_t elem, uint8_t ag,
                    bool isWrite, size_t &ch) const;
    /** Bank and row of channel-local word address @p perChan. */
    void
    decodeBank(uint32_t perChan, uint32_t &bank, uint32_t &row) const
    {
        const uint32_t bankRow = rowDiv_.div(perChan);
        row = bankDiv_.div(bankRow);
        bank = bankRow - row * bankDiv_.divisor();
    }
    /** Word address of @p r, queued on channel @p ch. */
    Addr
    reqAddr(const DramReq &r, size_t ch) const
    {
        return Addr(r.perChan) * channels_.size() + ch;
    }
    /** Advance all channels one memory cycle. */
    void tickChannels(uint64_t memCycle);
    /** Compute record base address for element; false if blocked. */
    bool recordBase(AgState &st, uint32_t record, Addr &base);

    // --- deliveries (see Delivery) --------------------------------------
    Ring<Delivery> &
    ring(size_t ag, uint32_t src)
    {
        return rings_[ag * (channels_.size() + 1) + src];
    }
    void pushDelivery(size_t ag, const Delivery &d);
    /** Hand every due delivery of @p ag to its destination. */
    void deliver(size_t ag, Cycle now);
    /** Hand one word to its destination and count it. */
    void deliverOne(AgState &st, const Delivery &d);
    /** The AG's in-flight words: heap array order with an injector,
     *  else each ring in turn. */
    std::vector<Delivery> pendingDeliveries(size_t ag) const;

    const MachineConfig &cfg_;
    Srf &srf_;
    FaultInjector *inj_ = nullptr;
    MemorySpace space_;
    std::vector<AgState> ags_;
    std::vector<Channel> channels_;
    std::vector<Ring<Delivery>> rings_; ///< [ag][src], no injector
    std::vector<int64_t> cacheTags_;    ///< direct-mapped MC cache
    /** Address decode without a divide per word (in-bounds word
     *  addresses fit 32 bits). */
    FixedDivisor cacheDiv_, chanDiv_, rowDiv_, bankDiv_;
    /**
     * Memory-clock phase: memNow_ = now / memClockDivider and
     * memBaseCore_ = memNow_ * memClockDivider for the last tick's
     * core cycle, stepped once per memory cycle and re-derived on any
     * other jump (so it is not checkpoint state).
     */
    uint64_t memNow_ = 0;
    Cycle memBaseCore_ = 0;
    trace::TraceSink *trace_ = nullptr;
    std::vector<uint32_t> agTracks_, chanTracks_;
    MemStats stats_;
};

} // namespace imagine

#endif // IMAGINE_MEM_MEMORY_HH
