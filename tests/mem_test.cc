/**
 * @file
 * Tests for the memory system: functional correctness of strided and
 * indexed loads/stores, SDRAM timing behaviour (row hits vs misses,
 * channel interleave, the precharge-bug quirk), the controller cache,
 * golden counters pinning the FR-FCFS scheduler's pick order, and the
 * delivery FIFOs checked against the injector-attached delivery heap.
 */

#include <gtest/gtest.h>

#include "mem/memory.hh"
#include "sim/config.hh"
#include "sim/error.hh"
#include "sim/fault.hh"
#include "sim/rng.hh"
#include "srf/srf.hh"

using namespace imagine;

namespace
{

/** Harness coupling one SRF and one memory system. */
struct MemRig
{
    explicit MemRig(const MachineConfig &c) : cfg(c), srf(cfg),
                                              mem(cfg, srf) {}

    /** Run until the AG finishes; returns elapsed cycles. */
    Cycle
    runUntilDone(int ag, Cycle limit = 2'000'000)
    {
        Cycle c = 0;
        while (!mem.agDone(ag)) {
            mem.tick(c);
            srf.tick();
            ++c;
            if (c >= limit)
                ADD_FAILURE() << "memory op did not finish";
            if (c >= limit)
                break;
        }
        mem.finish(ag);
        return c;
    }

    MachineConfig cfg;
    Srf srf;
    MemorySystem mem;
};

} // namespace

TEST(MemSpaceTest, FunctionalAndSparse)
{
    MemorySpace ms;
    ms.writeWord(0, 1);
    ms.writeWord(1'000'000, 2);
    ms.writeWord(MemorySpace::sizeWords - 1, 3);
    EXPECT_EQ(ms.readWord(0), 1u);
    EXPECT_EQ(ms.readWord(1'000'000), 2u);
    EXPECT_EQ(ms.readWord(MemorySpace::sizeWords - 1), 3u);
    EXPECT_EQ(ms.readWord(77), 0u);     // untouched reads as zero
    ms.writeWords(10, {4, 5, 6});
    auto back = ms.readWords(10, 3);
    EXPECT_EQ(back, (std::vector<Word>{4, 5, 6}));
}

TEST(MemSpaceTest, OutOfBoundsAccessIsDiagnosed)
{
    MemorySpace ms;
    try {
        ms.writeWord(MemorySpace::sizeWords, 1);
        FAIL() << "out-of-bounds write did not throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::MemoryBounds);
        EXPECT_NE(std::string(e.what()).find("256 MB"),
                  std::string::npos);
    }
    EXPECT_THROW(ms.readWord(MemorySpace::sizeWords + 123), SimError);
}

TEST(MemoryTest, UnitStrideLoadIsCorrect)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 1024;
    for (uint32_t i = 0; i < n; ++i)
        rig.mem.space().writeWord(i, i * 7 + 1);
    Mar mar;            // defaults: stride 1, record 1
    Sdr dst{0, n};
    rig.mem.startLoad(0, mar, dst, nullptr);
    rig.runUntilDone(0);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(rig.srf.read(i), i * 7 + 1);
}

TEST(MemoryTest, UnitStrideApproachesPeakBandwidth)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 16384;
    Mar mar;
    rig.mem.startLoad(0, mar, {0, n}, nullptr);
    Cycle cycles = rig.runUntilDone(0);
    double wordsPerCycle = static_cast<double>(n) / cycles;
    // Peak is 2 words/cycle; long unit-stride streams should get >90%.
    EXPECT_GT(wordsPerCycle, 1.8);
}

TEST(MemoryTest, PrechargeBugCostsRoughlyTwentyPercent)
{
    const uint32_t n = 16384;
    Cycle lab, isim;
    {
        MemRig rig(MachineConfig::devBoard());
        rig.mem.startLoad(0, Mar{}, {0, n}, nullptr);
        lab = rig.runUntilDone(0);
        EXPECT_GT(rig.mem.stats().bugPrecharges, 0u);
    }
    {
        MemRig rig(MachineConfig::isim());
        rig.mem.startLoad(0, Mar{}, {0, n}, nullptr);
        isim = rig.runUntilDone(0);
        EXPECT_EQ(rig.mem.stats().bugPrecharges, 0u);
    }
    double slowdown = static_cast<double>(lab) / isim;
    EXPECT_GT(slowdown, 1.10);
    EXPECT_LT(slowdown, 1.40);
}

TEST(MemoryTest, StrideTwoHalvesBandwidth)
{
    MachineConfig cfg = MachineConfig::isim();
    const uint32_t n = 8192;
    Cycle unit, stride2;
    {
        MemRig rig(cfg);
        rig.mem.startLoad(0, Mar{}, {0, n}, nullptr);
        unit = rig.runUntilDone(0);
    }
    {
        MemRig rig(cfg);
        Mar mar;
        mar.strideWords = 2;
        rig.mem.startLoad(0, mar, {0, n}, nullptr);
        stride2 = rig.runUntilDone(0);
    }
    // Stride 2 only touches half the channels.
    EXPECT_NEAR(static_cast<double>(stride2) / unit, 2.0, 0.3);
}

TEST(MemoryTest, RecordStrideLoadIsCorrect)
{
    MemRig rig(MachineConfig::isim());
    // record 4, stride 12 (figure 9's third pattern).
    const uint32_t records = 256;
    Mar mar;
    mar.recordWords = 4;
    mar.strideWords = 12;
    for (uint32_t r = 0; r < records; ++r)
        for (uint32_t w = 0; w < 4; ++w)
            rig.mem.space().writeWord(r * 12 + w, r * 100 + w);
    rig.mem.startLoad(0, mar, {0, records * 4}, nullptr);
    rig.runUntilDone(0);
    for (uint32_t r = 0; r < records; ++r)
        for (uint32_t w = 0; w < 4; ++w)
            ASSERT_EQ(rig.srf.read(r * 4 + w), r * 100 + w);
}

TEST(MemoryTest, IndexedGatherIsCorrect)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 512;
    Rng rng(7);
    for (uint32_t i = 0; i < 4096; ++i)
        rig.mem.space().writeWord(i, i ^ 0x5a5a);
    // Index stream lives in the SRF at offset 1000.
    std::vector<Word> idx(n);
    for (uint32_t i = 0; i < n; ++i) {
        idx[i] = rng.below(4096);
        rig.srf.write(1000 + i, idx[i]);
    }
    Mar mar;
    mar.mode = MarMode::Indexed;
    Sdr idxSdr{1000, n};
    rig.mem.startLoad(0, mar, {0, n}, &idxSdr);
    rig.runUntilDone(0);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(rig.srf.read(i), (idx[i] ^ 0x5a5a));
}

TEST(MemoryTest, SmallIndexRangeHitsControllerCache)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 4096;
    Rng rng(11);
    for (uint32_t i = 0; i < n; ++i)
        rig.srf.write(1000 + i, rng.below(16));   // range-16 indices
    Mar mar;
    mar.mode = MarMode::Indexed;
    Sdr idxSdr{1000, n};
    rig.mem.startLoad(0, mar, {0, n}, &idxSdr);
    Cycle cycles = rig.runUntilDone(0);
    // Nearly everything hits the MC cache...
    EXPECT_GT(rig.mem.stats().cacheHits, uint64_t(n) * 9 / 10);
    // ...so throughput is AG-limited: ~1 word/cycle, far above what
    // random DRAM accesses could sustain.
    double wordsPerCycle = static_cast<double>(n) / cycles;
    EXPECT_GT(wordsPerCycle, 0.8);
}

TEST(MemoryTest, WideRandomIndexIsRowMissBound)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 4096;
    Rng rng(13);
    for (uint32_t i = 0; i < n; ++i)
        rig.srf.write(1000 + i, rng.below(4u << 20));  // 4M-word range
    Mar mar;
    mar.mode = MarMode::Indexed;
    Sdr idxSdr{1000, n};
    rig.mem.startLoad(0, mar, {0, n}, &idxSdr);
    Cycle cycles = rig.runUntilDone(0);
    double wordsPerCycle = static_cast<double>(n) / cycles;
    EXPECT_LT(wordsPerCycle, 0.7);  // far below the 2 w/c peak
    EXPECT_GT(rig.mem.stats().rowMisses, uint64_t(n) / 2);
}

TEST(MemoryTest, StoreWritesBack)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 256;
    for (uint32_t i = 0; i < n; ++i)
        rig.srf.write(i, i + 1000);
    Mar mar;
    mar.baseWord = 5000;
    rig.mem.startStore(0, mar, {0, n}, nullptr);
    rig.runUntilDone(0);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(rig.mem.space().readWord(5000 + i), i + 1000);
}

TEST(MemoryTest, IndexedScatterIsCorrect)
{
    MemRig rig(MachineConfig::isim());
    const uint32_t n = 128;
    for (uint32_t i = 0; i < n; ++i) {
        rig.srf.write(i, i * 2 + 1);          // data
        rig.srf.write(2000 + i, (n - 1 - i) * 8);  // reversed offsets
    }
    Mar mar;
    mar.mode = MarMode::Indexed;
    mar.baseWord = 9000;
    Sdr idxSdr{2000, n};
    rig.mem.startStore(0, mar, {0, n}, &idxSdr);
    rig.runUntilDone(0);
    for (uint32_t i = 0; i < n; ++i)
        ASSERT_EQ(rig.mem.space().readWord(9000 + (n - 1 - i) * 8),
                  i * 2 + 1);
}

TEST(MemoryTest, TwoAgsShareBandwidth)
{
    MachineConfig cfg = MachineConfig::isim();
    const uint32_t n = 8192;
    Cycle single;
    {
        MemRig rig(cfg);
        rig.mem.startLoad(0, Mar{}, {0, n}, nullptr);
        single = rig.runUntilDone(0);
    }
    // Two concurrent unit-stride loads into disjoint SRF regions.  The
    // second stream starts two bank-groups ahead so the streams advance
    // through the banks without conflicting (figure 10: "higher
    // bandwidth is achieved ... when there are no DRAM bank conflicts
    // between the two memory streams").
    MemRig rig(cfg);
    Mar marB;
    marB.baseWord = 2ull * cfg.numChannels * cfg.rowWords;
    rig.mem.startLoad(0, Mar{}, {0, n}, nullptr);
    rig.mem.startLoad(1, marB, {16384, n}, nullptr);
    Cycle c = 0;
    while (!(rig.mem.agDone(0) && rig.mem.agDone(1)) && c < 2'000'000) {
        rig.mem.tick(c);
        rig.srf.tick();
        ++c;
    }
    ASSERT_TRUE(rig.mem.agDone(0) && rig.mem.agDone(1));
    // Total data doubled but the channels were already saturated: the
    // two streams take roughly twice as long as one.
    EXPECT_NEAR(static_cast<double>(c) / single, 2.0, 0.5);
}

TEST(MemoryTest, AgDoneLifecyclePanicsOnMisuse)
{
    MemRig rig(MachineConfig::isim());
    EXPECT_THROW(rig.mem.finish(0), std::logic_error);
    rig.mem.startLoad(0, Mar{}, {0, 64}, nullptr);
    EXPECT_THROW(rig.mem.startLoad(0, Mar{}, {0, 64}, nullptr),
                 std::logic_error);
}

TEST(MemoryTest, FrFcfsSchedulerGoldens)
{
    // Mixed workload: an indexed gather hopping across rows/banks (the
    // scheduler frequently picks a non-front request) plus a long
    // unit-stride load (exercises the seqHits >= 24 precharge-bug
    // path).  The counters below pin the scheduler's pick order: any
    // reorder of the order-preserving O(pick) removal would shift them.
    MachineConfig cfg;
    Srf srf(cfg);
    MemorySystem mem(cfg, srf);
    for (Addr a = 0; a < 1 << 16; ++a)
        mem.space().writeWord(a, static_cast<Word>(a * 2654435761u));

    const uint32_t n0 = 512;
    Sdr idxSdr{0, n0};
    for (uint32_t i = 0; i < n0; ++i)
        srf.write(i, (i * 677u) % 16384u);
    Sdr dst0{n0, n0};
    Mar mar0;
    mar0.baseWord = 0;
    mar0.mode = MarMode::Indexed;
    mar0.recordWords = 1;
    mem.startLoad(0, mar0, dst0, &idxSdr);

    const uint32_t n1 = 2048;
    Sdr dst1{2 * n0, n1};
    Mar mar1;
    mar1.baseWord = 32768;
    mar1.mode = MarMode::Stride;
    mar1.strideWords = 1;
    mar1.recordWords = 1;
    mem.startLoad(1, mar1, dst1, nullptr);

    Cycle now = 0;
    while ((!mem.agDone(0) || !mem.agDone(1)) && now < 1'000'000) {
        mem.tick(now);
        srf.tick();
        ++now;
    }
    const MemStats &s = mem.stats();
    EXPECT_EQ(now, 2139u);
    EXPECT_EQ(s.rowMisses, 169u);
    EXPECT_EQ(s.bugPrecharges, 72u);
    EXPECT_EQ(s.dramAccesses, 2560u);
    EXPECT_EQ(s.cacheHits, 0u);
    EXPECT_EQ(s.channelBusyMemCycles, 4199u);
}

namespace
{

/** Everything a memory-system run leaves behind. */
struct DeliveryRun
{
    Cycle cycles = 0;
    MemStats stats;
    std::vector<Word> srfImage;
    std::vector<Word> memImage;
};

/**
 * Three phases on one memory system: the FrFcfsSchedulerGoldens load
 * pair, then a strided store beside a gather over eight words that the
 * controller cache serves from the second touch on.  With @p injector
 * a zero-rate FaultInjector is attached, which switches deliveries to
 * the per-AG heap; without, they go through the per-channel FIFOs.
 */
DeliveryRun
runDeliveryMix(bool injector)
{
    MachineConfig cfg;
    Srf srf(cfg);
    MemorySystem mem(cfg, srf);
    FaultPlan plan;
    plan.enabled = true;    // every rate stays 0: no fault is drawn
    FaultInjector inj(plan);
    if (injector) {
        srf.setFaultInjector(&inj);
        mem.setFaultInjector(&inj);
    }
    for (Addr a = 0; a < 1 << 16; ++a)
        mem.space().writeWord(a, static_cast<Word>(a * 2654435761u));

    DeliveryRun out;
    auto runBoth = [&] {
        while ((!mem.agDone(0) || !mem.agDone(1)) && out.cycles < 100'000) {
            mem.tick(out.cycles);
            srf.tick();
            ++out.cycles;
        }
        if (mem.agDone(0))
            mem.finish(0);
        if (mem.agDone(1))
            mem.finish(1);
    };

    // Phase 1: the scheduler-golden gather and unit-stride load.
    const uint32_t n0 = 512;
    for (uint32_t i = 0; i < n0; ++i)
        srf.write(i, (i * 677u) % 16384u);
    Sdr idx0{0, n0};
    Mar gather;
    gather.mode = MarMode::Indexed;
    mem.startLoad(0, gather, Sdr{n0, n0}, &idx0);
    Mar unit;
    unit.baseWord = 32768;
    mem.startLoad(1, unit, Sdr{2 * n0, 2048}, nullptr);
    runBoth();

    // Phase 2: a strided store of 2-word records beside a small-range
    // gather that hits the controller cache.
    const uint32_t storeWords = 1024, gatherWords = 1024;
    const uint32_t storeSrc = 4096, idx1Off = 6144, gatherDst = 8192;
    for (uint32_t i = 0; i < storeWords; ++i)
        srf.write(storeSrc + i, 0x5a000000u + i);
    for (uint32_t i = 0; i < gatherWords; ++i)
        srf.write(idx1Off + i, (i * 5u) % 8u);
    Mar strided;
    strided.baseWord = 100'000;
    strided.strideWords = 7;
    strided.recordWords = 2;
    mem.startStore(0, strided, Sdr{storeSrc, storeWords}, nullptr);
    Mar small;
    small.baseWord = 40'000;
    small.mode = MarMode::Indexed;
    Sdr idx1{idx1Off, gatherWords};
    mem.startLoad(1, small, Sdr{gatherDst, gatherWords}, &idx1);
    runBoth();

    out.stats = mem.stats();
    for (uint32_t a = 0; a < srf.sizeWords(); ++a)
        out.srfImage.push_back(srf.read(a));
    for (Addr a = 100'000; a < 100'000 + 7 * storeWords; ++a)
        out.memImage.push_back(mem.space().readWord(a));
    return out;
}

} // namespace

TEST(MemoryTest, DeliveryFifosMatchInjectorHeap)
{
    DeliveryRun fifo = runDeliveryMix(false);
    DeliveryRun heap = runDeliveryMix(true);
    EXPECT_LT(fifo.cycles, 100'000u) << "FIFO run did not finish";
    EXPECT_EQ(fifo.cycles, heap.cycles);
    EXPECT_EQ(fifo.stats.wordsLoaded, heap.stats.wordsLoaded);
    EXPECT_EQ(fifo.stats.wordsStored, heap.stats.wordsStored);
    EXPECT_EQ(fifo.stats.cacheHits, heap.stats.cacheHits);
    EXPECT_EQ(fifo.stats.dramAccesses, heap.stats.dramAccesses);
    EXPECT_EQ(fifo.stats.rowMisses, heap.stats.rowMisses);
    EXPECT_EQ(fifo.stats.bugPrecharges, heap.stats.bugPrecharges);
    EXPECT_EQ(fifo.stats.channelBusyMemCycles,
              heap.stats.channelBusyMemCycles);
    EXPECT_TRUE(fifo.srfImage == heap.srfImage);
    EXPECT_TRUE(fifo.memImage == heap.memImage);
    // Every path was exercised: DRAM loads, stores and cache hits.
    EXPECT_EQ(fifo.stats.wordsLoaded, 512u + 2048u + 1024u);
    EXPECT_EQ(fifo.stats.wordsStored, 1024u);
    EXPECT_GE(fifo.stats.cacheHits, 500u);
}
