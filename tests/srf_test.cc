/**
 * @file
 * Unit tests for the stream register file: client windows, bandwidth
 * arbitration and functional storage, plus the row transfers and the
 * block-granting arbiter checked against per-word references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ckpt/serializer.hh"
#include "sim/config.hh"
#include "srf/srf.hh"

using namespace imagine;

namespace
{

class SrfTest : public ::testing::Test
{
  protected:
    MachineConfig cfg;
    Srf srf{cfg};
};

} // namespace

TEST_F(SrfTest, FunctionalReadWrite)
{
    srf.write(0, 0xdeadbeef);
    srf.write(srf.sizeWords() - 1, 42);
    EXPECT_EQ(srf.read(0), 0xdeadbeefu);
    EXPECT_EQ(srf.read(srf.sizeWords() - 1), 42u);
}

TEST_F(SrfTest, OutOfRangeAccessPanics)
{
    EXPECT_THROW(srf.read(srf.sizeWords()), std::logic_error);
    EXPECT_THROW(srf.write(srf.sizeWords(), 0), std::logic_error);
}

TEST_F(SrfTest, StreamBeyondCapacityRejected)
{
    Sdr sdr{srf.sizeWords() - 4, 8};
    EXPECT_THROW(srf.openIn(sdr), std::logic_error);
}

TEST_F(SrfTest, InputClientFetchesOverTime)
{
    for (uint32_t i = 0; i < 64; ++i)
        srf.write(100 + i, i * 3);
    int c = srf.openIn({100, 64});
    EXPECT_FALSE(srf.inReady(c, 0));
    srf.tick();
    EXPECT_TRUE(srf.inReady(c, 0));
    // The full aggregate bandwidth goes to the only client.
    EXPECT_TRUE(srf.inReady(c, cfg.srfBandwidthWordsPerCycle - 1));
    EXPECT_FALSE(srf.inReady(c, cfg.srfBandwidthWordsPerCycle));
    EXPECT_EQ(srf.inConsume(c, 0), 0u);
    EXPECT_EQ(srf.inConsume(c, 3), 9u);
    srf.close(c);
}

TEST_F(SrfTest, InputWindowAdvancesWithConsumption)
{
    uint32_t window = static_cast<uint32_t>(cfg.streamBufferWords) *
                      numClusters;
    uint32_t len = window * 3;
    Sdr sdr{0, len};
    int c = srf.openIn(sdr);
    // Fetch as much as the window allows.
    for (int t = 0; t < 200; ++t)
        srf.tick();
    EXPECT_TRUE(srf.inReady(c, window - 1));
    EXPECT_FALSE(srf.inReady(c, window));
    // Consuming the head lets the window slide.
    for (uint32_t e = 0; e < 16; ++e)
        srf.inConsume(c, e);
    for (int t = 0; t < 4; ++t)
        srf.tick();
    EXPECT_TRUE(srf.inReady(c, window + 15));
    srf.close(c);
}

TEST_F(SrfTest, OutOfOrderConsumptionWithinWindow)
{
    int c = srf.openIn({0, 32});
    for (int t = 0; t < 8; ++t)
        srf.tick();
    // Consume out of order; window head held by element 0.
    srf.inConsume(c, 5);
    srf.inConsume(c, 1);
    srf.inConsume(c, 0);
    EXPECT_THROW(srf.inConsume(c, 1), std::logic_error);  // double consume
    srf.close(c);
}

TEST_F(SrfTest, OutputClientDrains)
{
    int c = srf.openOut({200, 16});
    for (uint32_t e = 0; e < 16; ++e) {
        ASSERT_TRUE(srf.outCanAccept(c, e));
        srf.outProduce(c, e, e + 7);
    }
    EXPECT_FALSE(srf.outDrained(c));
    srf.tick();
    EXPECT_TRUE(srf.outDrained(c));
    EXPECT_EQ(srf.close(c), 16u);
    for (uint32_t e = 0; e < 16; ++e)
        EXPECT_EQ(srf.read(200 + e), e + 7);
}

TEST_F(SrfTest, OutputDrainStopsAtHole)
{
    int c = srf.openOut({0, 8});
    srf.outProduce(c, 0, 1);
    srf.outProduce(c, 2, 3);    // hole at element 1
    srf.tick();
    EXPECT_FALSE(srf.outDrained(c));
    srf.outProduce(c, 1, 2);
    srf.tick();
    EXPECT_TRUE(srf.outDrained(c));
    srf.close(c);
}

TEST_F(SrfTest, AppendPositionTracksProduction)
{
    int c = srf.openOut({0, 64});
    EXPECT_EQ(srf.outAppendPos(c), 0u);
    srf.outProduce(c, 0, 11);
    srf.outProduce(c, 1, 12);
    EXPECT_EQ(srf.outAppendPos(c), 2u);
    srf.tick();
    EXPECT_EQ(srf.close(c), 2u);    // conditional stream length
}

TEST_F(SrfTest, AggregateBandwidthIsCapped)
{
    int a = srf.openIn({0, 4096});
    int b = srf.openIn({8192, 4096});
    srf.tick();
    uint32_t got = 0;
    for (uint32_t e = 0; e < 64; ++e) {
        if (srf.inReady(a, e))
            ++got;
        if (srf.inReady(b, e))
            ++got;
    }
    EXPECT_EQ(got, static_cast<uint32_t>(cfg.srfBandwidthWordsPerCycle));
    EXPECT_EQ(srf.stats().wordsTransferred,
              static_cast<uint64_t>(cfg.srfBandwidthWordsPerCycle));
    srf.close(a);
    srf.close(b);
}

TEST_F(SrfTest, ArbitrationIsFair)
{
    int a = srf.openIn({0, 4096});
    int b = srf.openIn({8192, 4096});
    for (int t = 0; t < 16; ++t)
        srf.tick();
    // Both clients should have received about half the bandwidth.
    uint32_t ca = 0, cb = 0;
    while (srf.inReady(a, ca))
        ++ca;
    while (srf.inReady(b, cb))
        ++cb;
    EXPECT_NEAR(static_cast<double>(ca), static_cast<double>(cb),
                cfg.srfBandwidthWordsPerCycle);
    srf.close(a);
    srf.close(b);
}

// ---------------------------------------------------------------------
// Row transfers and the arbiter against per-word references
// ---------------------------------------------------------------------

namespace
{

/** The SRF's checkpoint bytes: every architecturally visible field. */
std::vector<uint8_t>
image(const Srf &s)
{
    ckpt::Serializer ser;
    ser.section("srf");
    s.saveState(ser);
    return ser.finish();
}

/**
 * Row strides 1, W-1, W, W+1 and 2W+5 for a base W that is not a power
 * of two.  A row spans seven strides and must fit in the client's
 * window, so each client gets a window of 8 * stride + W words - never
 * a power of two either, so ring wraps land mid-row.
 */
std::vector<uint32_t>
rowStrides(uint32_t w)
{
    return {1, w - 1, w, w + 1, 2 * w + 5};
}

/** Deterministic LCG for the arbiter workload. */
struct Lcg
{
    uint64_t x;
    uint32_t
    below(uint32_t n)
    {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<uint32_t>((x >> 33) % n);
    }
};

} // namespace

TEST_F(SrfTest, InConsumeRowMatchesEightConsumes)
{
    MachineConfig mc;
    mc.streamBufferWords = 1;      // window = minWindow exactly
    for (uint32_t w : {6u, 13u}) {
        for (uint32_t stride : rowStrides(w)) {
            SCOPED_TRACE(testing::Message()
                         << "W=" << w << " stride=" << stride);
            Srf a(mc), b(mc);
            const uint32_t block = numClusters * stride;
            const uint32_t len = 5 * block;
            for (uint32_t i = 0; i < len; ++i) {
                a.write(7 + i, i * 2654435761u);
                b.write(7 + i, i * 2654435761u);
            }
            int ca = a.openIn({7, len}, block + w);
            int cb = b.openIn({7, len}, block + w);
            for (uint32_t blk = 0; blk < 5; ++blk) {
                for (uint32_t k = 0; k < stride; ++k) {
                    // Odd blocks consume their rows last-first, so the
                    // base holds back until the block's first row.
                    uint32_t j = blk % 2 ? stride - 1 - k : k;
                    uint32_t first = blk * block + j;
                    uint32_t last = first + (numClusters - 1) * stride;
                    while (!a.inReady(ca, last)) {
                        a.tick();
                        b.tick();
                    }
                    ASSERT_TRUE(b.inReady(cb, last));
                    Word row[numClusters];
                    a.inConsumeRow(ca, first, stride, row);
                    for (int l = 0; l < numClusters; ++l) {
                        uint32_t e = first + static_cast<uint32_t>(l) *
                                                 stride;
                        ASSERT_EQ(row[l], b.inConsume(cb, e)) << e;
                    }
                    ASSERT_EQ(image(a), image(b)) << "row at " << first;
                }
            }
            a.close(ca);
            b.close(cb);
            EXPECT_EQ(image(a), image(b));
        }
    }
}

TEST_F(SrfTest, OutProduceRowMatchesEightProduces)
{
    MachineConfig mc;
    mc.streamBufferWords = 1;
    for (uint32_t w : {6u, 13u}) {
        for (uint32_t stride : rowStrides(w)) {
            SCOPED_TRACE(testing::Message()
                         << "W=" << w << " stride=" << stride);
            Srf a(mc), b(mc);
            const uint32_t block = numClusters * stride;
            const uint32_t len = 5 * block;
            int ca = a.openOut({3, len}, block + w);
            int cb = b.openOut({3, len}, block + w);
            for (uint32_t blk = 0; blk < 5; ++blk) {
                for (uint32_t k = 0; k < stride; ++k) {
                    uint32_t j = blk % 2 ? stride - 1 - k : k;
                    uint32_t first = blk * block + j;
                    uint32_t last = first + (numClusters - 1) * stride;
                    while (!a.outCanAccept(ca, last)) {
                        a.tick();
                        b.tick();
                    }
                    ASSERT_TRUE(b.outCanAccept(cb, last));
                    Word row[numClusters];
                    for (int l = 0; l < numClusters; ++l)
                        row[l] = first * 31 + static_cast<Word>(l);
                    a.outProduceRow(ca, first, stride, row);
                    for (int l = 0; l < numClusters; ++l)
                        b.outProduce(cb,
                                     first + static_cast<uint32_t>(l) *
                                                 stride,
                                     row[l]);
                    ASSERT_EQ(image(a), image(b)) << "row at " << first;
                }
            }
            while (!a.outDrained(ca)) {
                a.tick();
                b.tick();
            }
            EXPECT_TRUE(b.outDrained(cb));
            EXPECT_EQ(a.close(ca), b.close(cb));
            EXPECT_EQ(image(a), image(b));
        }
    }
}

namespace
{

/** Ticks on which the arbiter's caps fit its bandwidth, and did not. */
struct ArbiterBranches
{
    int fit = 0;
    int overloaded = 0;
};

/**
 * Drive an arbiter of @p bandwidth words a cycle against the test's
 * own model of every client slot, ticked by a literal one-word-per-pass
 * round-robin loop, and compare after every tick.  Heavy traffic
 * (consumers and producers move up to their whole window, so the caps
 * overrun the bandwidth) alternates with a trickle (one client moves a
 * word one tick in four, so the caps come to fit).
 */
ArbiterBranches
checkArbiterAgainstPerWordReference(int bandwidth)
{
    SCOPED_TRACE(testing::Message() << "bandwidth " << bandwidth);
    ArbiterBranches branches;
    MachineConfig mc;
    mc.streamBufferWords = 2;      // base window 16: minWindow decides
    mc.srfBandwidthWordsPerCycle = bandwidth;
    mc.srfSizeWords = 1u << 17;    // room for seven 12000-word streams
    Srf arb(mc);

    struct Model
    {
        bool active = false;
        bool isIn = false;
        uint32_t length = 0, window = 0, base = 0, fetched = 0;
        uint32_t produced = 0;          ///< out: next word to produce
        std::vector<uint8_t> present;   ///< out: produced, not drained
    };
    std::vector<Model> model;
    auto open = [&](bool isIn, uint32_t offset, uint32_t len,
                    uint32_t window) {
        Sdr sdr{offset, len};
        int h = isIn ? arb.openIn(sdr, window) : arb.openOut(sdr, window);
        if (static_cast<size_t>(h) >= model.size())
            model.resize(static_cast<size_t>(h) + 1);
        Model &m = model[static_cast<size_t>(h)];
        m = Model{};
        m.active = true;
        m.isIn = isIn;
        m.length = len;
        m.window = window;
        m.present.assign(len, 0);
        return h;
    };
    auto movable = [](const Model &m) {
        if (!m.active)
            return false;
        if (m.isIn)
            return m.fetched < m.length && m.fetched < m.base + m.window;
        return m.base < m.produced && m.present[m.base] != 0;
    };
    // The words a tick could move for @p m: what the arbiter caps it at.
    auto cap = [&](const Model &m) {
        uint32_t c = 0;
        if (m.isIn)
            c = std::min(m.length, m.base + m.window) - m.fetched;
        else
            while (m.base + c < m.produced && m.present[m.base + c])
                ++c;
        return std::min(c, static_cast<uint32_t>(bandwidth));
    };

    // Six slots, windows that are not powers of two; closing two leaves
    // inactive slots inside the arbiter's array.
    open(true, 0, 12000, 21);
    int gone1 = open(false, 16000, 12000, 37);
    open(true, 32000, 12000, 45);
    open(false, 48000, 12000, 19);
    int gone4 = open(true, 64000, 12000, 27);
    open(false, 80000, 12000, 53);
    arb.close(gone1);
    model[static_cast<size_t>(gone1)].active = false;
    arb.close(gone4);
    model[static_cast<size_t>(gone4)].active = false;

    Lcg rng{42};
    size_t cursor = 0;
    uint64_t moved = 0;
    const bool failedBefore = testing::Test::HasFailure();
    for (int t = 0; t < 1200; ++t) {
        if (t == 300) {     // reuses the first free slot
            EXPECT_EQ(open(true, 96000, 12000, 29), gone1);
        }
        // Each 300 ticks: 40 heavy, then a trickle that lets the
        // backlog drain even at 1 word a cycle.
        const bool heavy = t % 300 < 40;
        const size_t actor = rng.below(static_cast<uint32_t>(model.size()));
        const bool trickle = rng.below(4) == 0;
        // Consumers and producers act between ticks.
        for (size_t h = 0; h < model.size(); ++h) {
            Model &m = model[h];
            int c = static_cast<int>(h);
            if (!m.active || (!heavy && (h != actor || !trickle)))
                continue;
            if (m.isIn) {
                uint32_t avail = m.fetched - m.base;
                uint32_t k = heavy ? rng.below(avail + 1)
                                   : std::min(avail, 1u);
                for (uint32_t i = 0; i < k; ++i)
                    arb.inConsume(c, m.base++);
            } else {
                uint32_t room = std::min(m.length, m.base + m.window) -
                                m.produced;
                uint32_t k = heavy ? room - rng.below(room / 4 + 1)
                                   : std::min(room, 1u);
                for (uint32_t i = 0; i < k; ++i) {
                    arb.outProduce(c, m.produced, m.produced);
                    m.present[m.produced++] = 1;
                }
            }
        }
        uint64_t capSum = 0;
        bool any = false;
        for (const Model &m : model) {
            if (movable(m)) {
                any = true;
                capSum += cap(m);
            }
        }
        if (any)
            ++(capSum > static_cast<uint64_t>(bandwidth)
                   ? branches.overloaded
                   : branches.fit);
        arb.tick();
        // Reference arbiter: one word per movable client per pass, in
        // cursor order, until the bandwidth is spent.
        int tokens = bandwidth;
        bool progress = true;
        while (tokens > 0 && progress) {
            progress = false;
            for (size_t k = 0; k < model.size() && tokens > 0; ++k) {
                Model &m = model[(cursor + k) % model.size()];
                if (!movable(m))
                    continue;
                if (m.isIn) {
                    ++m.fetched;
                } else {
                    m.present[m.base] = 0;
                    ++m.base;
                }
                --tokens;
                ++moved;
                progress = true;
            }
        }
        cursor = (cursor + 1) % model.size();

        EXPECT_EQ(arb.stats().wordsTransferred, moved) << "tick " << t;
        for (size_t h = 0; h < model.size(); ++h) {
            const Model &m = model[h];
            int c = static_cast<int>(h);
            if (!m.active)
                continue;
            if (m.isIn) {
                EXPECT_TRUE(m.fetched == 0 ||
                            arb.inReady(c, m.fetched - 1))
                    << "tick " << t << " client " << h;
                EXPECT_FALSE(arb.inReady(c, m.fetched))
                    << "tick " << t << " client " << h;
            } else {
                EXPECT_TRUE(arb.outCanAccept(c, m.base + m.window - 1))
                    << "tick " << t << " client " << h;
                EXPECT_FALSE(arb.outCanAccept(c, m.base + m.window))
                    << "tick " << t << " client " << h;
            }
        }
        if (!failedBefore && testing::Test::HasFailure())
            break;
    }
    EXPECT_GT(moved, 900u);        // 1200 at most at 1 word a cycle
    return branches;
}

} // namespace

TEST_F(SrfTest, ArbiterGrantsMatchPerWordReference)
{
    // 1 word a cycle grants at most one client a tick, 64 usually fits
    // every cap, 5 and 16 (the paper's arbiter) fall in between; each
    // must take both the all-caps-fit branch and the water-level branch.
    for (int bandwidth : {1, 5, 16, 64}) {
        ArbiterBranches b = checkArbiterAgainstPerWordReference(bandwidth);
        EXPECT_GE(b.fit, 50) << "bandwidth " << bandwidth;
        EXPECT_GE(b.overloaded, 50) << "bandwidth " << bandwidth;
    }
}
