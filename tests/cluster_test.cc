/**
 * @file
 * Tests for the cluster-array execution engine: functional correctness
 * of every op class under software pipelining, SIMD/COMM semantics,
 * epilogue reads of loop values, conditional streams, restart
 * carry-over, timing sanity, zero-trip launches of every app kernel
 * family, pinned cross-commit goldens of every app kernel family (also
 * checked against the reference interpreter), bind-cache LRU
 * behaviour, and a differential property test against a reference
 * interpreter.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "app_kernels.hh"
#include "sim_test_util.hh"

#include "kernelc/predecode.hh"
#include "sim/rng.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::allAppKernels;
using imagine::testutil::ClusterRig;
using imagine::testutil::patternInputs;
using imagine::testutil::ReferenceInterp;

namespace
{

std::vector<Word>
floatStream(size_t n, Rng &rng)
{
    std::vector<Word> v(n);
    for (auto &w : v)
        w = floatToWord(rng.uniform(-4.0f, 4.0f));
    return v;
}

} // namespace

TEST(ClusterTest, SaxpyIsFunctionallyExact)
{
    KernelBuilder kb("saxpy");
    Val a = kb.ucr(0);
    int sx = kb.addInput();
    int sy = kb.addInput();
    int so = kb.addOutput();
    kb.beginLoop();
    kb.write(so, kb.fadd(kb.fmul(a, kb.read(sx)), kb.read(sy)));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    rig.ca.setUcr(0, floatToWord(2.5f));
    Rng rng(5);
    const size_t n = 256;
    auto x = floatStream(n, rng);
    auto y = floatStream(n, rng);
    auto out = rig.run(k, {x, y});
    ASSERT_EQ(out.size(), 1u);
    ASSERT_EQ(out[0].size(), n);
    for (size_t i = 0; i < n; ++i) {
        EXPECT_FLOAT_EQ(wordToFloat(out[0][i]),
                        2.5f * wordToFloat(x[i]) + wordToFloat(y[i]));
    }
}

TEST(ClusterTest, ReductionWithEpilogue)
{
    // Per-lane sum, written by the epilogue: out[lane] = sum of that
    // lane's elements.
    KernelBuilder kb("lanesum");
    int s = kb.addInput();
    kb.addOutput();
    kb.beginLoop();
    Val acc = kb.accum(kb.immF(0.0f));
    kb.accumSet(acc, kb.fadd(acc, kb.read(s)));
    kb.endLoop();
    kb.write(0, acc);
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 64;
    std::vector<Word> in(trip * numClusters);
    std::vector<float> expect(numClusters, 0.0f);
    for (uint32_t i = 0; i < in.size(); ++i) {
        float f = static_cast<float>(i % 13) - 6.0f;
        in[i] = floatToWord(f);
        expect[i % numClusters] += f;   // lane-major assignment
    }
    auto out = rig.run(k, {in});
    ASSERT_EQ(out[0].size(), static_cast<size_t>(numClusters));
    for (int lane = 0; lane < numClusters; ++lane)
        EXPECT_FLOAT_EQ(wordToFloat(out[0][lane]), expect[lane]);
}

TEST(ClusterTest, EpilogueReadsTheLastIterationsLoopValue)
{
    // The epilogue consumes a plain loop value, not an accumulator: it
    // must read the last iteration's row of the rotating value buffer,
    // (trip - 1) & mask, and neither row 0 nor the row past the end.
    KernelBuilder kb("lastvalue");
    int s = kb.addInput();
    int body = kb.addOutput();
    int tail = kb.addOutput();
    kb.beginLoop();
    Val v = kb.imul(kb.read(s), kb.immI(3));
    kb.write(body, v);
    kb.endLoop();
    kb.write(tail, kb.iadd(v, kb.immI(1)));
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    LoweredKernel low = lower(k);
    ASSERT_GT(low.depth, 1u);
    const uint32_t trip = 38;
    ASSERT_NE((trip - 1) & low.mask, 0u);

    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i * 7 + 1;
    ClusterRig rig(cfg);
    auto out = rig.run(k, {in});
    EXPECT_EQ(out, ReferenceInterp(k.graph, {in}, trip).run());
}

TEST(ClusterTest, CommBroadcastAndRotate)
{
    // out0 = lane0's value broadcast; out1 = left-rotated lane values.
    KernelBuilder kb("comm");
    int s = kb.addInput();
    int o0 = kb.addOutput();
    int o1 = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    kb.write(o0, kb.comm(v, kb.immI(0)));
    Val nextLane = kb.iand(kb.iadd(kb.cid(), kb.immI(1)), kb.immI(7));
    kb.write(o1, kb.comm(v, nextLane));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 8;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i * 10;
    auto out = rig.run(k, {in});
    for (uint32_t it = 0; it < trip; ++it) {
        for (int lane = 0; lane < numClusters; ++lane) {
            uint32_t e = it * numClusters + lane;
            // Broadcast from lane 0 of the same iteration.
            EXPECT_EQ(out[0][e], in[it * numClusters] );
            // Rotate: lane reads lane+1 (mod 8).
            EXPECT_EQ(out[1][e],
                      in[it * numClusters + ((lane + 1) % numClusters)]);
        }
    }
}

TEST(ClusterTest, ScratchpadRoundTrip)
{
    // Write iteration data into the scratchpad, read it back shifted by
    // one iteration: out[i] = in[i-1] (per lane), first iteration reads
    // whatever was there (zero).
    KernelBuilder kb("sp");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val it = kb.iterIdx();
    Val prevAddr = kb.iand(kb.isub(it, kb.immI(1)), kb.immI(63));
    Val curAddr = kb.iand(it, kb.immI(63));
    Val prev = kb.spRead(prevAddr);
    kb.spWrite(curAddr, kb.read(s));
    kb.write(o, prev);
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 32;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i + 1;
    auto out = rig.run(k, {in});
    for (uint32_t it = 0; it < trip; ++it) {
        for (int lane = 0; lane < numClusters; ++lane) {
            uint32_t e = it * numClusters + lane;
            Word expect = (it == 0) ? 0u
                                    : in[(it - 1) * numClusters + lane];
            EXPECT_EQ(out[0][e], expect) << "iter " << it;
        }
    }
}

TEST(ClusterTest, ConditionalStreamCompacts)
{
    // Keep only positive values; the output length is data-dependent.
    KernelBuilder kb("filter");
    int s = kb.addInput();
    int o = kb.addOutput(/*conditional=*/true);
    kb.beginLoop();
    Val v = kb.read(s);
    kb.writeCond(o, v, kb.flt(kb.immF(0.0f), v));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    Rng rng(17);
    const uint32_t trip = 64;
    auto in = floatStream(trip * numClusters, rng);
    auto out = rig.run(k, {in});

    std::vector<Word> expect;
    for (uint32_t it = 0; it < trip; ++it)
        for (int lane = 0; lane < numClusters; ++lane) {
            Word w = in[it * numClusters + lane];
            if (wordToFloat(w) > 0.0f)
                expect.push_back(w);
        }
    EXPECT_EQ(out[0], expect);
    EXPECT_LT(out[0].size(), in.size());
}

TEST(ClusterTest, MultiWordRecords)
{
    // Complex-style records: (re, im) in, magnitude-squared out.
    KernelBuilder kb("mag2");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val re = kb.read(s);
    Val im = kb.read(s);
    kb.write(o, kb.fadd(kb.fmul(re, re), kb.fmul(im, im)));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);
    ASSERT_EQ(k.graph.inRec[0], 2);

    ClusterRig rig(cfg);
    Rng rng(23);
    const uint32_t trip = 32;
    auto in = floatStream(trip * numClusters * 2, rng);
    auto out = rig.run(k, {in});
    ASSERT_EQ(out[0].size(), trip * numClusters);
    for (uint32_t r = 0; r < trip * numClusters; ++r) {
        float re = wordToFloat(in[2 * r]);
        float im = wordToFloat(in[2 * r + 1]);
        EXPECT_FLOAT_EQ(wordToFloat(out[0][r]), re * re + im * im);
    }
}

TEST(ClusterTest, UcrWritebackVisibleAfterRun)
{
    KernelBuilder kb("maxfind");
    int s = kb.addInput();
    kb.addOutput();
    kb.beginLoop();
    Val acc = kb.accum(kb.immF(-1e30f));
    kb.accumSet(acc, kb.fmax(acc, kb.read(s)));
    kb.endLoop();
    // Reduce across lanes in the epilogue via COMM.
    Val m = acc;
    for (int hop = 1; hop < numClusters; ++hop) {
        Val other = kb.comm(m, kb.iand(kb.iadd(kb.cid(), kb.immI(hop)),
                                       kb.immI(7)));
        m = kb.fmax(m, other);
    }
    kb.write(0, m);
    kb.ucrOut(5, m);
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    Rng rng(31);
    const uint32_t trip = 16;
    auto in = floatStream(trip * numClusters, rng);
    float expect = -1e30f;
    for (Word w : in)
        expect = std::max(expect, wordToFloat(w));
    rig.run(k, {in});
    EXPECT_FLOAT_EQ(wordToFloat(rig.ca.ucr(5)), expect);
}

TEST(ClusterTest, RestartCarriesAccumulators)
{
    KernelBuilder kb("acc2");
    int s = kb.addInput();
    kb.addOutput();
    kb.beginLoop();
    Val acc = kb.accum(kb.immF(0.0f));
    kb.accumSet(acc, kb.fadd(acc, kb.read(s)));
    kb.endLoop();
    kb.write(0, acc);
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 16;
    std::vector<Word> seg(trip * numClusters, floatToWord(1.0f));

    // First segment.
    auto out1 = rig.run(k, {seg});
    EXPECT_FLOAT_EQ(wordToFloat(out1[0][0]), static_cast<float>(trip));

    // Second segment as a Restart: accumulators continue.
    std::vector<ClusterArray::Binding> ins, outs;
    Sdr inSdr{0, static_cast<uint32_t>(seg.size())};
    for (size_t i = 0; i < seg.size(); ++i)
        rig.srf.write(static_cast<uint32_t>(i), seg[i]);
    ins.push_back({rig.srf.openIn(inSdr), inSdr.length});
    Sdr outSdr{4096, numClusters};
    outs.push_back({rig.srf.openOut(outSdr), numClusters});
    rig.ca.start(&k, ins, outs, 0, /*restart=*/true);
    uint64_t guard = 0;
    while (!rig.ca.done()) {
        rig.ca.tick();
        rig.srf.tick();
        ASSERT_LT(++guard, 100'000u);
    }
    rig.ca.retire();
    EXPECT_FLOAT_EQ(wordToFloat(rig.srf.read(4096)),
                    static_cast<float>(2 * trip));
}

TEST(ClusterTest, TimingTracksInitiationInterval)
{
    KernelBuilder kb("timing");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    // Enough adds to force a multi-cycle II.
    Val sum = v;
    for (int i = 0; i < 8; ++i)
        sum = kb.fadd(sum, kb.immF(1.0f));
    kb.write(o, sum);
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 512;
    std::vector<Word> in(trip * numClusters, floatToWord(1.0f));
    rig.run(k, {in});
    uint64_t expect = static_cast<uint64_t>(trip) * k.loop.ii;
    // Total cycles = startup + prologue + loop + epilogue + shutdown +
    // initial SB fill stalls; the loop dominates.
    EXPECT_GE(rig.cycles, expect);
    EXPECT_LE(rig.cycles, expect + 400);
}

TEST(ClusterTest, StatsAreAccumulated)
{
    KernelBuilder kb("stats");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.fmul(kb.read(s), kb.immF(3.0f)));
    kb.endLoop();
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    const uint32_t trip = 32;
    std::vector<Word> in(trip * numClusters, floatToWord(1.0f));
    rig.run(k, {in});
    const ClusterStats &st = rig.ca.stats();
    EXPECT_EQ(st.kernelsRun, 1u);
    EXPECT_EQ(st.arithOps, uint64_t(trip) * numClusters);  // 1 fmul/elem
    EXPECT_EQ(st.fpOps, st.arithOps);
    EXPECT_EQ(st.sbReads, uint64_t(trip) * numClusters);
    EXPECT_EQ(st.sbWrites, uint64_t(trip) * numClusters);
    EXPECT_GT(st.loopCycles, 0u);
    EXPECT_GT(st.startupCycles, 0u);
}

TEST(ClusterTest, ZeroTripEveryAppKernel)
{
    // A zero-length stream (trip 0) must launch, retire, and produce
    // nothing, for every kernel family the applications use.
    MachineConfig cfg;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        ClusterRig rig(cfg);
        std::vector<std::vector<Word>> inputs(
            static_cast<size_t>(k.graph.numInStreams));
        std::vector<std::vector<Word>> out;
        ASSERT_NO_THROW(out = rig.run(k, inputs)) << name;
        ASSERT_EQ(out.size(),
                  static_cast<size_t>(k.graph.numOutStreams))
            << name;
        for (const auto &o : out)
            EXPECT_TRUE(o.empty()) << name;
        // No iterations: the loop degenerates to a single empty issue
        // cycle and the prologue/epilogue never run.
        EXPECT_EQ(rig.ca.stats().prologueCycles, 0u) << name;
        EXPECT_EQ(rig.ca.stats().epilogueCycles, 0u) << name;
    }
}

TEST(ClusterTest, ZeroTripLoopLessKernelRunsPrologueAndEpilogue)
{
    // A kernel with an empty loop references no iterations, so at trip
    // 0 its prologue and epilogue still run: the scalar computed around
    // the empty loop must reach its UCR.
    KernelBuilder kb("scalar");
    Val x = kb.iadd(kb.ucr(0), kb.immI(7));
    kb.beginLoop();
    kb.endLoop();
    kb.ucrOut(1, kb.imul(x, kb.immI(3)));
    MachineConfig cfg;
    CompiledKernel k = compile(kb.finish(), cfg);

    ClusterRig rig(cfg);
    rig.ca.setUcr(0, intToWord(5));
    auto out = rig.run(k, {});
    EXPECT_TRUE(out.empty());
    EXPECT_GT(rig.ca.stats().prologueCycles, 0u);
    EXPECT_GT(rig.ca.stats().epilogueCycles, 0u);
    EXPECT_EQ(wordToInt(rig.ca.ucr(1)), 36);
}

// ---------------------------------------------------------------------
// Pinned rig goldens: every kernel family, outputs + cycles + counters.
// ---------------------------------------------------------------------

namespace
{

/** FNV-1a over the little-endian bytes of a sequence of words. */
struct Fnv1a
{
    uint64_t h = 0xcbf29ce484222325ull;
    void add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

/** Hash of everything observable about one standalone rig run. */
uint64_t
rigHash(const ClusterRig &rig,
        const std::vector<std::vector<Word>> &out)
{
    Fnv1a f;
    f.add(out.size());
    for (const auto &o : out) {
        f.add(o.size());
        for (Word w : o)
            f.add(w);
    }
    const ClusterStats &cs = rig.ca.stats();
    const SrfStats &ss = rig.srf.stats();
    for (uint64_t v :
         {rig.cycles, cs.busyTotal(), cs.prologueCycles, cs.loopCycles,
          cs.epilogueCycles, cs.stallCycles, cs.primingCycles,
          cs.issuedOps, cs.arithOps, cs.fpOps, cs.lrfReads, cs.lrfWrites,
          cs.spAccesses, cs.commWords, cs.sbReads, cs.sbWrites,
          ss.wordsTransferred, ss.busyCycles})
        f.add(v);
    return f.h;
}

bool
usesScratchpad(const KernelGraph &g)
{
    for (const Node &n : g.nodes)
        if (n.op == Opcode::SpRd || n.op == Opcode::SpWr)
            return true;
    return false;
}

} // namespace

TEST(ClusterTest, RigGoldensEveryAppKernel)
{
    // Cross-commit pins for the kernel engine: one FNV-1a hash per run
    // over outputs, cycles and every cluster/SRF counter.  A pin moves
    // only when kernel timing or results change on purpose; re-pin in
    // the same commit and say why.  Outputs are also checked against
    // the reference interpreter wherever it applies (it does not model
    // the scratchpad).
    const std::map<std::string, uint64_t> pinned = {
        {"conv7x7", 0xe9a062bee56ddeefull},
        {"conv3x3", 0x372cb42d214acc74ull},
        {"blockSad7x7", 0x28d26c27657a27adull},
        {"sadUpdate", 0x5a2f22c559901eecull},
        {"sadSearch", 0x11e5e17bebc6e653ull},
        {"blockSearch", 0x3b57a816399f2516ull},
        {"colorConv", 0xe27b05e306a684d0ull},
        {"dct8x8", 0x7a13de4c7a50b7b0ull},
        {"idct8x8", 0x7aa65724847a2386ull},
        {"quantize", 0x27064833673facf5ull},
        {"dequantize", 0xee4f68028cf86b26ull},
        {"zigzag", 0xf8332b5f7691ae91ull},
        {"rle", 0x9d5875a299a12d6dull},
        {"pixSub", 0x4974d93ffdefe888ull},
        {"pixAddClamp", 0xd7e7ef20bea206e5ull},
        {"addClamp", 0x95daaf8acb6fb1a5ull},
        {"mcIndex", 0x67a1f16f0b7296f6ull},
        {"house", 0x1aa20d644d2f0706ull},
        {"houseApply", 0xc17965270c48b892ull},
        {"houseApply2", 0xc061ec8680929cf1ull},
        {"panelDot", 0x97015eb3754a0a60ull},
        {"panelAxpy", 0x4de1f361d533e27cull},
        {"panelAxpyDots", 0x674f60a88af58ccdull},
        {"extractColumn", 0x970573a95e894f40ull},
        {"vertexTransform", 0x537441ed22b264c0ull},
        {"cullTriangles", 0x4046f705b3727839ull},
        {"rasterize", 0x260198d69be21fbdull},
        {"shadeFragments", 0xfaf192d48f8e5128ull},
        {"zCompare", 0xcfc8e564dfc67960ull},
        {"peakFlops", 0x7044a304442b0ee6ull},
        {"peakOps", 0x865acac40b71ee62ull},
        {"commSort32", 0xcf4743ea634224abull},
        {"srfCopy", 0xdba7584fcbd132e0ull},
        {"streamLength", 0xdfde69fe0105dacdull},
        {"gromacsForce", 0x00a03f953a522013ull},
    };
    MachineConfig cfg;
    const uint32_t trip = 12;
    size_t refChecked = 0, families = 0;
    for (auto &[name, graph] : allAppKernels()) {
        ++families;
        KernelGraph g = graph;
        CompiledKernel k = compile(std::move(graph), cfg);
        std::vector<std::vector<Word>> inputs = patternInputs(k, trip);
        ClusterRig rig(cfg);
        std::vector<std::vector<Word>> out = rig.run(k, inputs);
        auto pin = pinned.find(name);
        ASSERT_NE(pin, pinned.end()) << name;
        EXPECT_EQ(rigHash(rig, out), pin->second)
            << name << " cycles " << rig.cycles;
        if (usesScratchpad(g))
            continue;
        ++refChecked;
        EXPECT_EQ(out, ReferenceInterp(g, inputs, trip).run()) << name;
    }
    EXPECT_EQ(families, 35u);
    EXPECT_EQ(refChecked, 33u);

    // Starved SRF bandwidth: the loop stalls every few iterations, so
    // stream-readiness gating (including the priming/draining stage
    // filter) runs on every bucket, not just at steady state.
    MachineConfig starved;
    starved.srfBandwidthWordsPerCycle = 2;
    starved.streamBufferWords = 8;
    CompiledKernel k = compile(imagine::kernels::dct8x8(), starved);
    std::vector<std::vector<Word>> inputs = patternInputs(k, 16);
    ClusterRig rig(starved);
    std::vector<std::vector<Word>> out = rig.run(k, inputs);
    EXPECT_GT(rig.ca.stats().stallCycles, 0u);
    EXPECT_EQ(rigHash(rig, out), 0xb52a7d35296a87e8ull)
        << "dct8x8 starved, cycles " << rig.cycles;
    EXPECT_EQ(out, ReferenceInterp(k.graph, inputs, 16).run());
}

// ---------------------------------------------------------------------
// Bind-cache LRU
// ---------------------------------------------------------------------

namespace
{

CompiledKernel
scaleKernel(const MachineConfig &cfg, const char *name, int scale)
{
    KernelBuilder kb(name);
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    Val v = kb.read(s);
    kb.write(o, kb.iadd(v, kb.immI(scale)));
    kb.endLoop();
    return compile(kb.finish(), cfg);
}

} // namespace

TEST(ClusterTest, BindCacheLruEviction)
{
    // Cap the bind cache at two kernels and launch three distinct ones:
    // the least-recently-used entry must go, the peak stat must stop at
    // the cap, and a re-launch of the evicted kernel must still produce
    // correct output (it simply rebinds from scratch).
    MachineConfig cfg;
    cfg.clusterBindCacheKernels = 2;
    ClusterRig rig(cfg);
    CompiledKernel k1 = scaleKernel(cfg, "scale1", 100);
    CompiledKernel k2 = scaleKernel(cfg, "scale2", 200);
    CompiledKernel k3 = scaleKernel(cfg, "scale3", 300);

    const uint32_t trip = 4;
    std::vector<Word> in(trip * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = i;
    auto check = [&](const CompiledKernel &k, Word bias) {
        std::vector<std::vector<Word>> out = rig.run(k, {in});
        ASSERT_EQ(out.size(), 1u);
        ASSERT_EQ(out[0].size(), in.size());
        for (uint32_t i = 0; i < in.size(); ++i)
            EXPECT_EQ(out[0][i], in[i] + bias) << k.name();
    };

    check(k1, 100);
    check(k2, 200);
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 0u);
    check(k3, 300);             // evicts k1 (LRU)
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 1u);
    check(k2, 200);             // still cached: no new eviction
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 1u);
    check(k1, 100);             // rebinds, evicting the LRU (k3)
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 2u);
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 2u);
}

TEST(ClusterTest, BindCacheUncappedKeepsAllKernels)
{
    // At the default (generous) cap no eviction should ever fire for a
    // handful of kernels, and the peak tracks the distinct-kernel count.
    MachineConfig cfg;
    ClusterRig rig(cfg);
    const uint32_t trip = 2;
    std::vector<Word> in(trip * numClusters, 5);
    std::vector<CompiledKernel> ks;
    for (int i = 0; i < 6; ++i) {
        ks.push_back(scaleKernel(
            cfg, ("k" + std::to_string(i)).c_str(), i));
    }
    for (const CompiledKernel &k : ks)
        rig.run(k, {in});
    for (const CompiledKernel &k : ks)
        rig.run(k, {in});       // second pass: every bind is a hit
    EXPECT_EQ(rig.ca.stats().bindCachePeakKernels, 6u);
    EXPECT_EQ(rig.ca.stats().bindCacheEvictions, 0u);
}

// ---------------------------------------------------------------------
// Differential property test: random kernels vs reference interpreter.
// ---------------------------------------------------------------------

class ClusterDifferentialTest : public ::testing::TestWithParam<int>
{
};

TEST_P(ClusterDifferentialTest, MatchesReferenceInterpreter)
{
    Rng rng(GetParam() * 7919);
    KernelBuilder kb("randdiff");
    int s0 = kb.addInput();
    int o0 = kb.addOutput();
    kb.beginLoop();

    std::vector<Val> pool;
    int reads = 1 + static_cast<int>(rng.below(2));
    for (int i = 0; i < reads; ++i)
        pool.push_back(kb.read(s0));
    pool.push_back(kb.cid());
    pool.push_back(kb.iterIdx());

    int numOps = 8 + static_cast<int>(rng.below(24));
    for (int i = 0; i < numOps; ++i) {
        Val a = pool[rng.below(static_cast<uint32_t>(pool.size()))];
        Val b = pool[rng.below(static_cast<uint32_t>(pool.size()))];
        switch (rng.below(8)) {
          case 0: pool.push_back(kb.iadd(a, b)); break;
          case 1: pool.push_back(kb.isub(a, b)); break;
          case 2: pool.push_back(kb.imul(a, b)); break;
          case 3: pool.push_back(kb.ixor(a, b)); break;
          case 4: pool.push_back(kb.imin(a, b)); break;
          case 5: pool.push_back(kb.op2(Opcode::Add16x2, a, b)); break;
          case 6:
            pool.push_back(kb.comm(a, kb.iand(b, kb.immI(7))));
            break;
          default:
            pool.push_back(kb.select(kb.ilt(a, b), a, b));
            break;
        }
    }
    if (rng.below(2) == 0) {
        Val acc = kb.accum(kb.immI(0));
        Val next = kb.iadd(acc, pool.back());
        kb.accumSet(acc, next);
        pool.push_back(acc);
    }
    kb.write(o0, pool.back());
    kb.endLoop();
    KernelGraph g = kb.finish();

    MachineConfig cfg;
    CompiledKernel k = compile(KernelGraph(g), cfg);

    const uint32_t trip = 24;
    std::vector<std::vector<Word>> inputs(1);
    inputs[0].resize(static_cast<size_t>(trip) * numClusters *
                     g.inRec[0]);
    for (auto &w : inputs[0])
        w = rng.next();

    ClusterRig rig(cfg);
    auto got = rig.run(k, inputs);
    ReferenceInterp ref(g, inputs, trip);
    auto expect = ref.run();
    ASSERT_EQ(got.size(), expect.size());
    EXPECT_EQ(got[0], expect[0]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterDifferentialTest,
                         ::testing::Range(1, 25));
