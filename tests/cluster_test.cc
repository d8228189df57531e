/**
 * @file
 * Tests for the cluster-array execution engine: functional correctness
 * of every op class under software pipelining, SIMD/COMM semantics,
 * conditional streams, restart carry-over, timing sanity, zero-trip
 * launches of every app kernel family, and a differential property test
 * against a reference interpreter.
 */

#include <gtest/gtest.h>

#include "app_kernels.hh"
#include "sim_test_util.hh"

#include "sim/rng.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::allAppKernels;
using imagine::testutil::ClusterRig;
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
