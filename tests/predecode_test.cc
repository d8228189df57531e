/**
 * @file
 * Tests for the pre-decoded micro-op engine (DESIGN.md section 9).
 *
 * The contract under test: with cfg.predecode on, every kernel launch
 * must behave *bit-identically* to the interpretive issue path - same
 * output words, same cycle counts, same per-counter statistics, same
 * fault traces - because the lowering pass is a pure representation
 * change, not a model change.  Violations show up here as divergence
 * between a predecode-on and a predecode-off drive of the identical
 * workload:
 *
 *  - a cluster+SRF differential rig over every app/library kernel
 *    family with real data (covers In/Out/OutCond/CommPerm/SpRd/SpWr/
 *    UcrWr/Acc and both dedicated and generic arith handlers),
 *  - zero-trip launches of every kernel family,
 *  - whole-app and machine-shape-sweep bit-identity of
 *    RunResult::toJson(),
 *  - chaos campaigns (10 seeds per ECC mode) on vs. off,
 *  - LRU behavior and stats of the per-kernel bind cache.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "app_kernels.hh"
#include "sim_test_util.hh"

#include "apps/apps.hh"
#include "sim/runner.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::ClusterRig;
using imagine::testutil::allAppKernels;

namespace
{

/** Outcome of one standalone kernel run, for differential comparison. */
struct RigOutcome
{
    std::vector<std::vector<Word>> out;
    uint64_t cycles = 0;
    ClusterStats cs;
    SrfStats ss;
};

RigOutcome
driveRig(MachineConfig cfg, const CompiledKernel &k,
         const std::vector<std::vector<Word>> &inputs, bool predecode)
{
    cfg.predecode = predecode;
    ClusterRig rig(cfg);
    RigOutcome r;
    r.out = rig.run(k, inputs);
    r.cycles = rig.cycles;
    r.cs = rig.ca.stats();
    r.ss = rig.srf.stats();
    return r;
}

/**
 * Run @p k over @p inputs with the micro-op engine on and off; every
 * observable - outputs, cycles, per-counter stats - must match.  The
 * kernel is compiled once and shared, so the comparison also covers
 * the lowered-trace cache reusing one CompiledKernel across arms.
 */
void
expectRigIdentical(const MachineConfig &cfg, const CompiledKernel &k,
                   const std::vector<std::vector<Word>> &inputs)
{
    RigOutcome on = driveRig(cfg, k, inputs, true);
    RigOutcome off = driveRig(cfg, k, inputs, false);
    EXPECT_EQ(on.out, off.out) << k.name();
    EXPECT_EQ(on.cycles, off.cycles) << k.name();
    EXPECT_EQ(on.cs.busyTotal(), off.cs.busyTotal()) << k.name();
    EXPECT_EQ(on.cs.prologueCycles, off.cs.prologueCycles) << k.name();
    EXPECT_EQ(on.cs.loopCycles, off.cs.loopCycles) << k.name();
    EXPECT_EQ(on.cs.epilogueCycles, off.cs.epilogueCycles) << k.name();
    EXPECT_EQ(on.cs.stallCycles, off.cs.stallCycles) << k.name();
    EXPECT_EQ(on.cs.primingCycles, off.cs.primingCycles) << k.name();
    EXPECT_EQ(on.cs.issuedOps, off.cs.issuedOps) << k.name();
    EXPECT_EQ(on.cs.arithOps, off.cs.arithOps) << k.name();
    EXPECT_EQ(on.cs.fpOps, off.cs.fpOps) << k.name();
    EXPECT_EQ(on.cs.lrfReads, off.cs.lrfReads) << k.name();
    EXPECT_EQ(on.cs.lrfWrites, off.cs.lrfWrites) << k.name();
    EXPECT_EQ(on.cs.spAccesses, off.cs.spAccesses) << k.name();
    EXPECT_EQ(on.cs.commWords, off.cs.commWords) << k.name();
    EXPECT_EQ(on.cs.sbReads, off.cs.sbReads) << k.name();
    EXPECT_EQ(on.cs.sbWrites, off.cs.sbWrites) << k.name();
    EXPECT_EQ(on.ss.wordsTransferred, off.ss.wordsTransferred)
        << k.name();
    EXPECT_EQ(on.ss.busyCycles, off.ss.busyCycles) << k.name();
}

} // namespace

// ---------------------------------------------------------------------
// Cluster + SRF differential rig over every kernel family
// ---------------------------------------------------------------------

TEST(PredecodeTest, RigDifferentialEveryAppKernel)
{
    // Real data through every kernel family: bounded values so packed
    // 8/16-bit kernels see plausible pixels and float kernels see
    // denormals rather than NaN-adjacent garbage.  Identity must hold
    // whatever the data means to the kernel.
    MachineConfig cfg;
    const uint32_t trip = 12;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        std::vector<std::vector<Word>> inputs;
        for (int s = 0; s < k.graph.numInStreams; ++s) {
            std::vector<Word> data(trip *
                                   static_cast<uint32_t>(
                                       k.graph.inRec[s]) *
                                   numClusters);
            for (uint32_t i = 0; i < data.size(); ++i)
                data[i] = (i * 37u + static_cast<uint32_t>(s) * 11u) %
                          251u;
            inputs.push_back(std::move(data));
        }
        expectRigIdentical(cfg, k, inputs);
    }
}

TEST(PredecodeTest, RigDifferentialStarvedSrf)
{
    // Starved SRF bandwidth: the loop stalls every few iterations, so
    // the micro path's canIssue gating (including the priming/draining
    // stage filter) is exercised on every bucket, not just at steady
    // state.
    MachineConfig cfg;
    cfg.srfBandwidthWordsPerCycle = 2;
    cfg.streamBufferWords = 8;
    CompiledKernel k = compile(imagine::kernels::dct8x8(), cfg);
    const uint32_t trip = 16;
    std::vector<Word> in(trip * 8 * numClusters);
    for (uint32_t i = 0; i < in.size(); ++i)
        in[i] = (i * 37u) % 251u;
    expectRigIdentical(cfg, k, {in});
}

TEST(PredecodeTest, ZeroTripEveryAppKernel)
{
    // Zero-length launches never enter the loop, prologue, or epilogue;
    // the lowered trace must be equally happy executing nothing.
    MachineConfig cfg;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        std::vector<std::vector<Word>> inputs(
            static_cast<size_t>(k.graph.numInStreams));
        RigOutcome on = driveRig(cfg, k, inputs, true);
        RigOutcome off = driveRig(cfg, k, inputs, false);
        for (const auto &o : on.out)
            EXPECT_TRUE(o.empty()) << name;
        EXPECT_EQ(on.out, off.out) << name;
        EXPECT_EQ(on.cycles, off.cycles) << name;
        EXPECT_EQ(on.cs.prologueCycles, 0u) << name;
        EXPECT_EQ(on.cs.epilogueCycles, 0u) << name;
    }
}

// ---------------------------------------------------------------------
// Whole-app bit-identity, on vs. off
// ---------------------------------------------------------------------

namespace
{

/** Run @p runApp under @p base with predecode on and off; both arms
 *  must validate and produce byte-identical RunResult JSON. */
template <typename RunApp>
void
expectAppIdentical(const char *name, MachineConfig base,
                   const RunApp &runApp)
{
    base.predecode = true;
    ImagineSystem on(base);
    apps::AppResult ron = runApp(on);
    base.predecode = false;
    ImagineSystem off(base);
    apps::AppResult roff = runApp(off);
    EXPECT_TRUE(ron.validated) << name;
    EXPECT_TRUE(roff.validated) << name;
    EXPECT_EQ(ron.run.cycles, roff.run.cycles) << name;
    EXPECT_EQ(ron.run.toJson(), roff.run.toJson()) << name;
}

} // namespace

TEST(PredecodeTest, AppBitIdentityDepth)
{
    expectAppIdentical("DEPTH", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::DepthConfig cfg;
                           cfg.width = 128;
                           cfg.height = 42;
                           cfg.disparities = 4;
                           return apps::runDepth(sys, cfg);
                       });
}

TEST(PredecodeTest, AppBitIdentityMpeg)
{
    expectAppIdentical("MPEG", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::MpegConfig cfg;
                           cfg.width = 64;
                           cfg.height = 32;
                           cfg.frames = 3;
                           return apps::runMpeg(sys, cfg);
                       });
}

TEST(PredecodeTest, AppBitIdentityQrd)
{
    expectAppIdentical("QRD", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::QrdConfig cfg;
                           cfg.rows = 64;
                           cfg.cols = 16;
                           return apps::runQrd(sys, cfg);
                       });
}

TEST(PredecodeTest, AppBitIdentityRtsl)
{
    expectAppIdentical("RTSL", MachineConfig::devBoard(),
                       [](ImagineSystem &sys) {
                           apps::RtslConfig cfg;
                           cfg.screen = 64;
                           cfg.triangles = 256;
                           cfg.batch = 64;
                           return apps::runRtsl(sys, cfg);
                       });
}

TEST(PredecodeTest, SweepBitIdentity)
{
    // The contract must hold at machine shapes other than the default:
    // starved SRF bandwidth, slow memory clock, shallow stream buffers.
    struct Shape
    {
        int srfBw;
        int memDiv;
        int sbWords;
    };
    for (const Shape &sh : {Shape{4, 2, 16}, Shape{16, 4, 16},
                            Shape{8, 3, 8}}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.srfBandwidthWordsPerCycle = sh.srfBw;
        cfg.memClockDivider = sh.memDiv;
        cfg.streamBufferWords = sh.sbWords;
        std::string label = "srfBw=" + std::to_string(sh.srfBw) +
                            " memDiv=" + std::to_string(sh.memDiv) +
                            " sb=" + std::to_string(sh.sbWords);
        expectAppIdentical(label.c_str(), cfg, [](ImagineSystem &sys) {
            apps::DepthConfig dc;
            dc.width = 128;
            dc.height = 42;
            dc.disparities = 4;
            return apps::runDepth(sys, dc);
        });
    }
}

// ---------------------------------------------------------------------
// Chaos campaigns, on vs. off
// ---------------------------------------------------------------------

namespace
{

MachineConfig
chaosConfig(int run, bool predecode)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.predecode = predecode;
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x9de2ull * 1000 + static_cast<uint64_t>(run);
    cfg.faults.srfFlipRate = 1e-4;
    cfg.faults.dramFlipRate = 1e-4;
    cfg.faults.ucodeCorruptRate = 0.05;
    cfg.faults.stuckSlotRate = 1e-3;
    cfg.faults.agStallRate = 1e-3;
    cfg.faults.agStallBurstCycles = 32;
    cfg.faults.maxRetries = 3;
    switch (run % 3) {
      case 0:
        cfg.faults.srfEcc = EccMode::Secded;
        cfg.faults.memEcc = EccMode::Secded;
        break;
      case 1:
        cfg.faults.srfEcc = EccMode::Parity;
        cfg.faults.memEcc = EccMode::Parity;
        break;
      default:
        cfg.faults.srfEcc = EccMode::None;
        cfg.faults.memEcc = EccMode::None;
        break;
    }
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/** Outcome fingerprint of one chaos arm: the full result JSON on a
 *  clean/invalid finish, or the (deterministic) error text. */
std::string
chaosFingerprint(int run, bool predecode)
{
    ImagineSystem sys(chaosConfig(run, predecode));
    try {
        apps::DepthConfig dc;
        dc.width = 128;
        dc.height = 42;
        dc.disparities = 4;
        apps::AppResult r = apps::runDepth(sys, dc);
        return std::string(r.validated ? "ok:" : "invalid:") +
               r.run.toJson();
    } catch (const SimError &e) {
        return std::string("error:") + e.what();
    }
}

} // namespace

TEST(PredecodeTest, ChaosBitIdentityAcrossEccModes)
{
    // 10 seeds per ECC mode (Secded / Parity / None, cycled run % 3):
    // the micro path funnels SRF writes through the same fault-injector
    // call sequence in the same lane order, so every run - including
    // retry exhaustion and watchdog hangs - must fingerprint
    // identically with predecode on and off.
    constexpr int kRuns = 30;
    SimBatch batch;
    std::vector<std::string> onArm = batch.run(
        kRuns, [](int i) { return chaosFingerprint(i, true); });
    std::vector<std::string> offArm = batch.run(
        kRuns, [](int i) { return chaosFingerprint(i, false); });
    for (int i = 0; i < kRuns; ++i)
        EXPECT_EQ(onArm[static_cast<size_t>(i)],
                  offArm[static_cast<size_t>(i)])
            << "chaos seed " << i << " (ECC mode " << i % 3 << ")";
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

TEST(PredecodeTest, BindCacheLruEviction)
{
    // Cap the bind cache at two kernels and launch three distinct ones:
    // the least-recently-used entry must go, the peak stat must stop at
    // the cap, and a re-launch of the evicted kernel must still produce
    // correct output (it simply rebinds from scratch).
    MachineConfig cfg;
    cfg.clusterBindCacheKernels = 2;
    cfg.predecode = true;
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

TEST(PredecodeTest, BindCacheUncappedKeepsAllKernels)
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
