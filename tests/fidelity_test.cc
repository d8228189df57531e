/**
 * @file
 * Tests for the selectable fidelity tier (DESIGN.md section 12).
 *
 * The contract under test: Fidelity::Sampled runs each long kernel
 * loop's prologue, measurement strata and epilogue cycle-accurately and
 * folds the remaining steady-state iterations analytically.  What must
 * stay *exact* under folding: output stream lengths, every op-mix
 * counter (issued/arith/fp/LRF/SP/comm), stream-buffer word counts, SRF
 * words transferred, and the phase cycle split except stalls.  What is
 * *estimated*: stall cycles (and thus total cycles, within the declared
 * per-kernel errorBound) and folded output data.  And the tier must
 * disarm completely - byte-identical RunResult JSON - whenever folding
 * is ineligible (conditional outputs, short loops, zero trips) or
 * unsafe (fault injection armed, periodic checkpoints, restore).  The
 * full-system side of both - the error bound of a fold, the traced
 * Sampled arm, the disarm under faults and checkpoints, and the JSON
 * schema - is arm S of the engine-contract matrix
 * (tests/contract_test.cc).
 *
 *  - a cluster+SRF differential rig over every app/library kernel
 *    family at trip 4096, pinning the measured error to the bound,
 *  - zero-trip and short-loop (trip <= 2048) bit-identity fallbacks,
 *  - trace re-arm after restore: a restored traced run's tail
 *    analytics must match the straight traced run's tail,
 *  - a 16-seed error sweep (the nightly CI gate) writing a report
 *    artifact on violation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app_kernels.hh"
#include "sim_test_util.hh"

#include "sim/runner.hh"
#include "trace/trace.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::allAppKernels;
using imagine::testutil::ClusterRig;
using imagine::testutil::kLongLoopSrfWords;
using imagine::testutil::patternInputs;
using imagine::testutil::runLongLoop;

namespace fs = std::filesystem;

namespace
{

/** A rig config with enough SRF for trip-4096 streams of every family. */
MachineConfig
bigRigConfig()
{
    MachineConfig cfg;
    cfg.srfSizeWords = 8 * 1024 * 1024;
    return cfg;
}

/** Outcome of one rig run, including the fold accounting. */
struct FidOutcome
{
    std::vector<std::vector<Word>> out;
    uint64_t cycles = 0;
    ClusterStats cs;
    SrfStats ss;
    std::vector<KernelFoldRecord> folds;
};

FidOutcome
driveFidRig(const MachineConfig &cfg, const CompiledKernel &k,
            const std::vector<std::vector<Word>> &inputs, bool sampled,
            double fraction = 0.05)
{
    ClusterRig rig(cfg);
    rig.ca.setSampling(sampled, fraction);
    FidOutcome r;
    r.out = rig.run(k, inputs);
    r.cycles = rig.cycles;
    r.cs = rig.ca.stats();
    r.ss = rig.srf.stats();
    r.folds = rig.ca.drainFoldReport();
    return r;
}

/** Does the kernel's loop emit a conditional output (fold-ineligible)? */
bool
loopCondOut(const CompiledKernel &k)
{
    for (const ScheduledOp &s : k.loop.ops)
        if (k.graph.nodes[s.node].op == Opcode::OutCond)
            return true;
    return false;
}

/** Counters that folding must keep exact, whatever the kernel. */
void
expectExactCounters(const char *name, const FidOutcome &sa,
                    const FidOutcome &ex)
{
    EXPECT_EQ(sa.cs.issuedOps, ex.cs.issuedOps) << name;
    EXPECT_EQ(sa.cs.arithOps, ex.cs.arithOps) << name;
    EXPECT_EQ(sa.cs.fpOps, ex.cs.fpOps) << name;
    EXPECT_EQ(sa.cs.lrfReads, ex.cs.lrfReads) << name;
    EXPECT_EQ(sa.cs.lrfWrites, ex.cs.lrfWrites) << name;
    EXPECT_EQ(sa.cs.spAccesses, ex.cs.spAccesses) << name;
    EXPECT_EQ(sa.cs.commWords, ex.cs.commWords) << name;
    EXPECT_EQ(sa.cs.sbReads, ex.cs.sbReads) << name;
    EXPECT_EQ(sa.cs.sbWrites, ex.cs.sbWrites) << name;
    EXPECT_EQ(sa.ss.wordsTransferred, ex.ss.wordsTransferred) << name;
    EXPECT_EQ(sa.cs.prologueCycles, ex.cs.prologueCycles) << name;
    EXPECT_EQ(sa.cs.loopCycles, ex.cs.loopCycles) << name;
    EXPECT_EQ(sa.cs.epilogueCycles, ex.cs.epilogueCycles) << name;
    EXPECT_EQ(sa.cs.primingCycles, ex.cs.primingCycles) << name;
    ASSERT_EQ(sa.out.size(), ex.out.size()) << name;
    for (size_t s = 0; s < sa.out.size(); ++s)
        EXPECT_EQ(sa.out[s].size(), ex.out[s].size())
            << name << " stream " << s;
}

/** Everything, bit for bit (the disarmed-tier contract). */
void
expectBitIdentical(const char *name, const FidOutcome &sa,
                   const FidOutcome &ex)
{
    expectExactCounters(name, sa, ex);
    EXPECT_EQ(sa.out, ex.out) << name;
    EXPECT_EQ(sa.cycles, ex.cycles) << name;
    EXPECT_EQ(sa.cs.stallCycles, ex.cs.stallCycles) << name;
    EXPECT_EQ(sa.cs.busyTotal(), ex.cs.busyTotal()) << name;
    EXPECT_EQ(sa.ss.busyCycles, ex.ss.busyCycles) << name;
}

/** Relative cycle error of the sampled arm. */
double
cycleError(const FidOutcome &sa, const FidOutcome &ex)
{
    double d = std::abs(static_cast<double>(sa.cycles) -
                        static_cast<double>(ex.cycles));
    return d / static_cast<double>(std::max<uint64_t>(ex.cycles, 1));
}

/** Drop the ,"trace":{...} suffix toJson appends when tracing is on. */
std::string
stripTrace(const std::string &s)
{
    size_t i = s.find(",\"trace\":");
    return i == std::string::npos ? s : s.substr(0, i) + "}";
}

} // namespace

// ---------------------------------------------------------------------
// Differential rig over every kernel family
// ---------------------------------------------------------------------

TEST(FidelityTest, SampledRigDifferentialEveryAppKernel)
{
    // Every family at trip 4096: fold-eligible kernels must land within
    // their own declared error bound (and the bound itself under the 2%
    // target); conditional-output kernels must not fold at all and stay
    // bit-identical.
    MachineConfig cfg = bigRigConfig();
    const uint32_t trip = 4096;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        auto inputs = patternInputs(k, trip);
        FidOutcome ex = driveFidRig(cfg, k, inputs, false);
        FidOutcome sa = driveFidRig(cfg, k, inputs, true);
        expectExactCounters(name.c_str(), sa, ex);
        if (loopCondOut(k)) {
            EXPECT_TRUE(sa.folds.empty()) << name;
            expectBitIdentical(name.c_str(), sa, ex);
            continue;
        }
        ASSERT_FALSE(sa.folds.empty()) << name;
        uint64_t foldedIters = 0;
        double bound = 0.0;
        for (const KernelFoldRecord &r : sa.folds) {
            // Fold records carry the kernel's internal (lowercase)
            // name, not the test label.
            EXPECT_FALSE(r.name.empty()) << name;
            EXPECT_GE(r.launches, 1u) << name;
            foldedIters += r.foldedIters;
            bound = std::max(bound, r.errorBound);
        }
        // The plan folds everything outside the three measurement
        // strata: the bulk of a 4096-trip loop.
        EXPECT_GT(foldedIters, trip / 2) << name;
        EXPECT_GT(bound, 0.0) << name;
        EXPECT_LT(bound, 0.02) << name;     // the ISSUE's 2% target
        EXPECT_LE(cycleError(sa, ex), bound + 1e-9)
            << name << ": sampled " << sa.cycles << " vs exact "
            << ex.cycles << " exceeds declared bound " << bound;
    }
}

TEST(FidelityTest, ZeroTripSampledBitIdentical)
{
    // Zero-length launches never reach the loop; arming the tier must
    // change nothing.
    MachineConfig cfg;
    for (auto &[name, graph] : allAppKernels()) {
        CompiledKernel k = compile(std::move(graph), cfg);
        std::vector<std::vector<Word>> inputs(
            static_cast<size_t>(k.graph.numInStreams));
        FidOutcome ex = driveFidRig(cfg, k, inputs, false);
        FidOutcome sa = driveFidRig(cfg, k, inputs, true);
        EXPECT_TRUE(sa.folds.empty()) << name;
        expectBitIdentical(name.c_str(), sa, ex);
    }
}

TEST(FidelityTest, ShortLoopFallbackBitIdentical)
{
    // Trips at the threshold (2048) must run at full fidelity: the
    // strata cannot amortize, so the plan stays empty and the run is
    // bit-identical, data included.
    MachineConfig cfg = bigRigConfig();
    const uint32_t trip = 2048;
    int checked = 0;
    for (auto &[name, graph] : allAppKernels()) {
        // A representative spread, not all 34: conv, DCT, comm-heavy,
        // SP-heavy, accumulator and microbench families.
        if (name != "conv7x7" && name != "dct8x8" &&
            name != "commSort32" && name != "blockSad7x7" &&
            name != "panelDot" && name != "srfCopy" &&
            name != "gromacsForce" && name != "peakOps")
            continue;
        CompiledKernel k = compile(std::move(graph), cfg);
        auto inputs = patternInputs(k, trip);
        FidOutcome ex = driveFidRig(cfg, k, inputs, false);
        FidOutcome sa = driveFidRig(cfg, k, inputs, true);
        EXPECT_TRUE(sa.folds.empty()) << name;
        expectBitIdentical(name.c_str(), sa, ex);
        ++checked;
    }
    EXPECT_EQ(checked, 8);
}

// ---------------------------------------------------------------------
// Trace re-arm after restore
// ---------------------------------------------------------------------

TEST(FidelityTest, RestoreRearmsTraceTailAnalytics)
{
    // Restoring a snapshot into a traced session must re-lease every
    // trace track and reopen in-flight spans: the restored run must (a)
    // not perturb the simulation and (b) produce tail analytics over
    // [snapshot, end) that match the straight traced run's same window.
    fs::path dir = fs::temp_directory_path() / "imagine_fid_trace";
    fs::create_directories(dir);

    MachineConfig base = MachineConfig::devBoard();
    base.srfSizeWords = kLongLoopSrfWords;
    base.trace = true;

    auto aSys = std::make_unique<ImagineSystem>(base);
    RunResult a = runLongLoop(*aSys).run;
    Cycle aEnd = aSys->now();
    ASSERT_NE(a.trace, nullptr);

    // Checkpointing arm: archive every boundary (run-relative == the
    // absolute cycle here - single run from cycle 0).
    std::vector<std::pair<Cycle, std::string>> snaps;
    {
        MachineConfig cfg = base;
        cfg.checkpointEveryCycles = std::max<uint64_t>(aEnd / 4, 1000);
        cfg.checkpointPath = (dir / "live.ckpt").string();
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle c, const std::string &p) {
            std::string dst =
                (dir / ("snap." + std::to_string(snaps.size()) + ".ckpt"))
                    .string();
            fs::rename(p, dst);
            snaps.emplace_back(c, dst);
        });
        EXPECT_EQ(runLongLoop(sys).run.toJson(), a.toJson());
    }
    // aEnd is a multiple of the interval, so the last snapshot lands on
    // the final cycle with an empty tail; restore from the middle one
    // of the interior snapshots.
    ASSERT_GE(snaps.size(), 3u);
    ASSERT_EQ(snaps.back().first, aEnd);
    auto &[snapCycle, snapPath] = snaps[(snaps.size() - 2) / 2];

    // Restored arm, trace still on: before the re-arm fix the sink came
    // back with null hooks and an empty tail.
    MachineConfig cfg = base;
    cfg.restorePath = snapPath;
    auto cSys = std::make_unique<ImagineSystem>(cfg);
    RunResult c = runLongLoop(*cSys).run;
    EXPECT_EQ(cSys->now(), aEnd);
    EXPECT_EQ(stripTrace(c.toJson()), stripTrace(a.toJson()));
    ASSERT_NE(c.trace, nullptr);
    ASSERT_NE(cSys->traceSink(), nullptr);
    EXPECT_GT(cSys->traceSink()->eventCount(), 0u);

    auto tailA = trace::analyze(*aSys->traceSink(), snapCycle, aEnd);
    auto tailC = trace::analyze(*cSys->traceSink(), snapCycle,
                                cSys->now());
    // Window-clipped quantities are exact: phase coverage, the restored
    // kernel span, host sends.  Word totals ride on whole grant/AG
    // bursts, so a burst straddling the snapshot boundary may count
    // fully on one side only - allow 2%.
    EXPECT_EQ(tailC->clusterBusyCycles, tailA->clusterBusyCycles);
    EXPECT_EQ(tailC->kernelLaunches, tailA->kernelLaunches);
    EXPECT_EQ(tailC->hostInstrs, tailA->hostInstrs);
    EXPECT_GT(tailC->clusterBusyCycles, 0u);
    auto near = [](uint64_t x, uint64_t y) {
        double a1 = static_cast<double>(x), b1 = static_cast<double>(y);
        return std::abs(a1 - b1) <=
               0.02 * std::max({a1, b1, 50.0});
    };
    // srfWords sums the FULL payload of every overlapping span, and an
    // SRF grant span can cover a whole stream transfer at a non-uniform
    // rate: the straight run's tail includes the pre-snapshot part of
    // straddling spans, which the restored run's trace (started at the
    // snapshot) cannot contain.  The totals therefore only bound each
    // other; exact word equality over the whole run is already covered
    // by the JSON comparison above.  AG spans are per stream op and
    // short, so memWords stays tightly comparable.
    EXPECT_GT(tailC->srfWords, 0u);
    EXPECT_LE(tailC->srfWords, tailA->srfWords);
    EXPECT_TRUE(near(tailC->memWords, tailA->memWords))
        << tailC->memWords << " vs " << tailA->memWords;

    std::error_code ec;
    fs::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// 16-seed error sweep (the nightly CI gate)
// ---------------------------------------------------------------------

namespace
{

/** One sweep seed's outcome, for the violation report artifact. */
struct SweepOutcome
{
    bool ok = true;
    std::string kernel;
    uint64_t exactCycles = 0, sampledCycles = 0;
    double error = 0.0, bound = 0.0;
    std::string msg;
};

SweepOutcome
sweepSeed(int seed)
{
    // Rotate machine shape, fraction and kernel family so
    // sixteen seeds cover the bandwidth/buffer corners that move the
    // stall rate the estimator extrapolates.
    MachineConfig cfg = bigRigConfig();
    static const int bw[4] = {16, 8, 4, 32};
    static const int sb[2] = {16, 32};
    cfg.srfBandwidthWordsPerCycle = bw[seed % 4];
    cfg.streamBufferWords = sb[(seed / 4) % 2];
    static const char *fams[4] = {"conv7x7", "dct8x8", "panelAxpy",
                                  "srfCopy"};
    const std::string want = fams[(seed / 2) % 4];
    const double fraction = seed % 3 == 0 ? 0.02 : 0.05;
    const uint32_t trip = 4096 + static_cast<uint32_t>(seed) * 128;

    SweepOutcome o;
    o.kernel = want + "/bw" + std::to_string(bw[seed % 4]) + "/sb" +
               std::to_string(sb[(seed / 4) % 2]) + "/trip" +
               std::to_string(trip);
    for (auto &[name, graph] : allAppKernels()) {
        if (name != want)
            continue;
        CompiledKernel k = compile(std::move(graph), cfg);
        auto inputs = patternInputs(k, trip);
        FidOutcome ex = driveFidRig(cfg, k, inputs, false);
        FidOutcome sa = driveFidRig(cfg, k, inputs, true, fraction);
        o.exactCycles = ex.cycles;
        o.sampledCycles = sa.cycles;
        o.error = cycleError(sa, ex);
        for (const KernelFoldRecord &r : sa.folds)
            o.bound = std::max(o.bound, r.errorBound);
        if (sa.folds.empty()) {
            o.ok = false;
            o.msg = "no fold engaged";
        } else if (o.error > 0.02) {
            o.ok = false;
            o.msg = "cycle error above the 2% gate";
        } else if (o.error > o.bound + 1e-9) {
            o.ok = false;
            o.msg = "error exceeds the declared bound";
        }
        return o;
    }
    o.ok = false;
    o.msg = "kernel family not found";
    return o;
}

} // namespace

TEST(FidelityTest, SixteenSeedErrorSweep)
{
    constexpr int kSeeds = 16;
    SimBatch batch;
    std::vector<Settled<SweepOutcome>> settled = batch.runSettled(
        kSeeds, [](int i) { return sweepSeed(i); });
    ASSERT_EQ(batch.failures(), 0u);

    bool allOk = true;
    std::string report = "[";
    for (int i = 0; i < kSeeds; ++i) {
        const SweepOutcome &o = *settled[static_cast<size_t>(i)].value;
        allOk = allOk && o.ok;
        report += std::string(i ? "," : "") + "{\"seed\":" +
                  std::to_string(i) + ",\"case\":\"" + o.kernel +
                  "\",\"exact\":" + std::to_string(o.exactCycles) +
                  ",\"sampled\":" + std::to_string(o.sampledCycles) +
                  ",\"error\":" + std::to_string(o.error) +
                  ",\"bound\":" + std::to_string(o.bound) +
                  ",\"ok\":" + (o.ok ? "true" : "false") +
                  ",\"msg\":\"" + o.msg + "\"}";
    }
    report += "]";

    if (!allOk) {
        // The nightly workflow uploads this as a build artifact.
        const char *path = std::getenv("IMAGINE_FIDELITY_REPORT");
        std::ofstream f(path ? path : "fidelity_error_report.json");
        f << report << "\n";
    }
    for (int i = 0; i < kSeeds; ++i) {
        const SweepOutcome &o = *settled[static_cast<size_t>(i)].value;
        EXPECT_TRUE(o.ok) << "seed " << i << " (" << o.kernel
                          << "): " << o.msg << " error=" << o.error
                          << " bound=" << o.bound;
    }
}
