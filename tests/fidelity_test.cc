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
 * unsafe (fault injection armed, periodic checkpoints, restore).
 *
 *  - a cluster+SRF differential rig over every app/library kernel
 *    family at trip 4096, pinning the measured error to the bound,
 *  - zero-trip and short-loop (trip <= 2048) bit-identity fallbacks,
 *  - a full-system fidelity x predecode matrix,
 *  - faults / periodic checkpoints forcing full fidelity,
 *  - toJson() schema stability across the four applications,
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
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "app_kernels.hh"
#include "sim_test_util.hh"

#include "apps/apps.hh"
#include "sim/runner.hh"
#include "trace/trace.hh"

using namespace imagine;
using namespace imagine::kernelc;
using imagine::testutil::allAppKernels;
using imagine::testutil::ClusterRig;

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

/** The predecode-suite input pattern: bounded values so packed 8/16-bit
 *  kernels see plausible pixels. */
std::vector<std::vector<Word>>
inputsFor(const CompiledKernel &k, uint32_t trip)
{
    std::vector<std::vector<Word>> inputs;
    for (int s = 0; s < k.graph.numInStreams; ++s) {
        std::vector<Word> data(trip *
                               static_cast<uint32_t>(k.graph.inRec[s]) *
                               numClusters);
        for (uint32_t i = 0; i < data.size(); ++i)
            data[i] =
                (i * 37u + static_cast<uint32_t>(s) * 11u) % 251u;
        inputs.push_back(std::move(data));
    }
    return inputs;
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

/** The small DEPTH shape the chaos/trace suites standardize on. */
apps::AppResult
runDepthSmall(ImagineSystem &sys)
{
    apps::DepthConfig dc;
    dc.width = 128;
    dc.height = 42;
    dc.disparities = 4;
    return apps::runDepth(sys, dc);
}

/** Drop the ,"trace":{...} suffix toJson appends when tracing is on. */
std::string
stripTrace(const std::string &s)
{
    size_t i = s.find(",\"trace\":");
    return i == std::string::npos ? s : s.substr(0, i) + "}";
}

/** Drop the ,"fidelity":{...} block (brace-matched: it nests the
 *  per-kernel array). */
std::string
stripFidelity(const std::string &s)
{
    const std::string key = ",\"fidelity\":{";
    size_t i = s.find(key);
    if (i == std::string::npos)
        return s;
    size_t j = i + key.size();
    int depth = 1;
    while (j < s.size() && depth > 0) {
        if (s[j] == '{')
            ++depth;
        else if (s[j] == '}')
            --depth;
        ++j;
    }
    return s.substr(0, i) + s.substr(j);
}

/** out[i] = in[i] + 7, over a loop long enough to fold. */
KernelGraph
warmGraph()
{
    KernelBuilder kb("warmstream");
    int s = kb.addInput();
    int o = kb.addOutput();
    kb.beginLoop();
    kb.write(o, kb.iadd(kb.read(s), kb.immI(7)));
    kb.endLoop();
    return kb.finish();
}

/** One load -> long kernel -> store program (trip 8192 per launch, far
 *  past the 2048 sampling threshold). */
RunResult
runLongLoop(MachineConfig cfg,
            ImagineSystem **keepSys = nullptr,
            std::vector<std::pair<Cycle, std::string>> *snaps = nullptr,
            const fs::path *snapDir = nullptr)
{
    cfg.srfSizeWords = 256 * 1024;
    auto sys = std::make_unique<ImagineSystem>(cfg);
    uint16_t kid = sys->registerKernel(warmGraph());
    const uint32_t trip = 8192;
    const uint32_t n = trip * numClusters;
    std::vector<Word> x(n);
    for (uint32_t i = 0; i < n; ++i)
        x[i] = (i * 37u) % 251u;
    sys->memory().writeWords(0, x);
    if (snaps) {
        sys->setCheckpointHook([=](Cycle c, const std::string &p) {
            std::string dst =
                (*snapDir /
                 ("snap." + std::to_string(snaps->size()) + ".ckpt"))
                    .string();
            fs::rename(p, dst);
            snaps->emplace_back(c, dst);
        });
    }
    auto b = sys->newProgram();
    uint32_t s0 = b.alloc(n), s1 = b.alloc(n);
    int d0 = b.sdr(s0, n), d1 = b.sdr(s1, n);
    b.load(b.marStride(0), d0, -1, "load x");
    b.kernel(kid, {d0}, {d1}, "warm");
    b.store(b.marStride(200000), d1, -1, "store out");
    StreamProgram prog = b.take();
    RunResult r = sys->run(prog);
    if (keepSys)
        *keepSys = sys.release();
    return r;
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
        auto inputs = inputsFor(k, trip);
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
        auto inputs = inputsFor(k, trip);
        FidOutcome ex = driveFidRig(cfg, k, inputs, false);
        FidOutcome sa = driveFidRig(cfg, k, inputs, true);
        EXPECT_TRUE(sa.folds.empty()) << name;
        expectBitIdentical(name.c_str(), sa, ex);
        ++checked;
    }
    EXPECT_EQ(checked, 8);
}

// ---------------------------------------------------------------------
// Full-system: engine-mode matrix, gating, schema
// ---------------------------------------------------------------------

TEST(FidelityTest, EngineModeMatrixLongLoop)
{
    // fidelity x predecode: the two Cycle arms must be byte-identical
    // with no "fidelity" key; the two Sampled arms must be
    // byte-identical to each other (the fold replays through the same
    // value buffers both engines maintain) and within the declared
    // error bound of the Cycle arms.  Each Sampled arm also runs
    // traced: the fold catch-up moves the trace clock every cycle, and
    // tracing must not change what it observes.
    std::vector<std::string> cycleJson, sampledJson;
    uint64_t exactCycles = 0;
    RunResult sampledRes;
    for (bool pd : {true, false}) {
        for (int fi = 0; fi < 2; ++fi) {
            MachineConfig cfg = MachineConfig::devBoard();
            cfg.predecode = pd;
            cfg.fidelity = fi ? Fidelity::Sampled : Fidelity::Cycle;
            RunResult r = runLongLoop(cfg);
            if (!fi) {
                cycleJson.push_back(r.toJson());
                exactCycles = r.cycles;
                continue;
            }
            sampledJson.push_back(r.toJson());
            sampledRes = r;

            cfg.trace = true;
            ImagineSystem *raw = nullptr;
            RunResult traced = runLongLoop(cfg, &raw);
            std::unique_ptr<ImagineSystem> tracedSys(raw);
            // Trace-off output is the exact prefix of trace-on output,
            // up to the closing brace the trace block goes in front of.
            std::string head = sampledJson.back();
            head.pop_back();
            std::string on = traced.toJson();
            EXPECT_EQ(on.compare(0, head.size(), head), 0)
                << "predecode " << pd;
            EXPECT_EQ(on.compare(head.size(), 9, ",\"trace\":"), 0)
                << "predecode " << pd;
            ASSERT_NE(tracedSys->traceSink(), nullptr);
            EXPECT_NE(trace::toPerfettoJson(*tracedSys->traceSink())
                          .find("\"sampled-fold\""),
                      std::string::npos)
                << "predecode " << pd;
        }
    }
    for (const std::string &j : cycleJson) {
        EXPECT_EQ(j, cycleJson[0]);
        EXPECT_EQ(j.find("\"fidelity\""), std::string::npos);
    }
    for (const std::string &j : sampledJson) {
        EXPECT_EQ(j, sampledJson[0]);
        EXPECT_NE(j.find("\"fidelity\":{\"tier\":\"sampled\""),
                  std::string::npos);
    }
    EXPECT_EQ(sampledRes.fidelity, Fidelity::Sampled);
    ASSERT_FALSE(sampledRes.kernelFolds.empty());
    EXPECT_GT(sampledRes.estimatedCycles, 0u);
    double bound = 0.0;
    for (const KernelFoldRecord &kf : sampledRes.kernelFolds)
        bound = std::max(bound, kf.errorBound);
    double err = std::abs(static_cast<double>(sampledRes.cycles) -
                          static_cast<double>(exactCycles)) /
                 static_cast<double>(exactCycles);
    // The whole-run error dilutes the kernel-relative bound (host and
    // memory phases are exact); a half-percent slack absorbs downstream
    // DRAM state shifted by the estimated stall count.
    EXPECT_LE(err, bound + 0.005)
        << "sampled " << sampledRes.cycles << " vs exact "
        << exactCycles;
    EXPECT_LT(err, 0.02);
}

TEST(FidelityTest, FaultsForceFullFidelity)
{
    // An armed fault injector makes folding unsound (fault sites inside
    // the folded window would never fire): a Sampled config must run -
    // and serialize - exactly like the Cycle one.
    auto fingerprint = [](Fidelity f) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.fidelity = f;
        cfg.faults.enabled = true;
        // A seed whose fault pattern recovers (many wedge this small
        // run outright; a wedged run never reaches toJson).
        cfg.faults.seed = 0xf1de0000ull;
        cfg.faults.srfFlipRate = 1e-4;
        cfg.faults.dramFlipRate = 1e-4;
        cfg.faults.ucodeCorruptRate = 0.02;
        cfg.faults.stuckSlotRate = 1e-3;
        cfg.faults.agStallRate = 1e-3;
        cfg.faults.agStallBurstCycles = 32;
        cfg.faults.maxRetries = 3;
        cfg.faults.srfEcc = EccMode::Secded;
        cfg.faults.memEcc = EccMode::Secded;
        cfg.watchdogStagnationCycles = 200'000;
        ImagineSystem sys(cfg);
        apps::AppResult r = runDepthSmall(sys);
        EXPECT_EQ(r.run.fidelity, Fidelity::Cycle);
        return r.run.toJson();
    };
    std::string sampled = fingerprint(Fidelity::Sampled);
    EXPECT_EQ(sampled, fingerprint(Fidelity::Cycle));
    EXPECT_EQ(sampled.find("\"fidelity\""), std::string::npos);
}

TEST(FidelityTest, CheckpointForcesFullFidelity)
{
    // Periodic checkpoints must see the machine state real execution
    // would have produced, so an active checkpointEveryCycles disarms
    // the tier: both arms byte-identical, snapshots written either way.
    fs::path dir = fs::temp_directory_path() / "imagine_fid_ckpt";
    fs::create_directories(dir);
    auto fingerprint = [&](Fidelity f) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.fidelity = f;
        cfg.checkpointEveryCycles = 20'000;
        cfg.checkpointPath =
            (dir / (f == Fidelity::Sampled ? "s.ckpt" : "c.ckpt"))
                .string();
        RunResult r = runLongLoop(cfg);
        EXPECT_EQ(r.fidelity, Fidelity::Cycle);
        EXPECT_EQ(r.estimatedCycles, 0u);
        return r.toJson();
    };
    std::string sampled = fingerprint(Fidelity::Sampled);
    EXPECT_EQ(sampled, fingerprint(Fidelity::Cycle));
    EXPECT_EQ(sampled.find("\"fidelity\""), std::string::npos);
    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(FidelityTest, AppJsonSchemaStability)
{
    // Across all four applications: a Cycle run's JSON must not grow a
    // "fidelity" key (byte-stability with pre-tier consumers), and a
    // Sampled run's JSON must carry the block with the configured
    // fraction - reverting to the exact bytes wherever nothing folded.
    using AppFn = std::function<apps::AppResult(ImagineSystem &)>;
    std::vector<std::pair<const char *, AppFn>> appsList = {
        {"DEPTH", [](ImagineSystem &s) { return runDepthSmall(s); }},
        {"MPEG",
         [](ImagineSystem &s) {
             apps::MpegConfig c;
             c.width = 64;
             c.height = 32;
             c.frames = 3;
             return apps::runMpeg(s, c);
         }},
        {"QRD",
         [](ImagineSystem &s) {
             apps::QrdConfig c;
             c.rows = 64;
             c.cols = 16;
             return apps::runQrd(s, c);
         }},
        {"RTSL",
         [](ImagineSystem &s) {
             apps::RtslConfig c;
             c.screen = 64;
             c.triangles = 256;
             c.batch = 64;
             return apps::runRtsl(s, c);
         }},
    };
    for (auto &[name, run] : appsList) {
        MachineConfig cycleCfg = MachineConfig::devBoard();
        ImagineSystem cycleSys(cycleCfg);
        apps::AppResult rc = run(cycleSys);
        EXPECT_TRUE(rc.validated) << name;
        std::string cycleOut = rc.run.toJson();
        EXPECT_EQ(cycleOut.find("\"fidelity\""), std::string::npos)
            << name;

        MachineConfig sampledCfg = cycleCfg;
        sampledCfg.fidelity = Fidelity::Sampled;
        sampledCfg.sampleLoopFraction = 0.1;
        ImagineSystem sampledSys(sampledCfg);
        apps::AppResult rs = run(sampledSys);
        EXPECT_EQ(rs.run.fidelity, Fidelity::Sampled) << name;
        EXPECT_EQ(rs.run.sampleLoopFraction, 0.1) << name;
        std::string sampledOut = rs.run.toJson();
        EXPECT_NE(
            sampledOut.find("\"fidelity\":{\"tier\":\"sampled\","
                            "\"sampleLoopFraction\":"),
            std::string::npos)
            << name;
        if (rs.run.estimatedCycles == 0) {
            // No launch cleared the sampling threshold: everything ran
            // cycle-accurately, so stripping the block must recover the
            // Cycle bytes exactly.
            EXPECT_TRUE(rs.validated) << name;
            EXPECT_EQ(stripFidelity(sampledOut), cycleOut) << name;
        }
    }
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
    base.trace = true;

    ImagineSystem *aSysRaw = nullptr;
    RunResult a = runLongLoop(base, &aSysRaw);
    std::unique_ptr<ImagineSystem> aSys(aSysRaw);
    Cycle aEnd = aSys->now();
    ASSERT_NE(a.trace, nullptr);

    // Checkpointing arm: archive every boundary (run-relative == the
    // absolute cycle here - single run from cycle 0).
    std::vector<std::pair<Cycle, std::string>> snaps;
    {
        MachineConfig cfg = base;
        cfg.checkpointEveryCycles = std::max<uint64_t>(aEnd / 4, 1000);
        cfg.checkpointPath = (dir / "live.ckpt").string();
        RunResult b = runLongLoop(cfg, nullptr, &snaps, &dir);
        EXPECT_EQ(b.toJson(), a.toJson());
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
    ImagineSystem *cSysRaw = nullptr;
    RunResult c = runLongLoop(cfg, &cSysRaw);
    std::unique_ptr<ImagineSystem> cSys(cSysRaw);
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
    // Rotate machine shape, engine mode, fraction and kernel family so
    // sixteen seeds cover the bandwidth/buffer corners that move the
    // stall rate the estimator extrapolates.
    MachineConfig cfg = bigRigConfig();
    static const int bw[4] = {16, 8, 4, 32};
    static const int sb[2] = {16, 32};
    cfg.srfBandwidthWordsPerCycle = bw[seed % 4];
    cfg.streamBufferWords = sb[(seed / 4) % 2];
    cfg.predecode = (seed % 2) == 0;
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
        auto inputs = inputsFor(k, trip);
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
