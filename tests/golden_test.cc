/**
 * @file
 * Cross-commit golden results.
 *
 * Every other identity test compares two modes of one binary (trace on
 * vs off, straight vs restored), so a change that moves cycles in every
 * mode at once passes all of them.  This test pins an
 * FNV-1a hash of RunResult::toJson() - plus the cycle count, so a
 * failure reads clearly - for a fixed set of runs that together reach
 * every engine path with timing effect: the four apps on both machine
 * presets, DEPTH starved by a 0.5 MIPS host (scoreboard-full and
 * RegRead round trips), chaos seeds across the ECC modes (retry, stuck
 * completion, microcode-load retry), a 30-seed small-DEPTH chaos
 * campaign, small DEPTH on three starved machine shapes,
 * sampled-fidelity folds of the three fold-stress shapes and a mid-run
 * checkpoint restore.
 *
 * A pinned value changes only when simulated behaviour changes on
 * purpose; re-pin it in the same commit and say why.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "apps/apps.hh"
#include "sim/fault.hh"
#include "sim/runner.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

namespace fs = std::filesystem;

namespace
{

uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/** How one golden run ended. */
struct Outcome
{
    std::string text;           ///< toJson(), or the error kind + message
    uint64_t cycles = 0;        ///< run cycles, or session cycles at error
    bool validated = false;
    FaultStats faults;
    size_t kernelFolds = 0;
};

using AppFn = std::function<AppResult(ImagineSystem &)>;

Outcome
runOne(const MachineConfig &cfg, const AppFn &app)
{
    Outcome o;
    ImagineSystem sys(cfg);
    try {
        AppResult r = app(sys);
        o.text = r.run.toJson();
        o.cycles = r.run.cycles;
        o.validated = r.validated;
        o.faults = r.run.faults;
        o.kernelFolds = r.run.kernelFolds.size();
    } catch (const SimError &e) {
        o.text = std::string("error:") + simErrorKindName(e.kind()) + ":" +
                 e.what();
        o.cycles = sys.now();
        if (sys.faultInjector())
            o.faults = sys.faultInjector()->stats();
    }
    return o;
}

AppFn
depth(DepthConfig c = {})
{
    return [c](ImagineSystem &s) { return runDepth(s, c); };
}
AppFn
mpeg(MpegConfig c = {})
{
    return [c](ImagineSystem &s) { return runMpeg(s, c); };
}
AppFn
qrd(QrdConfig c = {})
{
    return [c](ImagineSystem &s) { return runQrd(s, c); };
}
AppFn
rtsl(RtslConfig c = {})
{
    return [c](ImagineSystem &s) { return runRtsl(s, c); };
}

/** The fault plan of the examples' --faults=MODE --seed=N. */
MachineConfig
chaos(uint64_t seed, EccMode ecc)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.faults = FaultPlan::chaos(seed, ecc);
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/** The i-th of 30 small-DEPTH chaos runs, cycling Secded / Parity /
 *  None: the full result JSON on a clean or invalid finish, or the
 *  deterministic error text. */
std::string
chaosDepthFingerprint(int i, uint64_t &cycles)
{
    MachineConfig cfg =
        chaos(0x9de2ull * 1000 + static_cast<uint64_t>(i),
              i % 3 == 0 ? EccMode::Secded
                         : i % 3 == 1 ? EccMode::Parity : EccMode::None);
    ImagineSystem sys(cfg);
    try {
        AppResult r = bench::runSmallApp(sys, "depth");
        cycles += r.run.cycles;
        return std::string(r.validated ? "ok:" : "invalid:") +
               r.run.toJson();
    } catch (const SimError &e) {
        cycles += sys.now();
        return std::string("error:") + e.what();
    }
}

/** All 30 chaos fingerprints concatenated; cycles summed. */
Outcome
chaosDepth30()
{
    Outcome o;
    for (int i = 0; i < 30; ++i)
        o.text += chaosDepthFingerprint(i, o.cycles);
    return o;
}

/** QRD on the dev board, restored from a snapshot taken mid-run. */
Outcome
restoredQrd()
{
    fs::path dir = fs::temp_directory_path() /
                   ("imagine_golden_" + std::to_string(getpid()));
    fs::create_directories(dir);
    std::vector<std::string> snaps;
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.checkpointEveryCycles = 100'000;
        cfg.checkpointPath = (dir / "qrd.ckpt").string();
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            std::string dst =
                (dir / ("snap." + std::to_string(snaps.size()) + ".ckpt"))
                    .string();
            fs::rename(p, dst);
            snaps.push_back(dst);
        });
        runQrd(sys);
    }
    Outcome o;
    if (snaps.empty()) {
        o.text = "no snapshot";
    } else {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.restorePath = snaps[snaps.size() / 2];
        o = runOne(cfg, qrd());
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    return o;
}

struct Case
{
    const char *name;
    std::function<Outcome()> run;
    uint64_t hash;      ///< pinned FNV-1a of the outcome text
    uint64_t cycles;    ///< pinned cycle count
};

std::vector<Case>
cases()
{
    auto on = [](MachineConfig cfg, AppFn app) {
        return [cfg, app] { return runOne(cfg, app); };
    };
    const MachineConfig dev = MachineConfig::devBoard();
    const MachineConfig isim = MachineConfig::isim();
    MachineConfig slowHost = dev;
    slowHost.hostMips = 0.5;
    MachineConfig sampled = dev;
    sampled.srfSizeWords = 4u * 1024 * 1024;
    sampled.fidelity = Fidelity::Sampled;
    QrdConfig tallQrd;
    tallQrd.rows = 65536;
    tallQrd.cols = 16;
    // The fold-stress shapes whose folded kernels overlap DMA, so the
    // fold catch-up ticks memory, SRF and host through live transfers.
    DepthConfig wideDepth;
    wideDepth.width = 49152;
    wideDepth.height = 18;
    MpegConfig wideMpeg;
    wideMpeg.width = 32768;
    wideMpeg.height = 16;
    wideMpeg.frames = 1;
    // Small DEPTH on shapes other than the default: starved SRF
    // bandwidth, slow memory clock, shallow stream buffers.
    AppFn smallDepth = [](ImagineSystem &s) {
        return bench::runSmallApp(s, "depth");
    };
    auto shape = [&dev](int srfBw, int memDiv, int sbWords) {
        MachineConfig cfg = dev;
        cfg.srfBandwidthWordsPerCycle = srfBw;
        cfg.memClockDivider = memDiv;
        cfg.streamBufferWords = sbWords;
        return cfg;
    };

    return {
        {"devBoard.depth", on(dev, depth()),
         0xb22206e3010a473dull, 1427884},
        {"devBoard.mpeg", on(dev, mpeg()),
         0x2e6b681ec7c6d19eull, 1124212},
        {"devBoard.qrd", on(dev, qrd()),
         0x46b419b9f918ecf5ull, 364474},
        {"devBoard.rtsl", on(dev, rtsl()),
         0x0c430c8343c6624cull, 192344},
        {"isim.depth", on(isim, depth()),
         0xafe97a056cd610bfull, 1369834},
        {"isim.mpeg", on(isim, mpeg()),
         0x60845d7746facc4full, 1095144},
        {"isim.qrd", on(isim, qrd()),
         0x34266192345c5532ull, 344154},
        {"isim.rtsl", on(isim, rtsl()),
         0x6ce8bd37f35ad7acull, 178244},
        {"depth.0.5mips", on(slowHost, depth()),
         0x565e10b749dcbd1eull, 3067808},
        {"chaos.secded.qrd", on(chaos(15, EccMode::Secded), qrd()),
         0xb09a0390a63395d1ull, 366922},
        {"chaos.parity.rtsl", on(chaos(13, EccMode::Parity), rtsl()),
         0x9d05cbb7acef53a9ull, 223204},
        {"chaos.none.mpeg", on(chaos(3, EccMode::None), mpeg()),
         0xe319ac361aa90219ull, 1125956},
        {"chaos.parity.depth", on(chaos(2, EccMode::Parity), depth()),
         0xa640b96922bb308eull, 289829},
        {"sampled.qrd65536x16", on(sampled, qrd(tallQrd)),
         0x182445c5aca6f04bull, 5417488},
        {"sampled.depth49152x18", on(sampled, depth(wideDepth)),
         0x3e2cfe0ac682f986ull, 4001638},
        {"sampled.mpeg32768x16x1", on(sampled, mpeg(wideMpeg)),
         0x2dfac876884bf765ull, 2536402},
        {"sweep.srfBw4.memDiv2.sb16",
         on(shape(4, 2, 16), smallDepth),
         0x2ae15c90ed3e1fa1ull, 145222},
        {"sweep.srfBw16.memDiv4.sb16",
         on(shape(16, 4, 16), smallDepth),
         0x20003b1b7ef861b3ull, 145278},
        {"sweep.srfBw8.memDiv3.sb8",
         on(shape(8, 3, 8), smallDepth),
         0x2e952b359bff64faull, 145250},
        {"chaos.depth.30seeds", chaosDepth30,
         0x7838c64e4e808441ull, 5881647},
        {"restored.devBoard.qrd", restoredQrd,
         0x46b419b9f918ecf5ull, 364474},
    };
}

} // namespace

TEST(Golden, RunResultsMatchPinnedHashes)
{
    std::vector<Case> cs = cases();
    SimBatch batch;
    std::vector<Outcome> out = batch.run(
        static_cast<int>(cs.size()),
        [&](int i) { return cs[static_cast<size_t>(i)].run(); });

    std::map<std::string, const Outcome *> byName;
    FaultStats chaosTotal;
    const int ucode = static_cast<int>(FaultSite::UcodeLoad);
    for (size_t i = 0; i < cs.size(); ++i) {
        const Case &c = cs[i];
        const Outcome &o = out[i];
        std::string name = c.name;
        byName[name] = &o;
        EXPECT_EQ(o.cycles, c.cycles) << name;
        EXPECT_EQ(fnv1a(o.text), c.hash)
            << name << " (" << o.text.substr(0, 80) << "...)";
        if (name.rfind("chaos.", 0) == 0) {
            chaosTotal.retries += o.faults.retries;
            chaosTotal.stuckCompletions += o.faults.stuckCompletions;
            chaosTotal.bySite[ucode] += o.faults.bySite[ucode];
        } else if (name.rfind("sampled.", 0) != 0) {
            // Folded regions hold representative data, so only
            // full-fidelity runs are checked against their golden model.
            EXPECT_TRUE(o.validated) << name;
        }
    }
    // The pinned runs must actually reach the paths they stand for.
    EXPECT_GT(chaosTotal.retries, 0u);
    EXPECT_GT(chaosTotal.stuckCompletions, 0u);
    EXPECT_GT(chaosTotal.bySite[ucode], 0u);
    for (const char *name : {"sampled.qrd65536x16", "sampled.depth49152x18",
                             "sampled.mpeg32768x16x1"})
        EXPECT_GT(byName[name]->kernelFolds, 0u) << name;
    // Restore is bit-identical to the straight run it resumes.
    EXPECT_EQ(byName["restored.devBoard.qrd"]->text,
              byName["devBoard.qrd"]->text);
}
