/**
 * @file
 * Checkpoint/restore tests.
 *
 * The load-bearing property is the differential: for every app, across
 * machine shapes and chaos seeds, (a) a run that writes
 * periodic checkpoints produces a RunResult byte-identical to a
 * straight run, and (b) a fresh session restored from a mid-run
 * snapshot finishes with the same byte-identical RunResult - including
 * runs that end in a SimError, which must re-raise the same kind and
 * message.  Plus: serializer primitives round-trip, mismatched restores
 * are rejected, and the bisect search pinpoints an injected fault's
 * divergence interval deterministically (cross-checked against a
 * linear scan).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "ckpt/bisect.hh"
#include "ckpt/serializer.hh"
#include "sim/runner.hh"

using namespace imagine;
using namespace imagine::apps;

namespace fs = std::filesystem;

namespace
{

constexpr int kSeedsPerApp = 24;

/**
 * Machine shape and fault plan for one differential seed: three shapes
 * (dev board, isim, dev board with a single-entry bind cache to force
 * rebinds across restore), chaos-style faults with the ECC mode cycled.
 */
MachineConfig
shapeFor(int seed)
{
    MachineConfig cfg;
    switch (seed % 3) {
      case 0:
        cfg = MachineConfig::devBoard();
        break;
      case 1:
        cfg = MachineConfig::isim();
        break;
      default:
        cfg = MachineConfig::devBoard();
        cfg.clusterBindCacheKernels = 1;
        break;
    }
    cfg.faults.enabled = true;
    cfg.faults.seed = 0x5eed7ull * 1000 + static_cast<uint64_t>(seed);
    cfg.faults.srfFlipRate = 1e-4;
    cfg.faults.dramFlipRate = 1e-4;
    cfg.faults.ucodeCorruptRate = 0.02;
    cfg.faults.stuckSlotRate = 1e-3;
    cfg.faults.agStallRate = 1e-3;
    cfg.faults.agStallBurstCycles = 32;
    cfg.faults.maxRetries = 3;
    cfg.faults.srfEcc =
        seed % 3 == 0 ? EccMode::Secded
                      : (seed % 3 == 1 ? EccMode::Parity : EccMode::None);
    cfg.faults.memEcc = cfg.faults.srfEcc;
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/** Data-only job outcome (gtest asserts are not thread-safe). */
struct DiffOutcome
{
    bool ok = true;
    std::string msg;
};

/** How one run ended: its JSON on success, the error otherwise. */
struct RunEnd
{
    bool errored = false;
    SimErrorKind kind = SimErrorKind::Hang;
    std::string what;
    std::string json;
};

template <typename RunApp>
RunEnd
endOf(const RunApp &runApp, ImagineSystem &sys)
{
    RunEnd e;
    try {
        e.json = runApp(sys).run.toJson();
    } catch (const SimError &err) {
        e.errored = true;
        e.kind = err.kind();
        e.what = err.what();
    }
    return e;
}

/** Straight run vs checkpointing run vs restored run, one seed. */
template <typename RunApp>
DiffOutcome
diffRun(const char *app, const RunApp &runApp, int seed)
{
    auto fail = [&](const std::string &why) {
        return DiffOutcome{false, std::string(app) + " seed " +
                                      std::to_string(seed) + ": " + why};
    };
    fs::path dir = fs::temp_directory_path() /
                   ("imagine_ckpt_" + std::string(app) + "_" +
                    std::to_string(seed));
    fs::create_directories(dir);

    // A: the reference run, no checkpoint machinery at all.
    RunEnd a;
    uint64_t endCycles = 0;
    {
        ImagineSystem sys(shapeFor(seed));
        a = endOf(runApp, sys);
        endCycles = sys.now();
    }
    uint64_t k = endCycles / 5;
    if (k == 0)
        k = 50'000;

    // B: identical run but snapshotting every k cycles, each boundary
    // archived through the checkpoint hook.
    std::vector<std::string> snaps;
    {
        MachineConfig cfg = shapeFor(seed);
        cfg.checkpointEveryCycles = k;
        cfg.checkpointPath = (dir / "b.ckpt").string();
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            std::string dst =
                (dir / ("snap." + std::to_string(snaps.size()) + ".ckpt"))
                    .string();
            fs::rename(p, dst);
            snaps.push_back(dst);
        });
        RunEnd b = endOf(runApp, sys);
        if (b.errored != a.errored)
            return fail("checkpointing changed the outcome");
        if (a.errored && (b.kind != a.kind || b.what != a.what))
            return fail("checkpointing changed the error");
        if (!a.errored && b.json != a.json)
            return fail("checkpointing perturbed the RunResult");
        if (a.errored && !fs::exists(cfg.checkpointPath + ".crash"))
            return fail("errored run left no crash snapshot");
    }

    // C: fresh session restored from a mid-run snapshot must converge
    // to the same end state.
    if (!snaps.empty()) {
        MachineConfig cfg = shapeFor(seed);
        cfg.restorePath = snaps[snaps.size() / 2];
        ImagineSystem sys(cfg);
        RunEnd c = endOf(runApp, sys);
        if (c.errored != a.errored)
            return fail("restore changed the outcome");
        if (a.errored && (c.kind != a.kind || c.what != a.what))
            return fail("restore changed the error");
        if (!a.errored && c.json != a.json)
            return fail("restored run diverged from the straight run");
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    return {};
}

template <typename RunApp>
void
differential(const char *app, const RunApp &runApp)
{
    SimBatch batch;
    std::vector<Settled<DiffOutcome>> settled = batch.runSettled(
        kSeedsPerApp, [&](int i) { return diffRun(app, runApp, i); });
    ASSERT_EQ(batch.failures(), 0u) << app;
    for (int i = 0; i < kSeedsPerApp; ++i) {
        const DiffOutcome &o = *settled[static_cast<size_t>(i)].value;
        EXPECT_TRUE(o.ok) << o.msg;
    }
}

} // namespace

TEST(CkptTest, SerializerPrimitivesRoundTrip)
{
    ckpt::Serializer s;
    s.section("alpha");
    s.u8(0xab);
    s.u16(0xcdef);
    s.u32(0x12345678u);
    s.u64(0x1122334455667788ull);
    s.i32(-42);
    s.i64(-1'000'000'000'000ll);
    s.b(true);
    s.f64(3.14159);
    s.str("imagine");
    std::vector<uint32_t> v = {1, 2, 3, 5, 8};
    s.vec(v);
    s.section("beta");
    s.u32(7);

    ckpt::Deserializer d(s.finish());
    EXPECT_EQ(d.version(), ckpt::kVersion);
    EXPECT_TRUE(d.hasSection("alpha"));
    EXPECT_TRUE(d.hasSection("beta"));
    EXPECT_FALSE(d.hasSection("gamma"));
    // Out-of-order access: sections are random-access by name.
    d.section("beta");
    EXPECT_EQ(d.u32(), 7u);
    d.section("alpha");
    EXPECT_EQ(d.u8(), 0xab);
    EXPECT_EQ(d.u16(), 0xcdef);
    EXPECT_EQ(d.u32(), 0x12345678u);
    EXPECT_EQ(d.u64(), 0x1122334455667788ull);
    EXPECT_EQ(d.i32(), -42);
    EXPECT_EQ(d.i64(), -1'000'000'000'000ll);
    EXPECT_TRUE(d.b());
    EXPECT_EQ(d.f64(), 3.14159);
    EXPECT_EQ(d.str(), "imagine");
    EXPECT_EQ(d.vec<uint32_t>(), v);
    // Reading past the section end is a checked failure, not garbage.
    EXPECT_THROW(d.u64(), SimError);
}

TEST(CkptTest, TruncatedOrCorruptImageIsRejected)
{
    ckpt::Serializer s;
    s.section("x");
    s.u64(1);
    std::vector<uint8_t> image = s.finish();

    std::vector<uint8_t> truncated(image.begin(), image.end() - 3);
    EXPECT_THROW(ckpt::Deserializer bad(std::move(truncated)), SimError);

    std::vector<uint8_t> wrongMagic = image;
    wrongMagic[0] ^= 0xff;
    EXPECT_THROW(ckpt::Deserializer bad(std::move(wrongMagic)), SimError);

    // An image from another format version (the word after the magic)
    // is rejected up front, naming both versions.
    std::vector<uint8_t> wrongVersion = image;
    uint32_t older = ckpt::kVersion - 1;
    std::memcpy(wrongVersion.data() + sizeof(uint32_t), &older,
                sizeof(older));
    try {
        ckpt::Deserializer bad(std::move(wrongVersion));
        ADD_FAILURE() << "wrong-version image was accepted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
        EXPECT_NE(std::string(e.what()).find("format version"),
                  std::string::npos)
            << e.what();
    }
}

TEST(CkptTest, MismatchedRestoreIsRejected)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_mismatch";
    fs::create_directories(dir);
    std::string snap = (dir / "snap.ckpt").string();

    // Snapshot a qrd run on the dev board...
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.checkpointEveryCycles = 5'000;
        cfg.checkpointPath = (dir / "live.ckpt").string();
        ImagineSystem sys(cfg);
        bool got = false;
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            if (!got)
                fs::rename(p, snap);
            got = true;
        });
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        runQrd(sys, qc);
        ASSERT_TRUE(got);
    }
    // ...then try to restore it onto a different machine shape: the
    // config fingerprint must reject it.
    {
        MachineConfig cfg = MachineConfig::isim();
        cfg.restorePath = snap;
        ImagineSystem sys(cfg);
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        try {
            runQrd(sys, qc);
            FAIL() << "mismatched restore was not rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
            EXPECT_NE(std::string(e.what()).find("fingerprint"),
                      std::string::npos);
        }
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
}

namespace
{

/** toJson() with any trailing ,"trace":... analytics stripped. */
std::string
stripTrace(const std::string &json)
{
    size_t p = json.find(",\"trace\":");
    return p == std::string::npos ? json : json.substr(0, p) + "}";
}

/**
 * Run qrd 64x16 with periodic checkpoints and archive the snapshots;
 * returns the run's JSON and fills @p snaps.
 */
std::string
archiveQrd(MachineConfig cfg, const fs::path &dir, const char *side,
           std::vector<std::string> &snaps)
{
    cfg.checkpointEveryCycles = 5'000;
    cfg.checkpointPath = (dir / (std::string(side) + ".ckpt")).string();
    ImagineSystem sys(cfg);
    sys.setCheckpointHook([&](Cycle, const std::string &p) {
        std::string dst = (dir / (std::string(side) + "." +
                                  std::to_string(snaps.size()) + ".ckpt"))
                              .string();
        fs::copy_file(p, dst, fs::copy_options::overwrite_existing);
        snaps.push_back(dst);
    });
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    return runQrd(sys, qc).run.toJson();
}

std::string
restoredQrdJson(MachineConfig cfg, const std::string &snap,
                bool *traced = nullptr)
{
    cfg.restorePath = snap;
    ImagineSystem sys(cfg);
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    AppResult r = runQrd(sys, qc);
    if (traced)
        *traced = r.run.trace != nullptr;
    return r.run.toJson();
}

} // namespace

/**
 * PR 6 leftover: restore must honor the *restoring* run's trace knobs.
 * The headline use is fast-forwarding an untraced run to a region of
 * interest, then restoring with cfg.trace on so the ~27% tracer
 * overhead is paid only over the tail.  Before the name-matched stats
 * transfer this panicked with a registry-shape mismatch (74 vs 86
 * stats); this is the regression test for both mismatch directions.
 */
TEST(CkptTest, RestoreHonorsRestoringRunsTraceKnobs)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_rearm";
    fs::create_directories(dir);

    // Reference: straight untraced run (its JSON is the golden bytes).
    std::string golden;
    {
        ImagineSystem sys(MachineConfig::devBoard());
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        golden = runQrd(sys, qc).run.toJson();
    }

    // Untraced checkpointing run -> restore WITH tracing: the restored
    // run must complete, attach trace analytics covering the tail, and
    // agree byte-for-byte with the golden run outside the trace object.
    std::vector<std::string> plainSnaps;
    archiveQrd(MachineConfig::devBoard(), dir, "plain", plainSnaps);
    ASSERT_GE(plainSnaps.size(), 2u);
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.trace = true;
        bool traced = false;
        std::string json = restoredQrdJson(
            cfg, plainSnaps[plainSnaps.size() / 2], &traced);
        EXPECT_TRUE(traced) << "restoring run's trace knob was dropped";
        EXPECT_NE(json.find("\"trace\":"), std::string::npos);
        EXPECT_EQ(stripTrace(json), golden);
    }

    // Traced checkpointing run -> restore WITHOUT tracing: the extra
    // trace.* stats in the file must be dropped by name, yielding the
    // golden bytes exactly.
    {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.trace = true;
        std::vector<std::string> tracedSnaps;
        archiveQrd(cfg, dir, "traced", tracedSnaps);
        ASSERT_GE(tracedSnaps.size(), 2u);
        std::string json = restoredQrdJson(
            MachineConfig::devBoard(),
            tracedSnaps[tracedSnaps.size() / 2]);
        EXPECT_EQ(json, golden);
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
}

TEST(CkptTest, DifferentialDepth)
{
    differential("depth", [](ImagineSystem &sys) {
        DepthConfig cfg;
        cfg.width = 128;
        cfg.height = 42;
        cfg.disparities = 4;
        return runDepth(sys, cfg);
    });
}

TEST(CkptTest, DifferentialMpeg)
{
    differential("mpeg", [](ImagineSystem &sys) {
        MpegConfig cfg;
        cfg.width = 64;
        cfg.height = 32;
        cfg.frames = 3;
        return runMpeg(sys, cfg);
    });
}

TEST(CkptTest, DifferentialQrd)
{
    differential("qrd", [](ImagineSystem &sys) {
        QrdConfig cfg;
        cfg.rows = 64;
        cfg.cols = 16;
        return runQrd(sys, cfg);
    });
}

TEST(CkptTest, DifferentialRtsl)
{
    differential("rtsl", [](ImagineSystem &sys) {
        RtslConfig cfg;
        cfg.screen = 64;
        cfg.triangles = 256;
        cfg.batch = 64;
        return runRtsl(sys, cfg);
    });
}

TEST(CkptTest, BisectPinpointsInjectedFaultDeterministically)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_bisect";
    fs::create_directories(dir);
    constexpr uint64_t kEvery = 5'000;

    // Fault plan matching chaos seed 2 (EccMode::None: corruption
    // flows straight into architectural state).
    MachineConfig faulty = MachineConfig::devBoard();
    faulty.faults.enabled = true;
    faulty.faults.seed = 0xc4a05ull * 1000 + 2;
    faulty.faults.srfFlipRate = 1e-4;
    faulty.faults.dramFlipRate = 1e-4;
    faulty.faults.ucodeCorruptRate = 0.05;
    faulty.faults.stuckSlotRate = 1e-3;
    faulty.faults.agStallRate = 1e-3;
    faulty.faults.agStallBurstCycles = 32;
    faulty.faults.maxRetries = 3;
    faulty.faults.srfEcc = EccMode::None;
    faulty.faults.memEcc = EccMode::None;
    faulty.watchdogStagnationCycles = 200'000;
    faulty.checkpointEveryCycles = kEvery;
    MachineConfig clean = faulty;
    clean.faults.enabled = false;

    auto archive = [&](MachineConfig cfg, const char *side) {
        cfg.checkpointPath = (dir / (std::string(side) + ".ckpt")).string();
        std::vector<std::string> snaps;
        ImagineSystem sys(cfg);
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            std::string dst = (dir / (std::string(side) + "." +
                                      std::to_string(snaps.size()) +
                                      ".ckpt"))
                                  .string();
            fs::rename(p, dst);
            snaps.push_back(dst);
        });
        QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        try {
            runQrd(sys, qc);
        } catch (const SimError &) {
            // A crashing faulty run still leaves its archive.
        }
        return snaps;
    };
    std::vector<std::string> cleanSnaps = archive(clean, "clean");
    std::vector<std::string> faultySnaps = archive(faulty, "faulty");
    ASSERT_FALSE(cleanSnaps.empty());
    ASSERT_FALSE(faultySnaps.empty());

    ckpt::BisectResult r1 =
        ckpt::bisectDivergence(cleanSnaps, faultySnaps, kEvery);
    ckpt::BisectResult r2 =
        ckpt::bisectDivergence(cleanSnaps, faultySnaps, kEvery);
    ASSERT_TRUE(r1.diverged);
    EXPECT_EQ(r1.interval, r2.interval);
    EXPECT_EQ(r1.component, r2.component);
    EXPECT_EQ(r1.cycle, r1.interval * kEvery);
    EXPECT_FALSE(r1.component.empty());

    // Cross-check the binary search against a linear scan: the
    // reported interval must be the FIRST divergent boundary.
    uint64_t n = std::min(cleanSnaps.size(), faultySnaps.size());
    uint64_t first = 0;
    for (uint64_t i = 1; i <= n && first == 0; ++i)
        if (ckpt::compareCheckpoints(cleanSnaps[i - 1],
                                     faultySnaps[i - 1])
                .differ)
            first = i;
    if (first == 0)
        first = faultySnaps.size() + 1;    // diverged by ending early
    EXPECT_EQ(r1.interval, first);

    std::error_code ec;
    fs::remove_all(dir, ec);
}
