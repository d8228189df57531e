/**
 * @file
 * Checkpoint/restore tests.
 *
 * The load-bearing property - a checkpointing run and a run restored
 * from a mid-run snapshot both end byte-identical to a straight run,
 * SimErrors included - is arms K and R of the engine-contract matrix
 * (tests/contract_test.cc), across every app, machine shape and chaos
 * seed there.  Here: serializer primitives round-trip, corrupt,
 * oversized and mismatched restores are rejected, restore honors the
 * restoring run's trace knobs, and the bisect search pinpoints an
 * injected fault's divergence interval deterministically (cross-checked
 * against a linear scan).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "ckpt/bisect.hh"
#include "ckpt/serializer.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

namespace fs = std::filesystem;

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
        bench::runSmallApp(sys, "qrd");
        ASSERT_TRUE(got);
    }
    // ...then try to restore it onto a different machine shape: the
    // config fingerprint must reject it.
    {
        MachineConfig cfg = MachineConfig::isim();
        cfg.restorePath = snap;
        ImagineSystem sys(cfg);
        try {
            bench::runSmallApp(sys, "qrd");
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

TEST(CkptTest, OversizedCountIsRejectedBeforeAllocating)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_oversized";
    fs::create_directories(dir);
    std::string snap = (dir / "snap.ckpt").string();
    MachineConfig cfg = MachineConfig::devBoard();
    {
        MachineConfig live = cfg;
        live.checkpointEveryCycles = 5'000;
        live.checkpointPath = (dir / "live.ckpt").string();
        ImagineSystem sys(live);
        bool got = false;
        sys.setCheckpointHook([&](Cycle, const std::string &p) {
            if (!got)
                fs::rename(p, snap);
            got = true;
        });
        bench::runSmallApp(sys, "qrd");
        ASSERT_TRUE(got);
    }
    // The "mem" section opens with the AG count.  A count whose AGs
    // cannot fit the section must fail at the count, with the same
    // structured error vec() gives, not size an allocation from it.
    for (uint64_t count : {uint64_t(1) << 24, uint64_t(1) << 40}) {
        ckpt::Serializer s;
        bool patched = false;
        for (ckpt::RawSection &sec : ckpt::readSections(snap)) {
            if (sec.name == "mem") {
                ASSERT_GE(sec.payload.size(), sizeof(count));
                std::memcpy(sec.payload.data(), &count, sizeof(count));
                patched = true;
            }
            s.section(sec.name);
            s.bytes(sec.payload.data(), sec.payload.size());
        }
        ASSERT_TRUE(patched);
        std::string bad = (dir / "bad.ckpt").string();
        s.writeFile(bad);
        MachineConfig restore = cfg;
        restore.restorePath = bad;
        ImagineSystem sys(restore);
        try {
            bench::runSmallApp(sys, "qrd");
            ADD_FAILURE() << "AG count " << count << " was accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Fatal);
            EXPECT_NE(std::string(e.what()).find(
                          "oversized count in section \"mem\""),
                      std::string::npos)
                << e.what();
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
    return bench::runSmallApp(sys, "qrd").run.toJson();
}

std::string
restoredQrdJson(MachineConfig cfg, const std::string &snap,
                bool *traced = nullptr)
{
    cfg.restorePath = snap;
    ImagineSystem sys(cfg);
    AppResult r = bench::runSmallApp(sys, "qrd");
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
        golden = bench::runSmallApp(sys, "qrd").run.toJson();
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

TEST(CkptTest, BisectPinpointsInjectedFaultDeterministically)
{
    fs::path dir = fs::temp_directory_path() / "imagine_ckpt_bisect";
    fs::create_directories(dir);
    constexpr uint64_t kEvery = 5'000;

    // Chaos seed 2 (EccMode::None: corruption flows straight into
    // architectural state).
    MachineConfig faulty = bench::chaosConfig(2);
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
        try {
            bench::runSmallApp(sys, "qrd");
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
