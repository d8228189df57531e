/**
 * @file
 * SimBatch driver semantics plus the determinism contract: a chaos
 * campaign run on 8 threads produces bit-identical results to the same
 * jobs run serially, because each job derives everything (config, fault
 * seed, session) from its index alone.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "sim/runner.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

TEST(SimBatchTest, ResultsArriveInIndexOrder)
{
    SimBatch batch(8);
    std::vector<int> r = batch.run(100, [](int i) { return i * i; });
    ASSERT_EQ(r.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r[static_cast<size_t>(i)], i * i);
}

TEST(SimBatchTest, ZeroAndNegativeJobCountsAreEmpty)
{
    SimBatch batch(4);
    EXPECT_TRUE(batch.run(0, [](int) { return 1; }).empty());
    EXPECT_TRUE(batch.run(-3, [](int) { return 1; }).empty());
}

TEST(SimBatchTest, DefaultsToHardwareThreads)
{
    EXPECT_GE(hardwareThreads(), 1);
    EXPECT_EQ(SimBatch().threads(), hardwareThreads());
    EXPECT_EQ(SimBatch(-1).threads(), hardwareThreads());
    EXPECT_EQ(SimBatch(3).threads(), 3);
}

TEST(SimBatchTest, LowestIndexExceptionWinsAndAllJobsRun)
{
    SimBatch batch(8);
    std::atomic<int> ran{0};
    try {
        batch.run(20, [&](int i) {
            ran.fetch_add(1);
            if (i == 13 || i == 7)
                throw std::runtime_error("job " + std::to_string(i));
            return i;
        });
        FAIL() << "expected a rethrow";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job 7");
    }
    EXPECT_EQ(ran.load(), 20);
}

TEST(SimBatchTest, RunSettledCapturesEveryFailureInItsSlot)
{
    SimBatch batch(8);
    std::atomic<int> ran{0};
    std::vector<Settled<int>> r = batch.runSettled(20, [&](int i) {
        ran.fetch_add(1);
        if (i == 7)
            throw SimError(SimErrorKind::UnrecoveredFault, "job 7");
        if (i == 13)
            throw std::runtime_error("job 13");
        return i * 2;
    });
    EXPECT_EQ(ran.load(), 20);
    ASSERT_EQ(r.size(), 20u);
    EXPECT_EQ(batch.failures(), 2u);
    for (int i = 0; i < 20; ++i) {
        const Settled<int> &s = r[static_cast<size_t>(i)];
        if (i == 7) {
            ASSERT_FALSE(s.ok());
            EXPECT_EQ(s.error->kind(), SimErrorKind::UnrecoveredFault);
            EXPECT_STREQ(s.error->what(), "job 7");
        } else if (i == 13) {
            // Foreign exceptions are wrapped so the variant is total.
            ASSERT_FALSE(s.ok());
            EXPECT_EQ(s.error->kind(), SimErrorKind::Panic);
            EXPECT_STREQ(s.error->what(), "job 13");
        } else {
            ASSERT_TRUE(s.ok()) << i;
            EXPECT_EQ(*s.value, i * 2);
        }
    }
}

TEST(SimBatchTest, FailureCountAccumulatesAcrossCampaigns)
{
    SimBatch batch(4);
    batch.runSettled(5, [](int i) {
        if (i == 0)
            throw SimError(SimErrorKind::Hang, "wedged");
        return i;
    });
    EXPECT_EQ(batch.failures(), 1u);
    batch.runSettled(5, [](int i) { return i; });
    EXPECT_EQ(batch.failures(), 1u);
    batch.runSettled(2, [](int) -> int {
        throw SimError(SimErrorKind::Panic, "boom");
    });
    EXPECT_EQ(batch.failures(), 3u);
}

TEST(SimBatchTest, CancelPendingSettlesUnstartedJobsAsCanceled)
{
    // Single worker thread makes the cutoff deterministic: job 3 latches
    // the flag, so 0..3 ran and 4..9 settle as Canceled without running.
    SimBatch batch(1);
    std::atomic<int> ran{0};
    std::vector<Settled<int>> r = batch.runSettled(10, [&](int i) {
        ran.fetch_add(1);
        if (i == 3)
            batch.cancelPending();
        return i;
    });
    EXPECT_TRUE(batch.cancelRequested());
    EXPECT_EQ(ran.load(), 4);
    ASSERT_EQ(r.size(), 10u);
    for (int i = 0; i < 10; ++i) {
        const Settled<int> &s = r[static_cast<size_t>(i)];
        if (i <= 3) {
            ASSERT_TRUE(s.ok()) << i;
            EXPECT_EQ(*s.value, i);
        } else {
            ASSERT_FALSE(s.ok()) << i;
            EXPECT_EQ(s.error->kind(), SimErrorKind::Canceled);
        }
    }
    EXPECT_EQ(batch.failures(), 6u);

    // The flag is sticky: a later campaign on the same batch runs
    // nothing.
    std::vector<Settled<int>> r2 =
        batch.runSettled(3, [](int i) { return i; });
    for (const Settled<int> &s : r2) {
        ASSERT_FALSE(s.ok());
        EXPECT_EQ(s.error->kind(), SimErrorKind::Canceled);
    }
}

TEST(SimBatchTest, CancelPendingRethrowsCanceledFromRun)
{
    SimBatch batch(1);
    batch.cancelPending();
    try {
        batch.run(4, [](int i) { return i; });
        FAIL() << "expected SimError(Canceled)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Canceled);
    }
}

TEST(SimBatchTest, AbortTokenStopsRunningSessionsWithoutCrashSnapshot)
{
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() / "imagine_batch_abort";
    fs::create_directories(dir);
    std::string ckpt = (dir / "job.ckpt").string();

    SimBatch batch(1);
    batch.cancelPending();
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.checkpointPath = ckpt;
    ImagineSystem sys(cfg);
    sys.setAbortToken(batch.abortToken());
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    try {
        runQrd(sys, qc);
        FAIL() << "expected SimError(Canceled)";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Canceled);
    }
    // A cancellation is not a crash: no diagnostic snapshot appears.
    EXPECT_FALSE(fs::exists(ckpt + ".crash"));
    std::error_code ec;
    fs::remove_all(dir, ec);
}

namespace
{

/** Chaos-style config for job @p i: seed and ECC derived from i only. */
MachineConfig
batchChaosConfig(int i)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.faults =
        FaultPlan::chaos(0xba7c4ull * 1000 + static_cast<uint64_t>(i),
                         i % 2 ? EccMode::Parity : EccMode::Secded);
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

/**
 * One chaos job; returns a full textual encoding of everything the run
 * produced.  RunResult::toJson covers cycles, the Fig. 11 breakdown,
 * every per-component counter, every double metric at %.17g, and the
 * fault trace - so string equality is bit-identity.
 */
std::string
chaosJob(int i)
{
    ImagineSystem sys(batchChaosConfig(i));
    try {
        AppResult r = bench::runSmallApp(sys, "depth");
        return std::string(r.validated ? "ok:" : "invalid:") +
               r.run.toJson();
    } catch (const SimError &e) {
        return std::string("error:") + simErrorKindName(e.kind()) +
               ":" + e.what();
    }
}

} // namespace

TEST(SimBatchTest, EightThreadChaosCampaignMatchesSerial)
{
    constexpr int kRuns = 12;
    SimBatch serial(1), wide(8);
    std::vector<std::string> a = serial.run(kRuns, chaosJob);
    std::vector<std::string> b = wide.run(kRuns, chaosJob);
    ASSERT_EQ(a.size(), b.size());
    for (int i = 0; i < kRuns; ++i)
        EXPECT_EQ(a[static_cast<size_t>(i)],
                  b[static_cast<size_t>(i)])
            << "run " << i << " differs between serial and 8-thread";
    // The campaign exercised the injector (otherwise this test proves
    // nothing about fault determinism).
    bool sawFault = false;
    for (const std::string &s : a)
        if (s.find("\"injected\":0,") == std::string::npos)
            sawFault = true;
    EXPECT_TRUE(sawFault);
}
