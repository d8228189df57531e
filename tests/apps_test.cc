/**
 * @file
 * End-to-end application tests: each of the paper's four applications
 * runs on small inputs and must validate bit-for-bit against its golden
 * pipeline, while producing sane execution statistics.
 */

#include <gtest/gtest.h>

#include "apps/apps.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

TEST(AppTest, DepthValidates)
{
    ImagineSystem sys(MachineConfig::devBoard());
    // 128x42x4: 28 valid output rows = 7 bands.
    AppResult r = bench::runSmallApp(sys, "depth");
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.run.gops, 0.5);
    EXPECT_EQ(r.run.breakdown.total(), r.run.cycles);
    // The SAD phase reuses resident rows through many descriptors.
    EXPECT_GT(r.run.sc.kindCount[static_cast<int>(
                  StreamOpKind::SdrWrite)],
              100u);
}

TEST(AppTest, DepthScalesWithDisparities)
{
    auto cycles = [](int disp) {
        ImagineSystem sys(MachineConfig::devBoard());
        DepthConfig cfg;
        cfg.width = 128;
        cfg.height = 38;
        cfg.disparities = disp;
        AppResult r = runDepth(sys, cfg);
        EXPECT_TRUE(r.validated);
        return r.run.cycles;
    };
    Cycle c2 = cycles(2), c6 = cycles(6);
    EXPECT_GT(c6, c2 * 5 / 4);
}

TEST(AppTest, QrdValidates)
{
    ImagineSystem sys(MachineConfig::devBoard());
    QrdConfig cfg;
    cfg.rows = 64;
    cfg.cols = 16;
    AppResult r = runQrd(sys, cfg);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.run.gflops, 0.2);
    // QRD is float-dominated (a few integer ops appear in house's
    // first-element capture and select logic).
    EXPECT_GT(r.run.gflops, 0.6 * r.run.gops);
}

TEST(AppTest, MpegValidates)
{
    ImagineSystem sys(MachineConfig::devBoard());
    MpegConfig cfg;
    cfg.width = 64;
    cfg.height = 32;
    cfg.frames = 3;
    AppResult r = runMpeg(sys, cfg);
    EXPECT_TRUE(r.validated);
    EXPECT_GT(r.run.gops, 0.5);
    // Restarts chain RLE and colorConv across chunks.
    EXPECT_GT(r.run.sc.kindCount[static_cast<int>(StreamOpKind::Restart)],
              4u);
    // The host reads every chunk's RLE length.
    EXPECT_GT(r.run.host.dependencyStallCycles, 0u);
}

TEST(AppTest, RtslValidates)
{
    ImagineSystem sys(MachineConfig::devBoard());
    RtslConfig cfg;
    cfg.screen = 64;
    cfg.triangles = 256;
    cfg.batch = 64;
    AppResult r = runRtsl(sys, cfg);
    EXPECT_TRUE(r.validated);
    // Host dependencies dominate RTSL's non-kernel overhead.
    EXPECT_GT(r.run.host.dependencyStallCycles, 0u);
    EXPECT_GT(r.run.breakdown.hostStall, 0u);
}

TEST(AppTest, AppsRunBackToBackOnOneSystem)
{
    // Kernel registry, microcode store and memory are shared state;
    // running two apps in sequence must still validate.
    ImagineSystem sys(MachineConfig::devBoard());
    QrdConfig qc;
    qc.rows = 64;
    qc.cols = 16;
    AppResult r1 = runQrd(sys, qc);
    EXPECT_TRUE(r1.validated);
    AppResult r2 = runQrd(sys, qc);
    EXPECT_TRUE(r2.validated);
    // Second run reuses resident microcode.
    EXPECT_LE(r2.run.sc.ucodeLoadsIssued, r1.run.sc.ucodeLoadsIssued);
}
