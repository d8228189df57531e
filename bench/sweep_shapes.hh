/**
 * @file
 * Shared sweep definitions: the machine-shape list and the
 * fidelity-stress application shapes.
 *
 * Included by tests/config_sweep_test.cc and the bench binaries
 * (bench/table3_apps.cc via bench_util.hh, bench/perf_smoke.cc), which
 * sweep the same shapes, so a knob added here lands in all of them.
 */

#ifndef IMAGINE_BENCH_SWEEP_SHAPES_HH
#define IMAGINE_BENCH_SWEEP_SHAPES_HH

#include <vector>

#include "apps/apps.hh"
#include "core/system.hh"

namespace imagine::bench
{

/** One machine shape of the shared config-sweep list. */
struct MachineShape
{
    const char *name;
    MachineConfig cfg;
};

/**
 * The machine-shape list shared by tests/config_sweep_test.cc and the
 * bench binaries' design-space sweeps: the devBoard baseline plus one
 * knob bent per shape (unit counts, latencies, buffer sizes,
 * bandwidths), and the isim reference machine.
 */
inline std::vector<MachineShape>
machineShapes()
{
    std::vector<MachineShape> shapes;
    auto base = MachineConfig::devBoard();
    shapes.push_back({"baseline", base});
    {
        auto c = base;
        c.numAdders = 1;
        shapes.push_back({"one_adder", c});
    }
    {
        auto c = base;
        c.numAdders = 6;
        c.numMultipliers = 4;
        shapes.push_back({"wide_cluster", c});
    }
    {
        auto c = base;
        c.sbInPorts = 1;
        c.sbOutPorts = 1;
        shapes.push_back({"one_sb_port", c});
    }
    {
        auto c = base;
        c.latFpAdd = 7;
        c.latFpMul = 9;
        c.latIntMul = 6;
        shapes.push_back({"slow_fus", c});
    }
    {
        auto c = base;
        c.srfBandwidthWordsPerCycle = 4;
        shapes.push_back({"narrow_srf", c});
    }
    {
        auto c = base;
        c.streamBufferWords = 4;
        shapes.push_back({"tiny_stream_buffers", c});
    }
    {
        auto c = base;
        c.numChannels = 2;
        shapes.push_back({"two_channels", c});
    }
    {
        auto c = base;
        c.scoreboardSlots = 2;
        shapes.push_back({"tiny_scoreboard", c});
    }
    {
        auto c = base;
        c.hostMips = 0.25;
        shapes.push_back({"slow_host", c});
    }
    {
        auto c = base;
        c.latSubword = 5;
        c.latComm = 6;
        shapes.push_back({"slow_media_ops", c});
    }
    shapes.push_back({"isim", MachineConfig::isim()});
    return shapes;
}

/**
 * Fidelity-stress application shapes (DESIGN.md section 12): the stock
 * app shapes' loop trips (<= 2048) never fold, so the sampled tier is
 * a no-op on them.  These stretch the streamed dimension until the hot
 * kernels hold multi-thousand-iteration steady states.  rtsl stays
 * stock: its hot kernels use conditional output streams, structurally
 * ineligible to fold.  @p app is 0..3 = depth/mpeg/qrd/rtsl.  Shared
 * by perf_smoke's fidelityAB axis and table3's sampled DSE sweep.
 */
inline apps::AppResult
runStressApp(ImagineSystem &sys, int app)
{
    switch (app) {
      case 0: {
        apps::DepthConfig cfg;
        cfg.width = 49152;
        cfg.height = 18;
        return apps::runDepth(sys, cfg);
      }
      case 1: {
        apps::MpegConfig cfg;
        cfg.width = 32768;
        cfg.height = 16;
        cfg.frames = 1;
        return apps::runMpeg(sys, cfg);
      }
      case 2: {
        apps::QrdConfig cfg;
        cfg.rows = 65536;
        cfg.cols = 16;
        return apps::runQrd(sys, cfg);
      }
      default:
        return apps::runRtsl(sys, apps::RtslConfig{});
    }
}

} // namespace imagine::bench

#endif // IMAGINE_BENCH_SWEEP_SHAPES_HH
