/**
 * @file
 * Shared sweep definitions: the machine-shape list, the small and the
 * fidelity-stress application shapes, and the chaos campaign config.
 *
 * Included by the tests (every test binary has bench/ on its include
 * path) and the bench executables (bench/paper.cc via bench_util.hh,
 * bench/perf_smoke.cc, bench/chaos_bisect.cc), which sweep the same
 * shapes, so a knob added here lands in all of them.
 */

#ifndef IMAGINE_BENCH_SWEEP_SHAPES_HH
#define IMAGINE_BENCH_SWEEP_SHAPES_HH

#include <string_view>
#include <vector>

#include "apps/apps.hh"
#include "core/system.hh"
#include "service/protocol.hh"
#include "service/server.hh"

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
 * bench executables' design-space sweeps: the devBoard baseline plus one
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
 * by perf_smoke's fidelityAB axis and the Table 3 view's sampled DSE
 * sweep.
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

/**
 * A small-input application run, named the way a service request names
 * it: the workload and its "params" object.  These are the shapes of
 * the chaos campaign, the engine-contract matrix and chaos_bisect.
 */
struct SmallApp
{
    const char *workload;
    const char *params;     ///< JSON text of the request's "params"

    /** The run request for this app (its config left at the default). */
    service::RunRequest
    request() const
    {
        service::RunRequest r;
        r.workload = workload;
        r.params = service::json::parse(params);
        return r;
    }
};

inline constexpr SmallApp kSmallApps[] = {
    {"depth", R"({"width":128,"height":42,"disparities":4})"},
    {"mpeg", R"({"width":64,"height":32,"frames":3})"},
    {"qrd", R"({"rows":64,"cols":16})"},
    {"rtsl", R"({"screen":64,"triangles":256,"batch":64})"},
};

/** The small shape of @p workload, or null if there is none. */
inline const SmallApp *
findSmallApp(std::string_view workload)
{
    for (const SmallApp &a : kSmallApps)
        if (workload == a.workload)
            return &a;
    return nullptr;
}

/** Run the small shape of @p workload (depth|mpeg|qrd|rtsl) on @p sys. */
inline apps::AppResult
runSmallApp(ImagineSystem &sys, std::string_view workload)
{
    return service::runWorkload(sys, findSmallApp(workload)->request());
}

/**
 * The chaos campaign's config for run @p run: FaultPlan::chaos seeded
 * 0xc4a05 * 1000 + run, the ECC mode cycling Secded, Parity, None with
 * the run index, and a 200k-cycle watchdog so a wedged small run is
 * reported quickly.  ChaosTest's run index is chaos_bisect's --seed.
 */
inline MachineConfig
chaosConfig(uint64_t run, MachineConfig cfg = MachineConfig::devBoard())
{
    static constexpr EccMode ecc[3] = {EccMode::Secded, EccMode::Parity,
                                       EccMode::None};
    cfg.faults = FaultPlan::chaos(0xc4a05ull * 1000 + run, ecc[run % 3]);
    cfg.watchdogStagnationCycles = 200'000;
    return cfg;
}

} // namespace imagine::bench

#endif // IMAGINE_BENCH_SWEEP_SHAPES_HH
