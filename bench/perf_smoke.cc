/**
 * @file
 * Simulator-throughput smoke bench: runs the four applications across
 * the engine's A/B axes and reports simulated cycles per wall-clock
 * second for each mode, plus the speedups:
 *
 *  - tracing on vs off (DESIGN.md section 10) - an overhead axis:
 *    the speedup is expected to sit below 1.0 and quantifies what a
 *    traced run costs;
 *  - sampled fidelity vs full cycle accuracy (DESIGN.md section 12) -
 *    the only axis that changes the model, run on fidelity-stress app
 *    shapes (loop trips large enough to fold) and reporting the cycle
 *    error next to the wall speedup instead of asserting identity.
 *
 * It emits a machine-readable summary:
 *
 *   ./bench/perf_smoke [out.json]
 *
 * writes BENCH_throughput.json (or the given path) with one entry per
 * app per axis, plus the host context (cores, compiler, build type)
 * the numbers were taken on.  Simulated cycle counts must be identical
 * across the trace arms - tracing does not change the model - and the
 * bench fails (exit 1) if they ever differ.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "apps/apps.hh"
#include "sweep_shapes.hh"
#include "sim/log.hh"

using namespace imagine;
using namespace imagine::apps;

namespace
{

struct Timed
{
    AppResult app;
    double loopSeconds = 0.0;   ///< wall time inside run() cycle loops
};

Timed
runApp(const char *name, bool traceOn)
{
    MachineConfig mc = MachineConfig::devBoard();
    mc.trace = traceOn;
    ImagineSystem sys(mc);
    Timed t;
    if (std::string(name) == "depth") {
        DepthConfig cfg;
        cfg.width = 512;
        cfg.height = 110;
        t.app = runDepth(sys, cfg);
    } else if (std::string(name) == "mpeg") {
        MpegConfig cfg;
        cfg.width = 320;
        cfg.height = 240;
        cfg.frames = 3;
        t.app = runMpeg(sys, cfg);
    } else if (std::string(name) == "qrd") {
        t.app = runQrd(sys, QrdConfig{});
    } else {
        RtslConfig cfg;
        t.app = runRtsl(sys, cfg);
    }
    t.loopSeconds = sys.runWallSeconds();
    return t;
}

/** One A/B axis: a (varied knob) x (4 apps) comparison section. */
struct AxisResult
{
    std::string json;
    double geomean = 1.0;
    bool ok = true;
};

/**
 * Measure the four apps with tracing on vs off.  Wall time is measured
 * inside the engine's cycle loop only (ImagineSystem::runWallSeconds),
 * so kernel compilation, input staging and golden-model validation -
 * identical in both modes - do not dilute the comparison.  Best-of-3
 * alternating reps reject scheduler noise.
 */
AxisResult
measureTraceAxis()
{
    const char *apps[] = {"depth", "mpeg", "qrd", "rtsl"};
    AxisResult r;
    r.json = "[";
    double logSum = 0.0;
    int n = 0;
    for (const char *name : apps) {
        Timed on = runApp(name, true);
        Timed off = runApp(name, false);
        double wallOn = on.loopSeconds;
        double wallOff = off.loopSeconds;
        for (int rep = 1; rep < 3; ++rep) {
            wallOn = std::min(wallOn, runApp(name, true).loopSeconds);
            wallOff = std::min(wallOff, runApp(name, false).loopSeconds);
        }
        double speedup = wallOn > 0.0 ? wallOff / wallOn : 0.0;
        bool identical = on.app.run.cycles == off.app.run.cycles &&
                         on.app.validated && off.app.validated;
        r.ok = r.ok && identical;
        logSum += std::log(speedup);
        ++n;

        std::printf("%-6s cycles=%-12llu TraceOn=%.3fs TraceOff=%.3fs "
                    "cps=%.3gM speedup=%.2fx%s\n",
                    name,
                    static_cast<unsigned long long>(on.app.run.cycles),
                    wallOn, wallOff,
                    static_cast<double>(on.app.run.cycles) / wallOn /
                        1e6,
                    speedup, identical ? "" : "  CYCLE MISMATCH");

        if (n > 1)
            r.json += ',';
        r.json += strfmt(
            "{\"name\":\"%s\",\"cycles\":%llu,"
            "\"loopSecondsTraceOn\":%.6f,\"loopSecondsTraceOff\":%.6f,"
            "\"speedup\":%.17g,\"identicalCycles\":%s}",
            name, static_cast<unsigned long long>(on.app.run.cycles),
            wallOn, wallOff, speedup, identical ? "true" : "false");
    }
    r.geomean = std::exp(logSum / n);
    r.json += ']';
    return r;
}

/**
 * One fidelity-stress app run (bench::runStressApp shapes: loop trips
 * large enough to fold; rtsl stays stock and honest at ~1x since its
 * conditional output streams are structurally ineligible).
 */
Timed
runFidelityApp(int app, bool sampled)
{
    MachineConfig mc = MachineConfig::devBoard();
    mc.srfSizeWords = 4u * 1024 * 1024;    // room for the long streams
    mc.fidelity = sampled ? Fidelity::Sampled : Fidelity::Cycle;
    ImagineSystem sys(mc);
    Timed t;
    t.app = bench::runStressApp(sys, app);
    t.loopSeconds = sys.runWallSeconds();
    return t;
}

/**
 * The fidelity axis cannot reuse measureAxis: the sampled arm's cycle
 * count is an estimate (identicalCycles would always fail) and its
 * folded output data holds representative rather than exact values
 * (golden validation fails by design).  The gate is instead the
 * per-app cycle error against the Cycle arm staying inside the 2%
 * design bound.  Best-of-2 per arm; the first rep also warms the
 * compile caches for these shapes.
 */
AxisResult
measureFidelityAxis()
{
    const char *apps[] = {"depth", "mpeg", "qrd", "rtsl"};
    AxisResult r;
    r.json = "[";
    double logSum = 0.0;
    int n = 0;
    for (int app = 0; app < 4; ++app) {
        const char *name = apps[app];
        Timed cyc = runFidelityApp(app, false);
        Timed smp = runFidelityApp(app, true);
        double wallC = cyc.loopSeconds;
        double wallS = smp.loopSeconds;
        wallC = std::min(wallC, runFidelityApp(app, false).loopSeconds);
        wallS = std::min(wallS, runFidelityApp(app, true).loopSeconds);
        double speedup = wallS > 0.0 ? wallC / wallS : 0.0;
        double cycC = static_cast<double>(cyc.app.run.cycles);
        double err =
            cycC > 0.0
                ? std::fabs(static_cast<double>(smp.app.run.cycles) -
                            cycC) /
                      cycC
                : 0.0;
        double folded =
            smp.app.run.cycles
                ? static_cast<double>(smp.app.run.estimatedCycles) /
                      static_cast<double>(smp.app.run.cycles)
                : 0.0;
        bool errOk = err < 0.02;
        r.ok = r.ok && errOk;
        logSum += std::log(speedup);
        ++n;

        std::printf("%-6s cycles=%-12llu sampled=%-12llu err=%.3f%% "
                    "folded=%.1f%% wallCycle=%.3fs wallSampled=%.3fs "
                    "speedup=%.2fx%s\n",
                    name,
                    static_cast<unsigned long long>(cyc.app.run.cycles),
                    static_cast<unsigned long long>(smp.app.run.cycles),
                    100.0 * err, 100.0 * folded, wallC, wallS, speedup,
                    errOk ? "" : "  ERROR BOUND EXCEEDED");

        if (n > 1)
            r.json += ',';
        r.json += strfmt(
            "{\"name\":\"%s\",\"cyclesCycle\":%llu,"
            "\"cyclesSampled\":%llu,\"cycleError\":%.17g,"
            "\"foldedShare\":%.17g,\"loopSecondsCycle\":%.6f,"
            "\"loopSecondsSampled\":%.6f,\"speedup\":%.17g,"
            "\"errorOk\":%s}",
            name, static_cast<unsigned long long>(cyc.app.run.cycles),
            static_cast<unsigned long long>(smp.app.run.cycles), err,
            folded, wallC, wallS, speedup, errOk ? "true" : "false");
    }
    r.geomean = std::exp(logSum / n);
    r.json += ']';
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    const char *outPath =
        argc > 1 ? argv[1] : "BENCH_throughput.json";

    // Warm the process-wide kernel compile + lowering caches so no
    // timed mode pays first-compile cost.
    for (const char *name : {"depth", "mpeg", "qrd", "rtsl"})
        runApp(name, false);

    std::printf("-- trace on vs off --\n");
    AxisResult trc = measureTraceAxis();
    std::printf("trace geomean speedup %.2fx (overhead %.1f%%)\n\n",
                trc.geomean,
                trc.geomean > 0.0 ? 100.0 * (1.0 / trc.geomean - 1.0)
                                  : 0.0);

    std::printf("-- sampled fidelity vs cycle (fidelity-stress shapes) "
                "--\n");
    AxisResult fid = measureFidelityAxis();
    std::printf("fidelity geomean speedup %.2fx\n", fid.geomean);

#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
#ifndef IMAGINE_BUILD_TYPE
#define IMAGINE_BUILD_TYPE "unknown"
#endif
    std::string json = strfmt(
        "{\"host\":{\"hardwareThreads\":%u,\"compiler\":\"%s\","
        "\"buildType\":\"%s\",\"sampleLoopFraction\":%.17g},"
        "\"traceAB\":{\"apps\":%s,\"geomeanSpeedup\":%.17g},"
        "\"fidelityAB\":{\"apps\":%s,\"geomeanSpeedup\":%.17g}}",
        std::thread::hardware_concurrency(), compiler,
        IMAGINE_BUILD_TYPE, MachineConfig::devBoard().sampleLoopFraction,
        trc.json.c_str(), trc.geomean,
        fid.json.c_str(), fid.geomean);

    if (FILE *f = std::fopen(outPath, "w")) {
        std::fputs(json.c_str(), f);
        std::fputc('\n', f);
        std::fclose(f);
    } else {
        std::fprintf(stderr, "perf_smoke: cannot write %s\n", outPath);
        return 1;
    }
    return trc.ok && fid.ok ? 0 : 1;
}
