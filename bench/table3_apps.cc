/**
 * @file
 * Table 3: full-application performance - arithmetic rate, IPC, a
 * real-time summary, and power - for DEPTH, MPEG, QRD and RTSL.
 *
 * Shape targets: MPEG has the highest GOPS; QRD the highest fraction
 * of peak (it is float-dominated); RTSL is far below the others; all
 * three video applications exceed real-time rates; applications sit
 * between roughly 16% and 60% of peak arithmetic rate.
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

void
row(const char *name, const apps::AppResult &r, bool fp,
    const char *paper)
{
    std::printf("%-6s %6.2f %-7s %6.1f %6.2fW  ok=%d  %-44s %s\n", name,
                fp ? r.run.gflops : r.run.gops,
                fp ? "GFLOPS" : "GOPS", r.run.ipc, r.run.watts,
                static_cast<int>(r.validated), r.summary.c_str(),
                paper);
}

} // namespace

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::devBoard());

    header("Table 3: Application performance");
    std::printf("%-6s %6s %-7s %6s %8s %6s %-44s %s\n", "App", "ALU",
                "", "IPC", "Power", "", "summary (this reproduction)",
                "paper");
    row("DEPTH", runs.depth, false,
        "4.91 GOPS, 41.3 IPC, 212 fps, 7.49 W");
    row("MPEG", runs.mpeg, false,
        "7.36 GOPS, 33.3 IPC, 138 fps, 6.80 W");
    row("QRD", runs.qrd, true,
        "4.81 GFLOPS, 40.1 IPC, 326 QRD/s, 7.42 W");
    row("RTSL", runs.rtsl, false,
        "1.30 GOPS, 14.1 IPC, 44.9 fps, 5.91 W");

    double peakOps = 25.6, peakFlops = 8.0;
    std::printf("\nFraction of peak arithmetic rate (paper: 16%%-60%%, "
                "RTSL lowest):\n");
    std::printf("  DEPTH %.0f%%  MPEG %.0f%%  QRD %.0f%%  RTSL %.0f%%\n",
                100 * runs.depth.run.gops / peakOps,
                100 * runs.mpeg.run.gops / peakOps,
                100 * runs.qrd.run.gflops / peakFlops,
                100 * runs.rtsl.run.gops / peakOps);

    // Design-space sweep at the sampled fidelity tier (DESIGN.md
    // section 12): apps x machine shapes over one SimBatch, on the
    // fidelity-stress app shapes whose loops actually fold.  Cycle
    // counts here are estimates with per-kernel error bounds; the
    // point of the section is sweep throughput, not headline numbers.
    header("Sampled-tier DSE sweep (apps x machine shapes)");
    const char *appNames[] = {"DEPTH", "MPEG", "QRD", "RTSL"};
    std::vector<MachineShape> shapes;
    for (const MachineShape &s : machineShapes())
        if (std::string(s.name) == "baseline" ||
            std::string(s.name) == "wide_cluster" ||
            std::string(s.name) == "narrow_srf" ||
            std::string(s.name) == "two_channels")
            shapes.push_back(s);
    SimBatch batch;
    auto sweep = batch.runSettled(
        static_cast<int>(shapes.size()) * 4, [&](int i) {
            MachineConfig cfg =
                shapes[static_cast<size_t>(i) / 4].cfg;
            cfg.srfSizeWords = 4u * 1024 * 1024;
            cfg.fidelity = Fidelity::Sampled;
            ImagineSystem sys(cfg);
            return runStressApp(sys, i % 4);
        });
    std::printf("%-14s %-6s %12s %10s %9s\n", "shape", "app",
                "est. cycles", "folded", "maxBound");
    for (size_t i = 0; i < sweep.size(); ++i) {
        const char *shape = shapes[i / 4].name;
        const char *app = appNames[i % 4];
        if (!sweep[i].ok()) {
            std::printf("%-14s %-6s ERR: %s\n", shape, app,
                        sweep[i].error->what());
            fail(std::string(app) + " on " + shape + " errored");
            continue;
        }
        const RunResult &r = sweep[i].value->run;
        // Golden validation fails by design on folded outputs (DESIGN.md
        // section 12): only a run that folded nothing must validate.
        if (r.estimatedCycles == 0)
            expectValid(*sweep[i].value,
                        std::string(app) + " on " + shape);
        double folded =
            r.cycles ? static_cast<double>(r.estimatedCycles) /
                           static_cast<double>(r.cycles)
                     : 0.0;
        double maxBound = 0.0;
        for (const KernelFoldRecord &k : r.kernelFolds)
            maxBound = std::max(maxBound, k.errorBound);
        std::printf("%-14s %-6s %12llu %9.1f%% %8.2f%%\n", shape, app,
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * folded, 100.0 * maxBound);
    }
    return exitStatus();
}
