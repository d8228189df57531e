/**
 * @file
 * Figure 13: the bandwidth hierarchy - sustained LRF, SRF and DRAM
 * bandwidth per application, against the machine peaks.
 *
 * Shape targets: the LRF:DRAM ratio exceeds 100:1 on every application
 * (the paper reports > 350:1 on average), demonstrating that a stream
 * processor is not memory bound on real applications (section 5.2).
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::devBoard());

    header("Figure 13: Bandwidth hierarchy of applications (GB/s)");
    MachineConfig cfg;
    std::printf("%-8s%10s%10s%10s%14s\n", "App", "LRF", "SRF", "DRAM",
                "LRF:DRAM");
    std::printf("%-8s%10.1f%10.1f%10.2f%14s\n", "Peak",
                cfg.peakLrfWordsPerCycle() * 4.0 * cfg.coreClockHz / 1e9,
                cfg.peakSrfBytes() / 1e9, cfg.peakMemBytes() / 1e9, "-");
    double ratioSum = 0;
    auto row = [&](const char *name, const apps::AppResult &r) {
        double ratio = r.run.memGBs > 0 ? r.run.lrfGBs / r.run.memGBs
                                        : 0;
        ratioSum += ratio;
        std::printf("%-8s%10.1f%10.2f%10.3f%13.0f:1\n", name,
                    r.run.lrfGBs, r.run.srfGBs, r.run.memGBs, ratio);
    };
    row("DEPTH", runs.depth);
    row("MPEG", runs.mpeg);
    row("QRD", runs.qrd);
    row("RTSL", runs.rtsl);
    std::printf("\nMean LRF:DRAM ratio %.0f:1 (paper: > 350:1; "
                "conclusion: real applications are not memory "
                "bound).\n",
                ratioSum / 4.0);
    return exitStatus();
}
