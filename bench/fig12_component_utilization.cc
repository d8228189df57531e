/**
 * @file
 * Figure 12: average sustained utilization of each Imagine component
 * (arithmetic clusters, host interface, memory, SRF, LRF) during the
 * four applications, as a percentage of each component's peak.
 *
 * Shape targets: different applications stress different components;
 * LRF utilization tracks arithmetic utilization; memory utilization
 * stays low everywhere (the bandwidth hierarchy at work).
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

void
row(const char *name, const apps::AppResult &r)
{
    MachineConfig cfg;
    double gopsPeak = r.run.gflops > 0.7 * r.run.gops
                          ? cfg.peakFlops() / 1e9
                          : cfg.peakOps() / 1e9;
    double alu = (r.run.gflops > 0.7 * r.run.gops ? r.run.gflops
                                                  : r.run.gops) /
                 gopsPeak;
    double hi = r.run.hostMips / 20.0;
    double mem = r.run.memGBs / (cfg.peakMemBytes() / 1e9);
    double srf = r.run.srfGBs / (cfg.peakSrfBytes() / 1e9);
    double lrf = r.run.lrfGBs /
                 (cfg.peakLrfWordsPerCycle() * 4.0 * cfg.coreClockHz /
                  1e9);
    std::printf("%-8s%9.1f%%%9.1f%%%9.1f%%%9.1f%%%9.1f%%\n", name,
                100 * alu, 100 * hi, 100 * mem, 100 * srf, 100 * lrf);
}

} // namespace

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::devBoard());

    header("Figure 12: Average sustained utilization of Imagine "
           "components (% of each component's peak)");
    std::printf("%-8s%10s%10s%10s%10s%10s\n", "App", "GOPS", "HostIF",
                "MEM", "SRF", "LRF");
    row("DEPTH", runs.depth);
    row("MPEG", runs.mpeg);
    row("QRD", runs.qrd);
    row("RTSL", runs.rtsl);
    std::printf("\nPaper shape: utilizations span orders of magnitude "
                "per app (hence the log-scale radar plots); memory "
                "stays far below the compute side.\n");
    return exitStatus();
}
