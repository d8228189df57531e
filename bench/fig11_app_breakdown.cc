/**
 * @file
 * Figure 11: application execution-time breakdown into the paper's
 * eight categories (operations, kernel main-loop overhead, kernel
 * non-main-loop, cluster stalls, microcode-load stalls, memory stalls,
 * stream-controller overhead, host-bandwidth stalls), attributed with
 * the paper's priority rule.  The paper's figure comes from
 * cycle-accurate simulation, so the ISIM preset is used here too.
 *
 * Shape targets: kernel run time covers ~90% of execution for all
 * applications except RTSL; RTSL's non-kernel overhead is dominated by
 * memory stalls and host-dependency stalls.
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

void
row(const char *name, const apps::AppResult &r, double *acc)
{
    const ExecBreakdown &b = r.run.breakdown;
    auto tot = static_cast<double>(r.run.cycles);
    double p[8] = {100.0 * b.operations / tot,
                   100.0 * b.mainLoopOverhead / tot,
                   100.0 * b.nonMainLoop / tot,
                   100.0 * b.clusterStall / tot,
                   100.0 * b.ucodeStall / tot,
                   100.0 * b.memStall / tot,
                   100.0 * b.scOverhead / tot,
                   100.0 * b.hostStall / tot};
    std::printf("%-8s", name);
    for (int i = 0; i < 8; ++i) {
        std::printf("%8.1f", p[i]);
        acc[i] += p[i];
    }
    double nonKernel = p[4] + p[5] + p[6] + p[7];
    std::printf("   (non-kernel %.1f%%)\n", nonKernel);
}

} // namespace

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::isim());

    header("Figure 11: Execution time breakdown of applications "
           "(ISIM preset; % of total cycles)");
    std::printf("%-8s%8s%8s%8s%8s%8s%8s%8s%8s\n", "App", "ops",
                "ml-ovh", "nonML", "clstall", "ucode", "mem", "sc",
                "host");
    double acc[8] = {};
    row("DEPTH", runs.depth, acc);
    row("MPEG", runs.mpeg, acc);
    row("QRD", runs.qrd, acc);
    row("RTSL", runs.rtsl, acc);
    std::printf("%-8s", "Average");
    for (double v : acc)
        std::printf("%8.1f", v / 4.0);
    std::printf("\n");
    std::printf("\nPaper shape: kernel run time ~90%% for DEPTH, MPEG "
                "and QRD (<10%% application-level overhead); RTSL loses "
                ">30%% to memory and host-dependency stalls.\n");
    return exitStatus();
}
