/**
 * @file
 * Figure 6: kernel run-time breakdown into operations (ideal time for
 * the arithmetic executed), main-loop overhead (limited ILP + load
 * imbalance between unit types), non-main-loop time (prologue,
 * epilogue, startup/shutdown, software-pipeline priming) and cluster
 * stalls (SRF waits).
 *
 * Shape targets: update2's main loop is multiplier-limited; RLE is
 * scratchpad-bound and GROMACS divide/square-root-bound (both with
 * large main-loop overhead); cluster stalls stay under ~5% everywhere.
 */

#include "kernel_suite.hh"

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    const std::vector<KernelRun> suite = runKernelSuite();

    header("Figure 6: Breakdown of kernel performance (% of kernel "
           "run time)");
    std::printf("%-12s %11s %12s %13s %9s\n", "Kernel", "operations",
                "main-loop ovh", "non-main-loop", "stalls");
    double acc[4] = {};
    for (const KernelRun &k : suite) {
        const ExecBreakdown &b = k.run.breakdown;
        double kt = static_cast<double>(b.kernelTime());
        double p[4] = {100.0 * b.operations / kt,
                       100.0 * b.mainLoopOverhead / kt,
                       100.0 * b.nonMainLoop / kt,
                       100.0 * b.clusterStall / kt};
        std::printf("%-12s %10.1f%% %11.1f%% %12.1f%% %8.1f%%\n",
                    k.name.c_str(), p[0], p[1], p[2], p[3]);
        for (int i = 0; i < 4; ++i)
            acc[i] += p[i];
    }
    auto n = static_cast<double>(suite.size());
    std::printf("%-12s %10.1f%% %11.1f%% %12.1f%% %8.1f%%\n", "Average",
                acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n);
    std::printf("\nPaper shape: operations+overhead dominate; "
                "non-main-loop shrinks with stream length; stalls < "
                "5%% of kernel cycles.\n");
    return 0;
}
