/**
 * @file
 * Table 2: performance, register bandwidth, IPC and power of the
 * representative media/scientific kernels.
 *
 * Shape targets from the paper: kernels other than RLE and GROMACS
 * reach IPC > 35; more than 95% of data accesses hit the LRFs; average
 * SRF demand sits well below the 12.8 GB/s peak; kernels average ~43%
 * of peak arithmetic rate.
 */

#include "kernel_suite.hh"

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    const std::vector<KernelRun> suite = runKernelSuite();

    header("Table 2: Performance of representative kernels");
    std::printf("%-12s %10s %9s %9s %7s %7s %9s %9s\n", "Kernel", "ALU",
                "LRF GB/s", "SRF GB/s", "IPC", "W", "LRF share",
                "paper ALU");
    double lrfShareMin = 1.0, ipcSum = 0;
    int highIpc = 0;
    for (const KernelRun &k : suite) {
        double share = k.run.lrfGBs / (k.run.lrfGBs + k.run.srfGBs +
                                       k.run.memGBs);
        lrfShareMin = std::min(lrfShareMin, share);
        ipcSum += k.run.ipc;
        if (k.run.ipc > 35)
            ++highIpc;
        std::printf("%-12s %6.2f %-3s %9.1f %9.2f %7.1f %7.2f %8.1f%% ",
                    k.name.c_str(), k.rate(),
                    k.fp ? "GF" : "GOP", k.run.lrfGBs, k.run.srfGBs,
                    k.run.ipc, k.run.watts, 100.0 * share);
        if (k.paperRate >= 0)
            std::printf("%9.2f\n", k.paperRate);
        else
            std::printf("%9s\n", "-");
    }
    std::printf("\nKernels with IPC > 35: %d of %zu "
                "(paper: all but RLE and GROMACS)\n",
                highIpc, suite.size());
    std::printf("Minimum LRF share of register traffic: %.1f%% "
                "(paper: > 95%% of accesses are LRF)\n",
                100.0 * lrfShareMin);
    std::printf("Mean IPC: %.1f\n", ipcSum / suite.size());

    double peakShareSum = 0;
    for (const KernelRun &k : suite) {
        double peak = k.fp ? 8.0 : 25.6;
        peakShareSum += k.rate() / peak;
    }
    std::printf("Average fraction of peak arithmetic rate: %.1f%% "
                "(paper: 43%%)\n",
                100.0 * peakShareSum / suite.size());
    return 0;
}
