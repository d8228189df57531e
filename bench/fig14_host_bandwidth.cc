/**
 * @file
 * Figure 14: DEPTH execution-time breakdown as host-interface
 * bandwidth sweeps from 0.5 to 50 MIPS.
 *
 * Shape targets: above the application's demand the curve is flat
 * (Imagine never idles on the host); below it, execution time grows as
 * the inverse of bandwidth, with the growth attributed to host stalls
 * and secondary memory stalls (loads can no longer be overlapped).
 */

#include "bench_util.hh"

#include <iterator>

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    header("Figure 14: DEPTH execution time vs host interface "
           "bandwidth");
    const double mipsList[] = {0.5, 1.0, 2.03, 4.0, 8.0, 20.0, 50.0};
    const int n = static_cast<int>(std::size(mipsList));
    SimBatch batch;
    std::vector<apps::AppResult> runs = batch.run(n, [&](int i) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.hostMips = mipsList[i];
        ImagineSystem sys(cfg);
        return apps::runDepth(sys);
    });
    std::printf("%8s %10s %9s %9s %9s %9s\n", "MIPS", "Mcycles",
                "busy%", "host%", "mem%", "other%");
    double flat = 0;
    for (int i = 0; i < n; ++i) {
        const double mips = mipsList[i];
        const apps::AppResult &r = runs[static_cast<size_t>(i)];
        char what[32];
        std::snprintf(what, sizeof what, "DEPTH at %.2f MIPS", mips);
        expectValid(r, what);
        auto tot = static_cast<double>(r.run.cycles);
        const ExecBreakdown &b = r.run.breakdown;
        double busy = 100.0 * b.kernelTime() / tot;
        double host = 100.0 * b.hostStall / tot;
        double mem = 100.0 * b.memStall / tot;
        double other = 100.0 - busy - host - mem;
        if (mips >= 20)
            flat = tot;
        std::printf("%8.2f %10.3f %8.1f%% %8.1f%% %8.1f%% %8.1f%%  "
                    "ok=%d\n",
                    mips, tot / 1e6, busy, host, mem, other,
                    static_cast<int>(r.validated));
    }
    // mipsList[0] is the 0.5 MIPS row.
    std::printf("\n0.5 MIPS is %.2fx the asymptotic execution time "
                "(paper: below ~2 MIPS, time grows as 1/bandwidth; "
                "at and above the demand point the curve is flat).\n",
                static_cast<double>(runs[0].run.cycles) / flat);
    return exitStatus();
}
