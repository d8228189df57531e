/**
 * @file
 * Table 5: cluster characteristics per application - average kernel
 * duration, average kernel stream length and average memory stream
 * length.
 *
 * Shape targets: DEPTH and RTSL run short kernels on short streams
 * (which is why DEPTH is host-bandwidth hungry and RTSL overhead
 * bound); MPEG and QRD run long kernels.
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

void
row(const char *name, const apps::AppResult &r, const char *paper)
{
    const ClusterStats &c = r.run.cluster;
    double dur = c.kernelsRun
                     ? static_cast<double>(c.busyTotal()) / c.kernelsRun
                     : 0;
    double klen = c.kernelsRun ? static_cast<double>(
                                     c.kernelStreamWords) /
                                     c.kernelsRun
                               : 0;
    double mlen = r.run.sc.memStreamOps
                      ? static_cast<double>(r.run.sc.memOpWords) /
                            r.run.sc.memStreamOps
                      : 0;
    std::printf("%-7s%14.0f%16.0f%16.0f   %s\n", name, dur, klen, mlen,
                paper);
}

} // namespace

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::devBoard());

    header("Table 5: Cluster characteristics of applications");
    std::printf("%-7s%14s%16s%16s   %s\n", "App", "kernel cyc",
                "kernel stream", "memory stream",
                "paper (cyc / words / words)");
    row("DEPTH", runs.depth, "1595 / 306 / 306");
    row("MPEG", runs.mpeg, "8244 / 1191 / 2543");
    row("QRD", runs.qrd, "2234 / 2087 / 1261");
    row("RTSL", runs.rtsl, "1022 / 642 / 642");
    std::printf("\nPaper shape: DEPTH and RTSL have the shortest "
                "kernels and streams; MPEG the longest kernels.\n");
    return exitStatus();
}
