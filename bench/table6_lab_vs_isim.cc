/**
 * @file
 * Table 6: laboratory (prototype) vs ISIM (cycle-accurate simulator)
 * running cycles, modeled here as the devBoard() preset (memory
 * controller precharge bug, stream-controller issue pipeline latency,
 * pessimistic host round trips) vs the isim() preset (those warts
 * idealized).
 *
 * Shape target: hardware is consistently slower than simulation, by no
 * more than ~6% (section 5.5).
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

void
row(const char *name, const apps::AppResult &l, const apps::AppResult &s,
    const char *paper)
{
    double ratio = static_cast<double>(l.run.cycles) / s.run.cycles;
    std::printf("%-7s%12.3f%12.3f%9.1f%%   %s\n", name,
                l.run.cycles / 1e6, s.run.cycles / 1e6,
                100.0 * (ratio - 1.0), paper);
}

} // namespace

int
main()
{
    const AppRuns lab = runAllApps(MachineConfig::devBoard());
    const AppRuns isim = runAllApps(MachineConfig::isim());

    header("Table 6: Lab vs ISIM running cycles (Mcycles)");
    std::printf("%-7s%12s%12s%10s   %s\n", "App", "Lab", "ISIM", "gap",
                "paper (lab / isim Mcycles)");
    row("DEPTH", lab.depth, isim.depth, "2.22 / 2.11 (+5.2%)");
    row("MPEG", lab.mpeg, isim.mpeg, "4.33 / 4.24 (+2.1%)");
    row("QRD", lab.qrd, isim.qrd, "10.90 / 10.52 (+3.6%)");
    row("RTSL", lab.rtsl, isim.rtsl, "4.47 / 4.24 (+5.4%)");
    std::printf("\nPaper shape: the actual hardware is always slower "
                "than simulation, within ~6%%.\n");
    return exitStatus();
}
