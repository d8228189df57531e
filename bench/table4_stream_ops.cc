/**
 * @file
 * Table 4: histogram of stream operations per application (kernel +
 * restart, memory, SDR/MAR/UCR register writes, moves, misc), the SDR
 * reuse factor the descriptor registers buy, and the resulting host
 * instruction bandwidth.
 *
 * Shape targets: DEPTH needs the most host bandwidth (short streams)
 * and reuses SDRs the most; register-op counts rival stream-op counts,
 * which is why the descriptor registers exist.
 */

#include "bench_util.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

uint64_t
kinds(const apps::AppResult &r, StreamOpKind k)
{
    return r.run.sc.kindCount[static_cast<int>(k)];
}

void
row(const char *name, const apps::AppResult &r)
{
    uint64_t kernel = kinds(r, StreamOpKind::KernelExec) +
                      kinds(r, StreamOpKind::Restart);
    uint64_t mem = kinds(r, StreamOpKind::MemLoad) +
                   kinds(r, StreamOpKind::MemStore);
    uint64_t sdrW = kinds(r, StreamOpKind::SdrWrite);
    uint64_t marW = kinds(r, StreamOpKind::MarWrite);
    uint64_t ucrW = kinds(r, StreamOpKind::UcrWrite);
    uint64_t move = kinds(r, StreamOpKind::Move);
    uint64_t misc = kinds(r, StreamOpKind::UcodeLoad) +
                    kinds(r, StreamOpKind::RegRead) +
                    kinds(r, StreamOpKind::Sync) +
                    r.run.sc.ucodeLoadsIssued;
    uint64_t total = kernel + mem + sdrW + marW + ucrW + move + misc;
    double reuse =
        sdrW ? static_cast<double>(r.build.sdrReuses + r.build.sdrWrites) /
                   r.build.sdrWrites
             : 0;
    std::printf("%-7s%9llu%8llu%8llu%8llu%8llu%6llu%6llu%9llu%9.1fx"
                "%8.2f\n",
                name, static_cast<unsigned long long>(kernel),
                static_cast<unsigned long long>(mem),
                static_cast<unsigned long long>(sdrW),
                static_cast<unsigned long long>(marW),
                static_cast<unsigned long long>(ucrW),
                static_cast<unsigned long long>(move),
                static_cast<unsigned long long>(misc),
                static_cast<unsigned long long>(total), reuse,
                r.run.hostMips);
}

} // namespace

int
main()
{
    const AppRuns runs = runAllApps(MachineConfig::devBoard());

    header("Table 4: Histogram of stream operations per application");
    std::printf("%-7s%9s%8s%8s%8s%8s%6s%6s%9s%10s%8s\n", "App",
                "Krnl+Rst", "Memory", "SDRwr", "MARwr", "UCRwr", "Move",
                "Misc", "Total", "SDRreuse", "MIPS");
    row("DEPTH", runs.depth);
    row("MPEG", runs.mpeg);
    row("QRD", runs.qrd);
    row("RTSL", runs.rtsl);
    std::printf("\nPaper: DEPTH 1.6 MIPS (the most; 717x SDR reuse), "
                "others < 1 MIPS; total instruction counts DEPTH 17.7K, "
                "MPEG 8.8K, QRD 19.3K, RTSL 16.6K order of "
                "magnitude.\n");
    return exitStatus();
}
