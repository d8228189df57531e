/**
 * @file
 * Table 1: peak performance and power of each Imagine component,
 * measured with the synthetic micro-benchmarks of section 3.1:
 * packed-integer peak, floating-point peak, the COMM-saturating bitonic
 * sort, SRF copy, dual random-address memory loads, and a host-
 * interface register-write flood.  Also reproduces the <6% dynamic
 * microcode-load degradation claim (section 2.3).
 */

#include "bench_util.hh"

#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;
using namespace imagine::kernels;

namespace
{

struct Row
{
    const char *name;
    double achieved, theoretical;
    const char *unit;
    double watts;
    double paperAchieved, paperTheoretical, paperWatts;
};

double
commOpsPerCycle(const RunResult &r)
{
    return r.cycles ? static_cast<double>(r.cluster.commWords) / r.cycles
                    : 0.0;
}

std::vector<Row>
runClusterPeaks()
{
    std::vector<Row> rows;
    const size_t n = 8192;
    {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t k = sys.registerKernel(peakOps());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 24,
                                    {}, true);
        rows.push_back({"Cluster (OPS)", r.gops,
                        sys.config().peakOps() / 1e9, "GOPS", r.watts,
                        25.4, 25.7, 5.79});
    }
    {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t k = sys.registerKernel(peakFlops());
        RunResult r = runKernelLoop(sys, k, {floatWords(n)}, {n}, 24,
                                    {}, true);
        rows.push_back({"Cluster (FLOPS)", r.gflops,
                        sys.config().peakFlops() / 1e9, "GFLOPS",
                        r.watts, 7.96, 8.13, 6.88});
    }
    {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t k = sys.registerKernel(commSort32());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 12,
                                    {}, true);
        rows.push_back({"Inter-cluster comm.", commOpsPerCycle(r), 8.0,
                        "ops/cycle", r.watts, 7.84, 8.00, 8.53});
    }
    {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t k = sys.registerKernel(srfCopy());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 24,
                                    {}, true);
        rows.push_back({"SRF", r.srfGBs,
                        sys.config().peakSrfBytes() / 1e9, "GB/s",
                        r.watts, 12.7, 12.8, 5.79});
    }
    return rows;
}

Row
runMemoryPeak()
{
    // Two concurrent loads over small random index ranges (the pattern
    // the paper uses: "hit a small range of random memory addresses").
    ImagineSystem sys(MachineConfig::devBoard());
    const uint32_t n = 6144;
    Rng rng(3);
    auto b = sys.newProgram();
    uint32_t idxA = b.alloc(n), idxB = b.alloc(n);
    uint32_t dstA = b.alloc(n), dstB = b.alloc(n);
    // Index streams resident in the SRF (staged via the backing store).
    for (uint32_t i = 0; i < n; ++i) {
        sys.srf().write(idxA + i, rng.below(16));
        sys.srf().write(idxB + i, rng.below(16));
    }
    int ia = b.sdr(idxA, n), ib = b.sdr(idxB, n);
    for (int rep = 0; rep < 10; ++rep) {
        b.load(b.marIndexed(0), b.sdr(dstA, n), ia, "loadA");
        b.load(b.marIndexed(1 << 20), b.sdr(dstB, n), ib, "loadB");
    }
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    return {"MEM", r.memGBs, sys.config().peakMemBytes() / 1e9,
            "GB/s", r.watts, 1.58, 1.60, 5.42};
}

Row
runHostPeak()
{
    // A flood of register writes: the dev board sustains ~2 MIPS
    // against a 20 MIPS theoretical interface.
    ImagineSystem sys(MachineConfig::devBoard());
    auto b = sys.newProgram();
    for (int i = 0; i < 4000; ++i)
        b.ucr(i % 8, static_cast<Word>(i));
    StreamProgram prog = b.take();
    RunResult r = sys.run(prog);
    return {"Host Interface", r.hostMips, 20.0, "MIPS", r.watts, 2.03,
            20.0, 4.72};
}

double
microcodeThrash()
{
    // Section 2.3: dynamic microcode loading costs < 6%.  Run two
    // kernels alternately when both fit (resident) vs when the store
    // only holds one (thrash).
    auto run = [](int storeInstrs) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.ucodeStoreInstrs = storeInstrs;
        ImagineSystem sys(cfg);
        uint16_t k1 = sys.registerKernel(peakFlops());
        uint16_t k2 = sys.registerKernel(peakOps());
        const size_t n = 8192;
        sys.memory().writeWords(0, floatWords(n));
        auto b = sys.newProgram();
        uint32_t in = b.alloc(n), out = b.alloc(n);
        b.load(b.marStride(0), b.sdr(in, n));
        for (int i = 0; i < 12; ++i) {
            b.kernel(k1, {b.sdr(in, n)}, {b.sdr(out, n)}, "a");
            b.kernel(k2, {b.sdr(in, n)}, {b.sdr(out, n)}, "b");
        }
        StreamProgram prog = b.take();
        return static_cast<double>(sys.run(prog).cycles);
    };
    double resident = run(2048);
    double thrash = run(24);    // fits one kernel at a time
    return thrash / resident - 1.0;
}

} // namespace

int
main()
{
    std::vector<Row> rows = runClusterPeaks();
    rows.push_back(runMemoryPeak());
    rows.push_back(runHostPeak());

    header("Table 1: Performance of Imagine components "
           "(this reproduction vs paper)");
    std::printf("%-22s %22s %10s %22s %10s\n", "Component",
                "measured (ach/theor)", "W", "paper (ach/theor)", "W");
    for (const Row &r : rows) {
        std::printf("%-22s %9.2f / %-7.2f %-4s %6.2f %9.2f / %-7.2f "
                    "%6.2f\n",
                    r.name, r.achieved, r.theoretical, r.unit, r.watts,
                    r.paperAchieved, r.paperTheoretical, r.paperWatts);
    }
    double thrash = microcodeThrash();
    std::printf("\nDynamic microcode load degradation: %.1f%% "
                "(paper: < 6%%)\n",
                100.0 * thrash);
    return 0;
}
