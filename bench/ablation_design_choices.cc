/**
 * @file
 * Ablation studies for the architecture/compiler design choices
 * DESIGN.md calls out:
 *
 *  1. Software pipelining (the kernel compiler's modulo scheduler) vs
 *     serialized iterations.
 *  2. SRF aggregate bandwidth (16 words/cycle baseline).
 *  3. One vs two address generators.
 *  4. Scoreboard depth (how far the host can run ahead).
 *  5. A pipelined divide/square-root unit (the paper's DSQ is not
 *     pipelined and GROMACS pays for it).
 */

#include "bench_util.hh"

#include "kernels/conv.hh"
#include "kernels/gromacs.hh"
#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;
using namespace imagine::kernels;

namespace
{

double
convRate(bool swp)
{
    ImagineSystem sys(MachineConfig::devBoard());
    const std::array<int16_t, 7> c7{1, 2, 3, 4, 3, 2, 1};
    kernelc::CompileOptions opts;
    opts.softwarePipelining = swp;
    uint16_t kid = sys.registerKernel(conv7x7(c7, c7, 8), opts);
    std::vector<std::vector<Word>> rows;
    for (int t = 0; t < 7; ++t)
        rows.push_back(pixelWords(2048, 80 + t));
    return runKernelLoop(sys, kid, rows, {2048}, 8).gops;
}

double
gromacsRate(int dsqOccupancy)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.dsqOccupancy = dsqOccupancy;
    ImagineSystem sys(cfg);
    uint16_t kid = sys.registerKernel(gromacsForce());
    std::vector<std::pair<int, Word>> ucrs{
        {0, floatToWord(0.75f)}, {1, floatToWord(1.25f)},
        {2, floatToWord(9.0f)}, {3, floatToWord(7.5f)}};
    return runKernelLoop(sys, kid, {floatWords(8192, 70)}, {4096}, 6,
                         ucrs)
        .gflops;
}

double
depthCycles(const MachineConfig &cfg)
{
    ImagineSystem sys(cfg);
    apps::DepthConfig dc;
    dc.width = 512;
    dc.height = 46;
    dc.disparities = 8;
    return static_cast<double>(apps::runDepth(sys, dc).run.cycles);
}

/**
 * Cycles to complete two independent indexed (gather) loads; gathers
 * generate one address per AG per cycle, so this is where the second
 * AG pays off (strided bursts already saturate DRAM from one AG).
 */
double
dualLoadCycles(int ags)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.numAddressGenerators = ags;
    ImagineSystem sys(cfg);
    const uint32_t n = 8192;
    Rng rng(3);
    auto b = sys.newProgram();
    uint32_t i0 = b.alloc(n), i1 = b.alloc(n);
    uint32_t a0 = b.alloc(n), a1 = b.alloc(n);
    for (uint32_t i = 0; i < n; ++i) {
        sys.srf().write(i0 + i, rng.below(16));
        sys.srf().write(i1 + i, rng.below(16));
    }
    b.load(b.marIndexed(0), b.sdr(a0, n), b.sdr(i0, n));
    b.load(b.marIndexed(1 << 20), b.sdr(a1, n), b.sdr(i1, n));
    StreamProgram prog = b.take();
    return static_cast<double>(sys.run(prog).cycles);
}

double
srfCopyRate(int wordsPerCycle)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.srfBandwidthWordsPerCycle = wordsPerCycle;
    ImagineSystem sys(cfg);
    uint16_t kid = sys.registerKernel(srfCopy());
    return runKernelLoop(sys, kid, {pixelWords(8192)}, {8192}, 16, {},
                         true)
        .srfGBs;
}

} // namespace

int
main()
{
    header("Ablation 1: software pipelining (conv7x7 kernel)");
    double with = convRate(true), without = convRate(false);
    std::printf("with SWP %.2f GOPS, without %.2f GOPS -> %.2fx from "
                "modulo scheduling\n",
                with, without, with / without);

    header("Ablation 2: SRF aggregate bandwidth (srfCopy kernel)");
    for (int w : {4, 8, 16, 32})
        std::printf("  %2d words/cycle -> %.2f GB/s sustained\n", w,
                    srfCopyRate(w));

    header("Ablation 3: address generators (two independent indexed "
           "gathers)");
    {
        double c1 = dualLoadCycles(1), c2 = dualLoadCycles(2);
        std::printf("  1 AG: %.0f cycles (serialized), 2 AGs: %.0f "
                    "cycles (concurrent; %.2fx).  Strided bursts "
                    "saturate DRAM from one AG; gathers are "
                    "address-generation limited, which is what the "
                    "second AG doubles (cf. Figures 9 vs 10).\n",
                    c1, c2, c1 / c2);
    }

    header("Ablation 4: scoreboard depth (DEPTH application cycles)");
    for (int slots : {4, 8, 16, 32}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.scoreboardSlots = slots;
        std::printf("  %2d slots -> %.3fM cycles\n", slots,
                    depthCycles(cfg) / 1e6);
    }

    header("Ablation 5: pipelined divide/square-root (GROMACS kernel)");
    double nonPiped = gromacsRate(16), piped = gromacsRate(1);
    std::printf("non-pipelined DSQ (prototype): %.2f GFLOPS; fully "
                "pipelined: %.2f GFLOPS (%.2fx; confirms the paper's "
                "claim that GROMACS is DSQ-limited)\n",
                nonPiped, piped, piped / nonPiped);
    return 0;
}
