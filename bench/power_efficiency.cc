/**
 * @file
 * Section 5.6: power-efficiency comparison.  The peak-FLOPS cluster
 * benchmark yields GFLOPS/W and pJ per floating-point operation; the
 * paper then normalizes to a 0.13 um / 1.2 V process (cubic-ish
 * voltage-capacitance scaling factor of ~3.1x) and compares against
 * the published numbers for the TI C67x DSP and the Pentium M.
 */

#include "bench_util.hh"

#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t k = sys.registerKernel(kernels::peakFlops());
    const RunResult peak = runKernelLoop(sys, k, {floatWords(8192)},
                                         {8192}, 24, {}, true);

    header("Section 5.6: Power efficiency comparison");
    double gflopsPerW = peak.gflops / peak.watts;
    double pjPerFlop = 1e12 * peak.watts / (peak.gflops * 1e9);
    // The paper's normalization: 862 pJ at 0.18um/1.8V becomes 277 pJ
    // at 0.13um/1.2V - a factor of ~3.11.
    double normFactor = 862.0 / 277.0;
    double pjNormalized = pjPerFlop / normFactor;

    std::printf("Peak-FLOPS benchmark: %.2f GFLOPS at %.2f W\n",
                peak.gflops, peak.watts);
    std::printf("  -> %.2f GFLOPS/W, %.0f pJ/FLOP "
                "(paper: 1.16 GFLOPS/W, 862 pJ/FLOP)\n",
                gflopsPerW, pjPerFlop);
    std::printf("  -> normalized to 0.13um/1.2V: %.0f pJ/FLOP "
                "(paper: 277 pJ/FLOP)\n",
                pjNormalized);
    std::printf("\nPublished comparison points (0.13um-class, quoted "
                "by the paper):\n");
    std::printf("  TI C67x DSP (225 MHz):   889 pJ/FLOP  -> Imagine is "
                "%.1fx better\n",
                889.0 / pjNormalized);
    std::printf("  Pentium M (1.2 GHz):    3600 pJ/FLOP  -> Imagine is "
                "%.1fx better\n",
                3600.0 / pjNormalized);
    std::printf("\nPaper claim: 3x-13x better than power-efficient "
                "commercial processors of the same generation.\n");
    return 0;
}
