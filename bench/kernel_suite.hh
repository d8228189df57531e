/**
 * @file
 * The Table 2 kernel suite: runs each representative media/scientific
 * kernel standalone on SRF-resident data at application-like stream
 * lengths.  The paper executable runs it once; the Table 2, Figure 6
 * and Ablation 5 views read it.
 */

#ifndef IMAGINE_BENCH_KERNEL_SUITE_HH
#define IMAGINE_BENCH_KERNEL_SUITE_HH

#include "bench_util.hh"

#include "kernels/conv.hh"
#include "kernels/dct.hh"
#include "kernels/gromacs.hh"
#include "kernels/linalg.hh"
#include "kernels/rle.hh"
#include "kernels/sad.hh"

namespace imagine::bench
{

/** GROMACS's parameter writes: C12, C6, 12*C12 and 6*C6. */
inline std::vector<std::pair<int, Word>>
gromacsUcrs()
{
    return {{0, floatToWord(0.75f)},
            {1, floatToWord(1.25f)},
            {2, floatToWord(9.0f)},
            {3, floatToWord(7.5f)}};
}

struct KernelRun
{
    std::string name;
    RunResult run;
    double paperRate;       ///< Table 2 ALU column (-1 if garbled away)
    bool fp;
    double rate() const { return fp ? run.gflops : run.gops; }
};

inline std::vector<KernelRun>
runKernelSuite()
{
    using namespace imagine::kernels;
    std::vector<KernelRun> out;

    auto add = [&](const std::string &name, kernelc::KernelGraph g,
                   std::vector<std::vector<Word>> inputs,
                   std::vector<uint32_t> outCaps, int repeats,
                   std::vector<std::pair<int, Word>> ucrs,
                   double paperRate, bool fp) {
        ImagineSystem sys(MachineConfig::devBoard());
        uint16_t kid = sys.registerKernel(std::move(g));
        KernelRun kr;
        kr.name = name;
        kr.run = runKernelLoop(sys, kid, inputs, outCaps, repeats, ucrs);
        kr.paperRate = paperRate;
        kr.fp = fp;
        out.push_back(std::move(kr));
    };

    const std::array<int16_t, 7> c7{1, 2, 3, 4, 3, 2, 1};

    add("2D DCT", dct8x8(), {pixelWords(8192)}, {8192}, 4, {}, 6.92,
        false);
    {
        std::vector<std::vector<Word>> ins{pixelWords(4096, 1)};
        for (int k = 0; k < 4; ++k)
            ins.push_back(pixelWords(4096, 2 + k));
        std::vector<Word> best(256);
        for (size_t i = 0; i < best.size(); i += 2) {
            best[i] = intToWord(1 << 24);
            best[i + 1] = 0;
        }
        ins.push_back(best);
        add("blocksearch", blockSearch(), ins, {256}, 8, {{0, 0}}, 9.62,
            false);
    }
    {
        Rng rng(5);
        std::vector<Word> in(8192);
        for (auto &w : in)
            w = rng.below(4);
        add("RLE", rle(), {in}, {8192 + 64}, 4, {}, 1.21, false);
    }
    {
        std::vector<std::vector<Word>> rows;
        for (int t = 0; t < 7; ++t)
            rows.push_back(pixelWords(2048, 20 + t));
        add("conv7x7", conv7x7(c7, c7, 8), rows, {2048}, 8, {}, -1,
            false);
    }
    {
        std::vector<std::vector<Word>> rows;
        for (int t = 0; t < 14; ++t)
            rows.push_back(pixelWords(1024, 40 + t));
        add("blocksad", blockSad7x7(), rows, {1024}, 8, {}, 4.05,
            false);
    }
    add("house", house(), {floatWords(8192)}, {}, 8, {}, 3.67, true);
    {
        std::vector<std::pair<int, Word>> ucrs;
        for (int k = 0; k < 8; ++k)
            ucrs.push_back({ucrDotBase + k,
                            floatToWord(0.25f + 0.1f * k)});
        add("update2", panelAxpyDots(),
            {floatWords(1024, 60), floatWords(8192, 61)}, {8192}, 6,
            ucrs, -1, true);
    }
    add("GROMACS", gromacsForce(), {floatWords(8192, 70)}, {4096}, 6,
        gromacsUcrs(), 2.24, true);
    return out;
}

} // namespace imagine::bench

#endif // IMAGINE_BENCH_KERNEL_SUITE_HH
