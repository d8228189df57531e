/**
 * @file
 * The canonical list of kernel-graph families the four applications are
 * built from, shared by every suite that sweeps "all kernels" (the rig
 * goldens, zero-trip launches and the fidelity differentials), and the
 * input pattern those sweeps feed them.  Kept in one place so a new
 * kernel family automatically joins every sweep.
 */

#ifndef IMAGINE_TESTS_APP_KERNELS_HH
#define IMAGINE_TESTS_APP_KERNELS_HH

#include <string>
#include <utility>
#include <vector>

#include "kernelc/dfg.hh"
#include "kernelc/schedule.hh"
#include "kernels/conv.hh"
#include "kernels/dct.hh"
#include "kernels/gromacs.hh"
#include "kernels/linalg.hh"
#include "kernels/microbench.hh"
#include "kernels/rle.hh"
#include "kernels/rtsl.hh"
#include "kernels/sad.hh"

namespace imagine::testutil
{

/** Every kernel-graph family the four applications are built from. */
inline std::vector<std::pair<std::string, kernelc::KernelGraph>>
allAppKernels()
{
    using namespace imagine::kernels;
    std::vector<std::pair<std::string, kernelc::KernelGraph>> ks;
    // DEPTH
    ks.emplace_back("conv7x7", conv7x7({1, 2, 3, 4, 3, 2, 1},
                                       {1, 2, 3, 4, 3, 2, 1}, 4));
    ks.emplace_back("conv3x3", conv3x3({1, 2, 1}, {1, 2, 1}, 2));
    ks.emplace_back("blockSad7x7", blockSad7x7());
    ks.emplace_back("sadUpdate", sadUpdate());
    ks.emplace_back("sadSearch", sadSearch());
    ks.emplace_back("blockSearch", blockSearch());
    // MPEG
    ks.emplace_back("colorConv", colorConv());
    ks.emplace_back("dct8x8", dct8x8());
    ks.emplace_back("idct8x8", idct8x8());
    ks.emplace_back("quantize", quantize());
    ks.emplace_back("dequantize", dequantize());
    ks.emplace_back("zigzag", zigzag());
    ks.emplace_back("rle", rle());
    ks.emplace_back("pixSub", pixSub());
    ks.emplace_back("pixAddClamp", pixAddClamp());
    ks.emplace_back("addClamp", addClamp());
    ks.emplace_back("mcIndex", mcIndex());
    // QRD
    ks.emplace_back("house", house());
    ks.emplace_back("houseApply", houseApply());
    ks.emplace_back("houseApply2", houseApply2());
    ks.emplace_back("panelDot", panelDot());
    ks.emplace_back("panelAxpy", panelAxpy());
    ks.emplace_back("panelAxpyDots", panelAxpyDots());
    ks.emplace_back("extractColumn", extractColumn());
    // RTSL
    ks.emplace_back("vertexTransform", vertexTransform());
    ks.emplace_back("cullTriangles", cullTriangles());
    ks.emplace_back("rasterize", rasterize());
    ks.emplace_back("shadeFragments", shadeFragments());
    ks.emplace_back("zCompare", zCompare());
    // Microbenchmarks / table kernels
    ks.emplace_back("peakFlops", peakFlops());
    ks.emplace_back("peakOps", peakOps());
    ks.emplace_back("commSort32", commSort32());
    ks.emplace_back("srfCopy", srfCopy());
    ks.emplace_back("streamLength", streamLength(8, 8));
    ks.emplace_back("gromacsForce", gromacsForce());
    return ks;
}

/**
 * Input streams for @p k at @p trip: bounded values, so packed 8/16-bit
 * kernels see plausible pixels and float kernels see denormals rather
 * than NaN-adjacent garbage.
 */
inline std::vector<std::vector<Word>>
patternInputs(const kernelc::CompiledKernel &k, uint32_t trip)
{
    std::vector<std::vector<Word>> inputs;
    for (int s = 0; s < k.graph.numInStreams; ++s) {
        std::vector<Word> data(trip *
                               static_cast<uint32_t>(k.graph.inRec[s]) *
                               numClusters);
        for (uint32_t i = 0; i < data.size(); ++i)
            data[i] = (i * 37u + static_cast<uint32_t>(s) * 11u) % 251u;
        inputs.push_back(std::move(data));
    }
    return inputs;
}

} // namespace imagine::testutil

#endif // IMAGINE_TESTS_APP_KERNELS_HH
