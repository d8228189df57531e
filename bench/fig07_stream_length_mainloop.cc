/**
 * @file
 * Figure 7: kernel performance vs stream length with the prologue fixed
 * at 64 cycles and the main-loop II swept from 8 to 256 cycles
 * (section 3.3's parameterized kernel: the main loop sustains
 * 4.8 GOPS, the non-main-loop portion 1.6 GOPS).
 *
 * Shape targets: short streams hurt short-main-loop kernels most;
 * below ~64 elements performance is host-interface limited (a kernel
 * needs ~5 stream instructions at ~500 ns each before it can start).
 */

#include "bench_util.hh"

#include <iterator>

#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

/** GOPS of the parameterized kernel repeatedly issued from the host. */
double
measure(int mainLoop, int prologue, uint32_t streamLen)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t kid = sys.registerKernel(
        kernels::streamLength(mainLoop, prologue));
    std::vector<Word> in(streamLen, 1);
    // Repeat enough launches to amortize setup and expose the host
    // interface (section 3.3: "average performance is measured over a
    // time period when this kernel is repeatedly issued").  Every
    // launch pays its prologue, as in the paper's experiment.
    int repeats = std::max<int>(8, static_cast<int>(65536 / streamLen));
    sys.memory().writeWords(0, in);
    auto b = sys.newProgram();
    uint32_t off = b.alloc(streamLen), out = b.alloc(streamLen);
    b.load(b.marStride(0), b.sdr(off, streamLen));
    for (int r = 0; r < repeats; ++r) {
        // The paper's kernel needs ~5 stream instructions per launch.
        for (int u = 0; u < 4; ++u)
            b.ucr(u, static_cast<Word>(r));
        b.kernel(kid, {b.sdr(off, streamLen)},
                 {b.sdr(out, streamLen)}, "slen");
    }
    StreamProgram prog = b.take();
    return sys.run(prog).gops;
}

} // namespace

int
main()
{
    header("Figure 7: Kernel performance vs stream length "
           "(prologue fixed at 64 cycles)");
    const int mains[] = {8, 16, 32, 64, 128, 256};
    const uint32_t lens[] = {8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                             4096};
    const int nm = static_cast<int>(std::size(mains));
    const int nl = static_cast<int>(std::size(lens));
    // Every cell is an independent session: batch the whole grid.
    SimBatch batch;
    std::vector<double> gops =
        batch.run(nm * nl, [&](int i) {
            return measure(mains[i % nm], 64, lens[i / nm]);
        });
    std::printf("%-10s", "len\\main");
    for (int m : mains)
        std::printf("%9d", m);
    std::printf("%10s\n", "ideal");
    for (int l = 0; l < nl; ++l) {
        std::printf("%-10u", lens[l]);
        for (int m = 0; m < nm; ++m)
            std::printf("%9.2f", gops[static_cast<size_t>(l * nm + m)]);
        std::printf("%10.2f\n", 4.8);
    }
    std::printf("\nGOPS; paper shape: ideal 4.8 GOPS, short streams "
                "hit short main loops hardest, and lengths <= 64 are "
                "host-interface bound.\n");
    return 0;
}
