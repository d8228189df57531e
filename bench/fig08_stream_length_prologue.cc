/**
 * @file
 * Figure 8: kernel performance vs stream length with the main loop
 * fixed at 32 cycles and the prologue swept from 8 to 256 cycles.
 *
 * Shape targets: below ~64 elements the host interface dominates (so
 * shorter prologues are *worse* - the clusters idle longer between
 * kernels); above it, the main-loop / non-main-loop ratio dominates
 * (so shorter prologues win).
 */

#include "bench_util.hh"

#include <iterator>

#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;

namespace
{

double
measure(int prologue, uint32_t streamLen)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t kid = sys.registerKernel(
        kernels::streamLength(32, prologue));
    std::vector<Word> in(streamLen, 1);
    int repeats = std::max<int>(8, static_cast<int>(65536 / streamLen));
    // Re-launch (not Restart) so every launch pays its prologue, as in
    // the paper's experiment.
    auto b = sys.newProgram();
    sys.memory().writeWords(0, in);
    uint32_t off = b.alloc(streamLen), out = b.alloc(streamLen);
    b.load(b.marStride(0), b.sdr(off, streamLen));
    for (int r = 0; r < repeats; ++r) {
        // ~5 stream instructions per launch, as in the paper.
        for (int u = 0; u < 4; ++u)
            b.ucr(u, static_cast<Word>(r));
        b.kernel(kid, {b.sdr(off, streamLen)}, {b.sdr(out, streamLen)},
                 "slen");
    }
    StreamProgram prog = b.take();
    return sys.run(prog).gops;
}

} // namespace

int
main()
{
    header("Figure 8: Kernel performance vs stream length "
           "(main loop fixed at 32 cycles)");
    const int prologues[] = {8, 16, 32, 64, 128, 256};
    const uint32_t lens[] = {8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                             4096};
    const int np = static_cast<int>(std::size(prologues));
    const int nl = static_cast<int>(std::size(lens));
    SimBatch batch;
    std::vector<double> gops =
        batch.run(np * nl, [&](int i) {
            return measure(prologues[i % np], lens[i / np]);
        });
    std::printf("%-10s", "len\\pro");
    for (int p : prologues)
        std::printf("%9d", p);
    std::printf("\n");
    for (int l = 0; l < nl; ++l) {
        std::printf("%-10u", lens[l]);
        for (int p = 0; p < np; ++p)
            std::printf("%9.2f", gops[static_cast<size_t>(l * np + p)]);
        std::printf("\n");
    }
    std::printf("\nGOPS; paper shape: for streams <= 64 shorter "
                "prologues perform WORSE (host bound); above 64 they "
                "perform better (non-main-loop fraction).\n");
    return 0;
}
