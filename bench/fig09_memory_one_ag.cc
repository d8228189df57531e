/**
 * @file
 * Figure 9: memory-system bandwidth vs stream length from a single
 * address generator, over the paper's six access patterns: unit stride,
 * stride 2, record 4 / stride 12, and indexed-random over ranges of 16
 * words, 2K words and 4M words.
 *
 * Shape targets: short streams are host-interface bound; long unit
 * stride approaches the 1.6 GB/s DRAM peak (less the precharge bug);
 * the 16-word index range is caught by the memory-controller cache and
 * asymptotes at the single-AG limit (0.8 GB/s); the 4M range is
 * row-miss bound.
 */

#include "mem_grid.hh"

#include <iterator>

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    header("Figure 9: Memory system performance from a single AG "
           "(GB/s)");
    const uint32_t lens[] = {8, 32, 128, 512, 2048, 8192, 16384};
    printMemGrid(lens, static_cast<int>(std::size(lens)), 1);
    std::printf("\nPaper shape: lengths < 64 host-interface bound; "
                "unit stride -> ~1.26 GB/s (precharge bug costs ~20%%); "
                "idx-16 hits the controller cache and is AG-limited "
                "(0.8 GB/s); idx-4M is row-miss bound.\n");
    return 0;
}
