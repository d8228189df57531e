/**
 * @file
 * Figure 10: memory-system bandwidth vs stream length with both
 * address generators active.
 *
 * Shape targets: bank-conflict-free patterns reach higher bandwidth
 * than a single AG; the small-index-range pattern now asymptotes near
 * the full 1.6 GB/s peak (two AGs x 1 word/cycle, served from the
 * memory-controller cache).
 */

#include "mem_grid.hh"

#include <iterator>

using namespace imagine;
using namespace imagine::bench;

int
main()
{
    header("Figure 10: Memory system performance from two AGs (GB/s)");
    const uint32_t lens[] = {8, 32, 128, 512, 2048, 4096, 8192};
    printMemGrid(lens, static_cast<int>(std::size(lens)), 2);
    std::printf("\nPaper shape: higher bandwidth than one AG when the "
                "two streams avoid bank conflicts; idx-16 approaches "
                "the 1.6 GB/s peak asymptotically.\n");
    return 0;
}
