/**
 * @file
 * The Figure 9/10 memory grid: the paper's six access patterns, the
 * bandwidth of repeated host-issued loads over one or two address
 * generators, and the batched patterns x lengths table that the
 * Figure 9 and Figure 10 views print.
 */

#ifndef IMAGINE_BENCH_MEM_GRID_HH
#define IMAGINE_BENCH_MEM_GRID_HH

#include "bench_util.hh"

namespace imagine::bench
{

struct MemPattern
{
    const char *name;
    uint32_t stride, record;
    uint32_t idxRange;      ///< 0 = strided pattern
};

inline const std::vector<MemPattern> &
memPatterns()
{
    static const std::vector<MemPattern> p = {
        {"record 1, stride 1", 1, 1, 0},
        {"record 1, stride 2", 2, 1, 0},
        {"record 4, stride 12", 12, 4, 0},
        {"idx range 16", 0, 1, 16},
        {"idx range 2K", 0, 1, 2048},
        {"idx range 4M", 0, 1, 4u << 20},
    };
    return p;
}

/**
 * GB/s of @p ags concurrent loads of @p len words with pattern @p pat,
 * issued repeatedly from the host like the paper's micro-benchmark.
 */
inline double
memBandwidth(const MemPattern &pat, uint32_t len, int ags)
{
    ImagineSystem sys(MachineConfig::devBoard());
    auto b = sys.newProgram();
    int repeats = std::max<int>(2, static_cast<int>(32768 / len));
    std::vector<int> idxSdr(static_cast<size_t>(ags), -1);
    std::vector<uint32_t> dst(static_cast<size_t>(ags));
    Rng rng(17);
    for (int a = 0; a < ags; ++a) {
        dst[a] = b.alloc(len);
        if (pat.idxRange) {
            uint32_t records = len / pat.record;
            uint32_t off = b.alloc(records);
            for (uint32_t i = 0; i < records; ++i)
                sys.srf().write(off + i, rng.below(pat.idxRange));
            idxSdr[a] = b.sdr(off, records);
        }
    }
    for (int r = 0; r < repeats; ++r) {
        for (int a = 0; a < ags; ++a) {
            // Disjoint bases so the streams advance without aliasing.
            Addr base = static_cast<Addr>(a) * (8u << 20);
            if (pat.idxRange) {
                b.load(b.marIndexed(base, pat.record),
                       b.sdr(dst[a], len), idxSdr[a], "idxload");
            } else {
                b.load(b.marStride(base, pat.stride, pat.record),
                       b.sdr(dst[a], len), -1, "load");
            }
        }
    }
    StreamProgram prog = b.take();
    return sys.run(prog).memGBs;
}

/** Batch the full patterns x lengths grid for @p ags AGs and print it. */
inline void
printMemGrid(const uint32_t *lens, int nl, int ags)
{
    const auto &pats = memPatterns();
    const int np = static_cast<int>(pats.size());
    SimBatch batch;
    std::vector<double> gbs = batch.run(np * nl, [&](int i) {
        return memBandwidth(pats[static_cast<size_t>(i / nl)],
                            lens[i % nl], ags);
    });
    std::printf("%-22s", "pattern\\len");
    for (int l = 0; l < nl; ++l)
        std::printf("%8u", lens[l]);
    std::printf("\n");
    for (int p = 0; p < np; ++p) {
        std::printf("%-22s", pats[static_cast<size_t>(p)].name);
        for (int l = 0; l < nl; ++l)
            std::printf("%8.3f", gbs[static_cast<size_t>(p * nl + l)]);
        std::printf("\n");
    }
}

} // namespace imagine::bench

#endif // IMAGINE_BENCH_MEM_GRID_HH
