/**
 * @file
 * Every table and figure of the paper from one process.
 *
 * Each table or figure is a view: a function that prints it, with the
 * paper's reference values alongside, from simulations.  The runs that
 * more than one view reads are made once, up front, in the RunTable:
 * the four applications per machine preset, the Table 2 kernel suite,
 * the peak-FLOPS kernel loop and the Figure 7/8 stream-length grid.
 * A run that only one view reads stays inside that view.  main() prints
 * the views in a fixed order and exits nonzero once any run failed its
 * check (each failure is named on stderr as "FAIL: ...").
 *
 * The output does not depend on the thread count (SimBatch collects
 * results in index order), so ctest compares it byte for byte with the
 * committed ledger bench/paper.txt.
 */

#include "kernel_suite.hh"
#include "mem_grid.hh"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <tuple>

#include "kernels/microbench.hh"

using namespace imagine;
using namespace imagine::bench;
using namespace imagine::kernels;

namespace
{

// ---------------------------------------------------------------------
// The run table
// ---------------------------------------------------------------------

/** The four applications' results on one machine preset. */
struct AppRuns
{
    apps::AppResult depth, mpeg, qrd, rtsl;
};

/** Figure 7 sweeps the main loop at prologue 64 ... */
constexpr int kMainLoops[] = {8, 16, 32, 64, 128, 256};
/** ... and Figure 8 the prologue at main loop 32. */
constexpr int kPrologues[] = {8, 16, 32, 64, 128, 256};
constexpr uint32_t kStreamLens[] = {8,   16,  32,   64,   128,
                                    256, 512, 1024, 2048, 4096};

/** (main-loop cycles, prologue cycles, stream length) */
using StreamCell = std::tuple<int, int, uint32_t>;

/** The simulations that more than one view reads, each run once. */
struct RunTable
{
    AppRuns lab;                    ///< devBoard() preset
    AppRuns isim;                   ///< isim() preset
    std::vector<KernelRun> kernels; ///< Table 2 suite
    RunResult peakFlops;            ///< Table 1 FLOPS row, section 5.6
    std::map<StreamCell, double> streamGops;    ///< Figures 7 and 8
};

/**
 * GOPS of section 3.3's parameterized kernel (main-loop II
 * @p mainLoop, a @p prologue-cycle prologue) repeatedly issued from the
 * host on @p len-element streams.
 */
double
streamLengthGops(int mainLoop, int prologue, uint32_t len)
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t kid =
        sys.registerKernel(kernels::streamLength(mainLoop, prologue));
    std::vector<Word> in(len, 1);
    // Repeat enough launches to amortize setup and expose the host
    // interface (section 3.3: "average performance is measured over a
    // time period when this kernel is repeatedly issued").  Every
    // launch is a re-launch, not a Restart, so it pays its prologue, as
    // in the paper's experiment.
    int repeats = std::max<int>(8, static_cast<int>(65536 / len));
    sys.memory().writeWords(0, in);
    auto b = sys.newProgram();
    uint32_t off = b.alloc(len), out = b.alloc(len);
    b.load(b.marStride(0), b.sdr(off, len));
    for (int r = 0; r < repeats; ++r) {
        // The paper's kernel needs ~5 stream instructions per launch.
        for (int u = 0; u < 4; ++u)
            b.ucr(u, static_cast<Word>(r));
        b.kernel(kid, {b.sdr(off, len)}, {b.sdr(out, len)}, "slen");
    }
    StreamProgram prog = b.take();
    return sys.run(prog).gops;
}

/** Figures 7 and 8's cells; they share the (32, 64) column. */
std::map<StreamCell, double>
runStreamGrid()
{
    std::set<StreamCell> cells;
    for (uint32_t len : kStreamLens) {
        for (int m : kMainLoops)
            cells.insert({m, 64, len});
        for (int p : kPrologues)
            cells.insert({32, p, len});
    }
    // Longest main loops first, so the batch does not end on them.
    const std::vector<StreamCell> list(cells.rbegin(), cells.rend());
    SimBatch batch;
    std::vector<double> gops =
        batch.run(static_cast<int>(list.size()), [&](int i) {
            auto [m, p, len] = list[static_cast<size_t>(i)];
            return streamLengthGops(m, p, len);
        });
    std::map<StreamCell, double> out;
    for (size_t i = 0; i < list.size(); ++i)
        out[list[i]] = gops[i];
    return out;
}

/** The peak-FLOPS kernel on SRF-resident data, restarted 24 times. */
RunResult
runPeakFlops()
{
    ImagineSystem sys(MachineConfig::devBoard());
    uint16_t k = sys.registerKernel(peakFlops());
    return runKernelLoop(sys, k, {floatWords(8192)}, {8192}, 24, {},
                         true);
}

RunTable
runTable()
{
    RunTable t;
    // The four apps on both presets, each on a fresh system; every app
    // that does not validate counts as a failed check.
    SimBatch batch;
    std::vector<apps::AppResult> rs = batch.run(8, [](int i) {
        ImagineSystem sys(i < 4 ? MachineConfig::devBoard()
                                : MachineConfig::isim());
        switch (i % 4) {
          case 0: return apps::runDepth(sys);
          case 1: return apps::runMpeg(sys);
          case 2: return apps::runQrd(sys);
          default: return apps::runRtsl(sys);
        }
    });
    const char *names[] = {"DEPTH", "MPEG", "QRD", "RTSL"};
    for (size_t i = 0; i < rs.size(); ++i)
        expectValid(rs[i],
                    std::string(names[i % 4]) + (i < 4 ? "" : " on isim"));
    t.lab = {std::move(rs[0]), std::move(rs[1]), std::move(rs[2]),
             std::move(rs[3])};
    t.isim = {std::move(rs[4]), std::move(rs[5]), std::move(rs[6]),
              std::move(rs[7])};

    t.kernels = runKernelSuite();
    t.peakFlops = runPeakFlops();
    t.streamGops = runStreamGrid();
    return t;
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

struct ComponentRow
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

std::vector<ComponentRow>
clusterPeaks(const RunResult &peak)
{
    std::vector<ComponentRow> rows;
    const size_t n = 8192;
    const MachineConfig cfg = MachineConfig::devBoard();
    {
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(peakOps());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 24,
                                    {}, true);
        rows.push_back({"Cluster (OPS)", r.gops, cfg.peakOps() / 1e9,
                        "GOPS", r.watts, 25.4, 25.7, 5.79});
    }
    rows.push_back({"Cluster (FLOPS)", peak.gflops,
                    cfg.peakFlops() / 1e9, "GFLOPS", peak.watts, 7.96,
                    8.13, 6.88});
    {
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(commSort32());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 12,
                                    {}, true);
        rows.push_back({"Inter-cluster comm.", commOpsPerCycle(r), 8.0,
                        "ops/cycle", r.watts, 7.84, 8.00, 8.53});
    }
    {
        ImagineSystem sys(cfg);
        uint16_t k = sys.registerKernel(srfCopy());
        RunResult r = runKernelLoop(sys, k, {pixelWords(n)}, {n}, 24,
                                    {}, true);
        rows.push_back({"SRF", r.srfGBs, cfg.peakSrfBytes() / 1e9,
                        "GB/s", r.watts, 12.7, 12.8, 5.79});
    }
    return rows;
}

ComponentRow
memoryPeak()
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

ComponentRow
hostPeak()
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

/**
 * Table 1: peak performance and power of each Imagine component,
 * measured with the synthetic micro-benchmarks of section 3.1:
 * packed-integer peak, floating-point peak, the COMM-saturating bitonic
 * sort, SRF copy, dual random-address memory loads, and a host-
 * interface register-write flood.  Also reproduces the <6% dynamic
 * microcode-load degradation claim (section 2.3).
 */
void
table1Components(const RunTable &t)
{
    std::vector<ComponentRow> rows = clusterPeaks(t.peakFlops);
    rows.push_back(memoryPeak());
    rows.push_back(hostPeak());

    header("Table 1: Performance of Imagine components "
           "(this reproduction vs paper)");
    std::printf("%-22s %22s %10s %22s %10s\n", "Component",
                "measured (ach/theor)", "W", "paper (ach/theor)", "W");
    for (const ComponentRow &r : rows) {
        std::printf("%-22s %9.2f / %-7.2f %-4s %6.2f %9.2f / %-7.2f "
                    "%6.2f\n",
                    r.name, r.achieved, r.theoretical, r.unit, r.watts,
                    r.paperAchieved, r.paperTheoretical, r.paperWatts);
    }
    double thrash = microcodeThrash();
    std::printf("\nDynamic microcode load degradation: %.1f%% "
                "(paper: < 6%%)\n",
                100.0 * thrash);
}

// ---------------------------------------------------------------------
// Table 2 and Figure 6: the kernel suite
// ---------------------------------------------------------------------

/**
 * Table 2: performance, register bandwidth, IPC and power of the
 * representative media/scientific kernels.
 *
 * Shape targets from the paper: kernels other than RLE and GROMACS
 * reach IPC > 35; more than 95% of data accesses hit the LRFs; average
 * SRF demand sits well below the 12.8 GB/s peak; kernels average ~43%
 * of peak arithmetic rate.
 */
void
table2Kernels(const RunTable &t)
{
    const std::vector<KernelRun> &suite = t.kernels;

    header("Table 2: Performance of representative kernels");
    std::printf("%-12s %10s %9s %9s %7s %7s %9s %9s\n", "Kernel", "ALU",
                "LRF GB/s", "SRF GB/s", "IPC", "W", "LRF share",
                "paper ALU");
    double lrfShareMin = 1.0, ipcSum = 0;
    int highIpc = 0;
    for (const KernelRun &k : suite) {
        double share = k.run.lrfGBs / (k.run.lrfGBs + k.run.srfGBs +
                                       k.run.memGBs);
        lrfShareMin = std::min(lrfShareMin, share);
        ipcSum += k.run.ipc;
        if (k.run.ipc > 35)
            ++highIpc;
        std::printf("%-12s %6.2f %-3s %9.1f %9.2f %7.1f %7.2f %8.1f%% ",
                    k.name.c_str(), k.rate(),
                    k.fp ? "GF" : "GOP", k.run.lrfGBs, k.run.srfGBs,
                    k.run.ipc, k.run.watts, 100.0 * share);
        if (k.paperRate >= 0)
            std::printf("%9.2f\n", k.paperRate);
        else
            std::printf("%9s\n", "-");
    }
    std::printf("\nKernels with IPC > 35: %d of %zu "
                "(paper: all but RLE and GROMACS)\n",
                highIpc, suite.size());
    std::printf("Minimum LRF share of register traffic: %.1f%% "
                "(paper: > 95%% of accesses are LRF)\n",
                100.0 * lrfShareMin);
    std::printf("Mean IPC: %.1f\n", ipcSum / suite.size());

    double peakShareSum = 0;
    for (const KernelRun &k : suite) {
        double peak = k.fp ? 8.0 : 25.6;
        peakShareSum += k.rate() / peak;
    }
    std::printf("Average fraction of peak arithmetic rate: %.1f%% "
                "(paper: 43%%)\n",
                100.0 * peakShareSum / suite.size());
}

/**
 * Figure 6: kernel run-time breakdown into operations (ideal time for
 * the arithmetic executed), main-loop overhead (limited ILP + load
 * imbalance between unit types), non-main-loop time (prologue,
 * epilogue, startup/shutdown, software-pipeline priming) and cluster
 * stalls (SRF waits).
 *
 * Shape targets: update2's main loop is multiplier-limited; RLE is
 * scratchpad-bound and GROMACS divide/square-root-bound (both with
 * large main-loop overhead); cluster stalls stay under ~5% everywhere.
 */
void
fig06KernelBreakdown(const RunTable &t)
{
    const std::vector<KernelRun> &suite = t.kernels;

    header("Figure 6: Breakdown of kernel performance (% of kernel "
           "run time)");
    std::printf("%-12s %11s %12s %13s %9s\n", "Kernel", "operations",
                "main-loop ovh", "non-main-loop", "stalls");
    double acc[4] = {};
    for (const KernelRun &k : suite) {
        const ExecBreakdown &b = k.run.breakdown;
        double kt = static_cast<double>(b.kernelTime());
        double p[4] = {100.0 * b.operations / kt,
                       100.0 * b.mainLoopOverhead / kt,
                       100.0 * b.nonMainLoop / kt,
                       100.0 * b.clusterStall / kt};
        std::printf("%-12s %10.1f%% %11.1f%% %12.1f%% %8.1f%%\n",
                    k.name.c_str(), p[0], p[1], p[2], p[3]);
        for (int i = 0; i < 4; ++i)
            acc[i] += p[i];
    }
    auto n = static_cast<double>(suite.size());
    std::printf("%-12s %10.1f%% %11.1f%% %12.1f%% %8.1f%%\n", "Average",
                acc[0] / n, acc[1] / n, acc[2] / n, acc[3] / n);
    std::printf("\nPaper shape: operations+overhead dominate; "
                "non-main-loop shrinks with stream length; stalls < "
                "5%% of kernel cycles.\n");
}

// ---------------------------------------------------------------------
// Figures 7 and 8: stream length
// ---------------------------------------------------------------------

/**
 * Figure 7: kernel performance vs stream length with the prologue fixed
 * at 64 cycles and the main-loop II swept from 8 to 256 cycles
 * (section 3.3's parameterized kernel: the main loop sustains
 * 4.8 GOPS, the non-main-loop portion 1.6 GOPS).
 *
 * Shape targets: short streams hurt short-main-loop kernels most;
 * below ~64 elements performance is host-interface limited (a kernel
 * needs ~5 stream instructions at ~500 ns each before it can start).
 */
void
fig07StreamLengthMainLoop(const RunTable &t)
{
    header("Figure 7: Kernel performance vs stream length "
           "(prologue fixed at 64 cycles)");
    std::printf("%-10s", "len\\main");
    for (int m : kMainLoops)
        std::printf("%9d", m);
    std::printf("%10s\n", "ideal");
    for (uint32_t len : kStreamLens) {
        std::printf("%-10u", len);
        for (int m : kMainLoops)
            std::printf("%9.2f", t.streamGops.at({m, 64, len}));
        std::printf("%10.2f\n", 4.8);
    }
    std::printf("\nGOPS; paper shape: ideal 4.8 GOPS, short streams "
                "hit short main loops hardest, and lengths <= 64 are "
                "host-interface bound.\n");
}

/**
 * Figure 8: kernel performance vs stream length with the main loop
 * fixed at 32 cycles and the prologue swept from 8 to 256 cycles.
 *
 * Shape targets: below ~64 elements the host interface dominates (so
 * shorter prologues are *worse* - the clusters idle longer between
 * kernels); above it, the main-loop / non-main-loop ratio dominates
 * (so shorter prologues win).
 */
void
fig08StreamLengthPrologue(const RunTable &t)
{
    header("Figure 8: Kernel performance vs stream length "
           "(main loop fixed at 32 cycles)");
    std::printf("%-10s", "len\\pro");
    for (int p : kPrologues)
        std::printf("%9d", p);
    std::printf("\n");
    for (uint32_t len : kStreamLens) {
        std::printf("%-10u", len);
        for (int p : kPrologues)
            std::printf("%9.2f", t.streamGops.at({32, p, len}));
        std::printf("\n");
    }
    std::printf("\nGOPS; paper shape: for streams <= 64 shorter "
                "prologues perform WORSE (host bound); above 64 they "
                "perform better (non-main-loop fraction).\n");
}

// ---------------------------------------------------------------------
// Figures 9 and 10: the memory system
// ---------------------------------------------------------------------

/**
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
void
fig09MemoryOneAg()
{
    header("Figure 9: Memory system performance from a single AG "
           "(GB/s)");
    const uint32_t lens[] = {8, 32, 128, 512, 2048, 8192, 16384};
    printMemGrid(lens, static_cast<int>(std::size(lens)), 1);
    std::printf("\nPaper shape: lengths < 64 host-interface bound; "
                "unit stride -> ~1.26 GB/s (precharge bug costs ~20%%); "
                "idx-16 hits the controller cache and is AG-limited "
                "(0.8 GB/s); idx-4M is row-miss bound.\n");
}

/**
 * Figure 10: memory-system bandwidth vs stream length with both
 * address generators active.
 *
 * Shape targets: bank-conflict-free patterns reach higher bandwidth
 * than a single AG; the small-index-range pattern now asymptotes near
 * the full 1.6 GB/s peak (two AGs x 1 word/cycle, served from the
 * memory-controller cache).
 */
void
fig10MemoryTwoAg()
{
    header("Figure 10: Memory system performance from two AGs (GB/s)");
    const uint32_t lens[] = {8, 32, 128, 512, 2048, 4096, 8192};
    printMemGrid(lens, static_cast<int>(std::size(lens)), 2);
    std::printf("\nPaper shape: higher bandwidth than one AG when the "
                "two streams avoid bank conflicts; idx-16 approaches "
                "the 1.6 GB/s peak asymptotically.\n");
}

// ---------------------------------------------------------------------
// Table 3 and Figures 11-13, Tables 4-5: the applications
// ---------------------------------------------------------------------

/**
 * Table 3: full-application performance - arithmetic rate, IPC, a
 * real-time summary, and power - for DEPTH, MPEG, QRD and RTSL.
 *
 * Shape targets: MPEG has the highest GOPS; QRD the highest fraction
 * of peak (it is float-dominated); RTSL is far below the others; all
 * three video applications exceed real-time rates; applications sit
 * between roughly 16% and 60% of peak arithmetic rate.
 */
void
table3Apps(const RunTable &t)
{
    const AppRuns &runs = t.lab;
    auto row = [](const char *name, const apps::AppResult &r, bool fp,
                  const char *paper) {
        std::printf("%-6s %6.2f %-7s %6.1f %6.2fW  ok=%d  %-44s %s\n",
                    name, fp ? r.run.gflops : r.run.gops,
                    fp ? "GFLOPS" : "GOPS", r.run.ipc, r.run.watts,
                    static_cast<int>(r.validated), r.summary.c_str(),
                    paper);
    };

    header("Table 3: Application performance");
    std::printf("%-6s %6s %-7s %6s %8s %6s %-44s %s\n", "App", "ALU",
                "", "IPC", "Power", "", "summary (this reproduction)",
                "paper");
    row("DEPTH", runs.depth, false,
        "4.91 GOPS, 41.3 IPC, 212 fps, 7.49 W");
    row("MPEG", runs.mpeg, false,
        "7.36 GOPS, 33.3 IPC, 138 fps, 6.80 W");
    row("QRD", runs.qrd, true,
        "4.81 GFLOPS, 40.1 IPC, 326 QRD/s, 7.42 W");
    row("RTSL", runs.rtsl, false,
        "1.30 GOPS, 14.1 IPC, 44.9 fps, 5.91 W");

    double peakOps = 25.6, peakFlops = 8.0;
    std::printf("\nFraction of peak arithmetic rate (paper: 16%%-60%%, "
                "RTSL lowest):\n");
    std::printf("  DEPTH %.0f%%  MPEG %.0f%%  QRD %.0f%%  RTSL %.0f%%\n",
                100 * runs.depth.run.gops / peakOps,
                100 * runs.mpeg.run.gops / peakOps,
                100 * runs.qrd.run.gflops / peakFlops,
                100 * runs.rtsl.run.gops / peakOps);

    // Design-space sweep at the sampled fidelity tier (DESIGN.md
    // section 12): apps x machine shapes over one SimBatch, on the
    // fidelity-stress app shapes whose loops actually fold.  Cycle
    // counts here are estimates with per-kernel error bounds; the
    // point of the section is sweep throughput, not headline numbers.
    header("Sampled-tier DSE sweep (apps x machine shapes)");
    const char *appNames[] = {"DEPTH", "MPEG", "QRD", "RTSL"};
    std::vector<MachineShape> shapes;
    for (const MachineShape &s : machineShapes())
        if (std::string(s.name) == "baseline" ||
            std::string(s.name) == "wide_cluster" ||
            std::string(s.name) == "narrow_srf" ||
            std::string(s.name) == "two_channels")
            shapes.push_back(s);
    SimBatch batch;
    auto sweep = batch.runSettled(
        static_cast<int>(shapes.size()) * 4, [&](int i) {
            MachineConfig cfg =
                shapes[static_cast<size_t>(i) / 4].cfg;
            cfg.srfSizeWords = 4u * 1024 * 1024;
            cfg.fidelity = Fidelity::Sampled;
            ImagineSystem sys(cfg);
            return runStressApp(sys, i % 4);
        });
    std::printf("%-14s %-6s %12s %10s %9s\n", "shape", "app",
                "est. cycles", "folded", "maxBound");
    for (size_t i = 0; i < sweep.size(); ++i) {
        const char *shape = shapes[i / 4].name;
        const char *app = appNames[i % 4];
        if (!sweep[i].ok()) {
            std::printf("%-14s %-6s ERR: %s\n", shape, app,
                        sweep[i].error->what());
            fail(std::string(app) + " on " + shape + " errored");
            continue;
        }
        const RunResult &r = sweep[i].value->run;
        // Golden validation fails by design on folded outputs (DESIGN.md
        // section 12): only a run that folded nothing must validate.
        if (r.estimatedCycles == 0)
            expectValid(*sweep[i].value,
                        std::string(app) + " on " + shape);
        double folded =
            r.cycles ? static_cast<double>(r.estimatedCycles) /
                           static_cast<double>(r.cycles)
                     : 0.0;
        double maxBound = 0.0;
        for (const KernelFoldRecord &k : r.kernelFolds)
            maxBound = std::max(maxBound, k.errorBound);
        std::printf("%-14s %-6s %12llu %9.1f%% %8.2f%%\n", shape, app,
                    static_cast<unsigned long long>(r.cycles),
                    100.0 * folded, 100.0 * maxBound);
    }
}

/**
 * Figure 11: application execution-time breakdown into the paper's
 * eight categories (operations, kernel main-loop overhead, kernel
 * non-main-loop, cluster stalls, microcode-load stalls, memory stalls,
 * stream-controller overhead, host-bandwidth stalls), attributed with
 * the paper's priority rule.  The paper's figure comes from
 * cycle-accurate simulation, so the ISIM preset is used here too.
 *
 * Shape targets: kernel run time covers ~90% of execution for all
 * applications except RTSL; RTSL's non-kernel overhead is dominated by
 * memory stalls and host-dependency stalls.
 */
void
fig11AppBreakdown(const RunTable &t)
{
    double acc[8] = {};
    auto row = [&acc](const char *name, const apps::AppResult &r) {
        const ExecBreakdown &b = r.run.breakdown;
        auto tot = static_cast<double>(r.run.cycles);
        double p[8] = {100.0 * b.operations / tot,
                       100.0 * b.mainLoopOverhead / tot,
                       100.0 * b.nonMainLoop / tot,
                       100.0 * b.clusterStall / tot,
                       100.0 * b.ucodeStall / tot,
                       100.0 * b.memStall / tot,
                       100.0 * b.scOverhead / tot,
                       100.0 * b.hostStall / tot};
        std::printf("%-8s", name);
        for (int i = 0; i < 8; ++i) {
            std::printf("%8.1f", p[i]);
            acc[i] += p[i];
        }
        double nonKernel = p[4] + p[5] + p[6] + p[7];
        std::printf("   (non-kernel %.1f%%)\n", nonKernel);
    };

    header("Figure 11: Execution time breakdown of applications "
           "(ISIM preset; % of total cycles)");
    std::printf("%-8s%8s%8s%8s%8s%8s%8s%8s%8s\n", "App", "ops",
                "ml-ovh", "nonML", "clstall", "ucode", "mem", "sc",
                "host");
    row("DEPTH", t.isim.depth);
    row("MPEG", t.isim.mpeg);
    row("QRD", t.isim.qrd);
    row("RTSL", t.isim.rtsl);
    std::printf("%-8s", "Average");
    for (double v : acc)
        std::printf("%8.1f", v / 4.0);
    std::printf("\n");
    std::printf("\nPaper shape: kernel run time ~90%% for DEPTH, MPEG "
                "and QRD (<10%% application-level overhead); RTSL loses "
                ">30%% to memory and host-dependency stalls.\n");
}

/**
 * Figure 12: average sustained utilization of each Imagine component
 * (arithmetic clusters, host interface, memory, SRF, LRF) during the
 * four applications, as a percentage of each component's peak.
 *
 * Shape targets: different applications stress different components;
 * LRF utilization tracks arithmetic utilization; memory utilization
 * stays low everywhere (the bandwidth hierarchy at work).
 */
void
fig12ComponentUtilization(const RunTable &t)
{
    auto row = [](const char *name, const apps::AppResult &r) {
        MachineConfig cfg;
        double gopsPeak = r.run.gflops > 0.7 * r.run.gops
                              ? cfg.peakFlops() / 1e9
                              : cfg.peakOps() / 1e9;
        double alu = (r.run.gflops > 0.7 * r.run.gops ? r.run.gflops
                                                      : r.run.gops) /
                     gopsPeak;
        double hi = r.run.hostMips / 20.0;
        double mem = r.run.memGBs / (cfg.peakMemBytes() / 1e9);
        double srf = r.run.srfGBs / (cfg.peakSrfBytes() / 1e9);
        double lrf = r.run.lrfGBs /
                     (cfg.peakLrfWordsPerCycle() * 4.0 *
                      cfg.coreClockHz / 1e9);
        std::printf("%-8s%9.1f%%%9.1f%%%9.1f%%%9.1f%%%9.1f%%\n", name,
                    100 * alu, 100 * hi, 100 * mem, 100 * srf,
                    100 * lrf);
    };

    header("Figure 12: Average sustained utilization of Imagine "
           "components (% of each component's peak)");
    std::printf("%-8s%10s%10s%10s%10s%10s\n", "App", "GOPS", "HostIF",
                "MEM", "SRF", "LRF");
    row("DEPTH", t.lab.depth);
    row("MPEG", t.lab.mpeg);
    row("QRD", t.lab.qrd);
    row("RTSL", t.lab.rtsl);
    std::printf("\nPaper shape: utilizations span orders of magnitude "
                "per app (hence the log-scale radar plots); memory "
                "stays far below the compute side.\n");
}

/**
 * Figure 13: the bandwidth hierarchy - sustained LRF, SRF and DRAM
 * bandwidth per application, against the machine peaks.
 *
 * Shape targets: the LRF:DRAM ratio exceeds 100:1 on every application
 * (the paper reports > 350:1 on average), demonstrating that a stream
 * processor is not memory bound on real applications (section 5.2).
 */
void
fig13BandwidthHierarchy(const RunTable &t)
{
    header("Figure 13: Bandwidth hierarchy of applications (GB/s)");
    MachineConfig cfg;
    std::printf("%-8s%10s%10s%10s%14s\n", "App", "LRF", "SRF", "DRAM",
                "LRF:DRAM");
    std::printf("%-8s%10.1f%10.1f%10.2f%14s\n", "Peak",
                cfg.peakLrfWordsPerCycle() * 4.0 * cfg.coreClockHz / 1e9,
                cfg.peakSrfBytes() / 1e9, cfg.peakMemBytes() / 1e9, "-");
    double ratioSum = 0;
    auto row = [&](const char *name, const apps::AppResult &r) {
        double ratio = r.run.memGBs > 0 ? r.run.lrfGBs / r.run.memGBs
                                        : 0;
        ratioSum += ratio;
        std::printf("%-8s%10.1f%10.2f%10.3f%13.0f:1\n", name,
                    r.run.lrfGBs, r.run.srfGBs, r.run.memGBs, ratio);
    };
    row("DEPTH", t.lab.depth);
    row("MPEG", t.lab.mpeg);
    row("QRD", t.lab.qrd);
    row("RTSL", t.lab.rtsl);
    std::printf("\nMean LRF:DRAM ratio %.0f:1 (paper: > 350:1; "
                "conclusion: real applications are not memory "
                "bound).\n",
                ratioSum / 4.0);
}

/**
 * Table 4: histogram of stream operations per application (kernel +
 * restart, memory, SDR/MAR/UCR register writes, moves, misc), the SDR
 * reuse factor the descriptor registers buy, and the resulting host
 * instruction bandwidth.
 *
 * Shape targets: DEPTH needs the most host bandwidth (short streams)
 * and reuses SDRs the most; register-op counts rival stream-op counts,
 * which is why the descriptor registers exist.
 */
void
table4StreamOps(const RunTable &t)
{
    auto row = [](const char *name, const apps::AppResult &r) {
        auto kinds = [&r](StreamOpKind k) {
            return r.run.sc.kindCount[static_cast<int>(k)];
        };
        uint64_t kernel = kinds(StreamOpKind::KernelExec) +
                          kinds(StreamOpKind::Restart);
        uint64_t mem = kinds(StreamOpKind::MemLoad) +
                       kinds(StreamOpKind::MemStore);
        uint64_t sdrW = kinds(StreamOpKind::SdrWrite);
        uint64_t marW = kinds(StreamOpKind::MarWrite);
        uint64_t ucrW = kinds(StreamOpKind::UcrWrite);
        uint64_t move = kinds(StreamOpKind::Move);
        uint64_t misc = kinds(StreamOpKind::UcodeLoad) +
                        kinds(StreamOpKind::RegRead) +
                        kinds(StreamOpKind::Sync) +
                        r.run.sc.ucodeLoadsIssued;
        uint64_t total = kernel + mem + sdrW + marW + ucrW + move + misc;
        double reuse = sdrW ? static_cast<double>(r.build.sdrReuses +
                                                  r.build.sdrWrites) /
                                  r.build.sdrWrites
                            : 0;
        std::printf("%-7s%9llu%8llu%8llu%8llu%8llu%6llu%6llu%9llu%9.1fx"
                    "%8.2f\n",
                    name, static_cast<unsigned long long>(kernel),
                    static_cast<unsigned long long>(mem),
                    static_cast<unsigned long long>(sdrW),
                    static_cast<unsigned long long>(marW),
                    static_cast<unsigned long long>(ucrW),
                    static_cast<unsigned long long>(move),
                    static_cast<unsigned long long>(misc),
                    static_cast<unsigned long long>(total), reuse,
                    r.run.hostMips);
    };

    header("Table 4: Histogram of stream operations per application");
    std::printf("%-7s%9s%8s%8s%8s%8s%6s%6s%9s%10s%8s\n", "App",
                "Krnl+Rst", "Memory", "SDRwr", "MARwr", "UCRwr", "Move",
                "Misc", "Total", "SDRreuse", "MIPS");
    row("DEPTH", t.lab.depth);
    row("MPEG", t.lab.mpeg);
    row("QRD", t.lab.qrd);
    row("RTSL", t.lab.rtsl);
    std::printf("\nPaper: DEPTH 1.6 MIPS (the most; 717x SDR reuse), "
                "others < 1 MIPS; total instruction counts DEPTH 17.7K, "
                "MPEG 8.8K, QRD 19.3K, RTSL 16.6K order of "
                "magnitude.\n");
}

/**
 * Table 5: cluster characteristics per application - average kernel
 * duration, average kernel stream length and average memory stream
 * length.
 *
 * Shape targets: DEPTH and RTSL run short kernels on short streams
 * (which is why DEPTH is host-bandwidth hungry and RTSL overhead
 * bound); MPEG and QRD run long kernels.
 */
void
table5ClusterCharacteristics(const RunTable &t)
{
    auto row = [](const char *name, const apps::AppResult &r,
                  const char *paper) {
        const ClusterStats &c = r.run.cluster;
        double dur = c.kernelsRun ? static_cast<double>(c.busyTotal()) /
                                        c.kernelsRun
                                  : 0;
        double klen = c.kernelsRun ? static_cast<double>(
                                         c.kernelStreamWords) /
                                         c.kernelsRun
                                   : 0;
        double mlen = r.run.sc.memStreamOps
                          ? static_cast<double>(r.run.sc.memOpWords) /
                                r.run.sc.memStreamOps
                          : 0;
        std::printf("%-7s%14.0f%16.0f%16.0f   %s\n", name, dur, klen,
                    mlen, paper);
    };

    header("Table 5: Cluster characteristics of applications");
    std::printf("%-7s%14s%16s%16s   %s\n", "App", "kernel cyc",
                "kernel stream", "memory stream",
                "paper (cyc / words / words)");
    row("DEPTH", t.lab.depth, "1595 / 306 / 306");
    row("MPEG", t.lab.mpeg, "8244 / 1191 / 2543");
    row("QRD", t.lab.qrd, "2234 / 2087 / 1261");
    row("RTSL", t.lab.rtsl, "1022 / 642 / 642");
    std::printf("\nPaper shape: DEPTH and RTSL have the shortest "
                "kernels and streams; MPEG the longest kernels.\n");
}

// ---------------------------------------------------------------------
// Figure 14, Table 6, section 5.6
// ---------------------------------------------------------------------

/**
 * Figure 14: DEPTH execution-time breakdown as host-interface
 * bandwidth sweeps from 0.5 to 50 MIPS.
 *
 * Shape targets: above the application's demand the curve is flat
 * (Imagine never idles on the host); below it, execution time grows as
 * the inverse of bandwidth, with the growth attributed to host stalls
 * and secondary memory stalls (loads can no longer be overlapped).
 */
void
fig14HostBandwidth(const RunTable &t)
{
    header("Figure 14: DEPTH execution time vs host interface "
           "bandwidth");
    const double mipsList[] = {0.5, 1.0, 2.03, 4.0, 8.0, 20.0, 50.0};
    const int n = static_cast<int>(std::size(mipsList));
    SimBatch batch;
    std::vector<apps::AppResult> runs = batch.run(n, [&](int i) {
        MachineConfig cfg = MachineConfig::devBoard();
        // The devBoard's own 2.03 MIPS row is Table 3's DEPTH run.
        if (mipsList[i] == cfg.hostMips)
            return t.lab.depth;
        cfg.hostMips = mipsList[i];
        ImagineSystem sys(cfg);
        return apps::runDepth(sys);
    });
    std::printf("%8s %10s %9s %9s %9s %9s\n", "MIPS", "Mcycles",
                "busy%", "host%", "mem%", "other%");
    double flat = 0;
    for (int i = 0; i < n; ++i) {
        const double mips = mipsList[i];
        const apps::AppResult &r = runs[static_cast<size_t>(i)];
        char what[32];
        std::snprintf(what, sizeof what, "DEPTH at %.2f MIPS", mips);
        expectValid(r, what);
        auto tot = static_cast<double>(r.run.cycles);
        const ExecBreakdown &b = r.run.breakdown;
        double busy = 100.0 * b.kernelTime() / tot;
        double host = 100.0 * b.hostStall / tot;
        double mem = 100.0 * b.memStall / tot;
        double other = 100.0 - busy - host - mem;
        if (mips >= 20)
            flat = tot;
        std::printf("%8.2f %10.3f %8.1f%% %8.1f%% %8.1f%% %8.1f%%  "
                    "ok=%d\n",
                    mips, tot / 1e6, busy, host, mem, other,
                    static_cast<int>(r.validated));
    }
    // mipsList[0] is the 0.5 MIPS row.
    std::printf("\n0.5 MIPS is %.2fx the asymptotic execution time "
                "(paper: below ~2 MIPS, time grows as 1/bandwidth; "
                "at and above the demand point the curve is flat).\n",
                static_cast<double>(runs[0].run.cycles) / flat);
}

/**
 * Table 6: laboratory (prototype) vs ISIM (cycle-accurate simulator)
 * running cycles, modeled here as the devBoard() preset (memory
 * controller precharge bug, stream-controller issue pipeline latency,
 * pessimistic host round trips) vs the isim() preset (those warts
 * idealized).
 *
 * Shape target: hardware is consistently slower than simulation, by no
 * more than ~6% (section 5.5).
 */
void
table6LabVsIsim(const RunTable &t)
{
    auto row = [](const char *name, const apps::AppResult &l,
                  const apps::AppResult &s, const char *paper) {
        double ratio = static_cast<double>(l.run.cycles) / s.run.cycles;
        std::printf("%-7s%12.3f%12.3f%9.1f%%   %s\n", name,
                    l.run.cycles / 1e6, s.run.cycles / 1e6,
                    100.0 * (ratio - 1.0), paper);
    };

    header("Table 6: Lab vs ISIM running cycles (Mcycles)");
    std::printf("%-7s%12s%12s%10s   %s\n", "App", "Lab", "ISIM", "gap",
                "paper (lab / isim Mcycles)");
    row("DEPTH", t.lab.depth, t.isim.depth, "2.22 / 2.11 (+5.2%)");
    row("MPEG", t.lab.mpeg, t.isim.mpeg, "4.33 / 4.24 (+2.1%)");
    row("QRD", t.lab.qrd, t.isim.qrd, "10.90 / 10.52 (+3.6%)");
    row("RTSL", t.lab.rtsl, t.isim.rtsl, "4.47 / 4.24 (+5.4%)");
    std::printf("\nPaper shape: the actual hardware is always slower "
                "than simulation, within ~6%%.\n");
}

/**
 * Section 5.6: power-efficiency comparison.  The peak-FLOPS cluster
 * benchmark yields GFLOPS/W and pJ per floating-point operation; the
 * paper then normalizes to a 0.13 um / 1.2 V process (cubic-ish
 * voltage-capacitance scaling factor of ~3.1x) and compares against
 * the published numbers for the TI C67x DSP and the Pentium M.
 */
void
powerEfficiency(const RunTable &t)
{
    const RunResult &peak = t.peakFlops;

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
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

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

/** GROMACS GFLOPS with a fully pipelined divide/square-root unit. */
double
pipelinedDsqGromacsRate()
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.dsqOccupancy = 1;
    ImagineSystem sys(cfg);
    uint16_t kid = sys.registerKernel(gromacsForce());
    return runKernelLoop(sys, kid, {floatWords(8192, 70)}, {4096}, 6,
                         gromacsUcrs())
        .gflops;
}

/** DEPTH's cycles on @p cfg; a run that does not validate fails. */
double
depthCycles(const MachineConfig &cfg)
{
    ImagineSystem sys(cfg);
    apps::DepthConfig dc;
    dc.width = 512;
    dc.height = 46;
    dc.disparities = 8;
    apps::AppResult r = apps::runDepth(sys, dc);
    expectValid(r, "DEPTH with " + std::to_string(cfg.scoreboardSlots) +
                       " scoreboard slots");
    return static_cast<double>(r.run.cycles);
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

/**
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
void
ablationDesignChoices(const RunTable &t)
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
    // The prototype's DSQ is the Table 2 suite's GROMACS row.
    double nonPiped =
        std::find_if(t.kernels.begin(), t.kernels.end(),
                     [](const KernelRun &k) { return k.name == "GROMACS"; })
            ->run.gflops;
    double piped = pipelinedDsqGromacsRate();
    std::printf("non-pipelined DSQ (prototype): %.2f GFLOPS; fully "
                "pipelined: %.2f GFLOPS (%.2fx; confirms the paper's "
                "claim that GROMACS is DSQ-limited)\n",
                nonPiped, piped, piped / nonPiped);
}

} // namespace

int
main()
{
    const RunTable t = runTable();
    table1Components(t);
    table2Kernels(t);
    fig06KernelBreakdown(t);
    fig07StreamLengthMainLoop(t);
    fig08StreamLengthPrologue(t);
    fig09MemoryOneAg();
    fig10MemoryTwoAg();
    table3Apps(t);
    fig11AppBreakdown(t);
    fig12ComponentUtilization(t);
    fig13BandwidthHierarchy(t);
    table4StreamOps(t);
    table5ClusterCharacteristics(t);
    fig14HostBandwidth(t);
    table6LabVsIsim(t);
    powerEfficiency(t);
    ablationDesignChoices(t);
    return exitStatus();
}
