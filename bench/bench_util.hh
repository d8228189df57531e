/**
 * @file
 * Shared helpers for the per-table / per-figure paper binaries.
 *
 * Every binary is a plain executable that follows the same pattern:
 * simulate each cell of its table once, print the paper-style table
 * with the paper's reference values alongside (so EXPERIMENTS.md can
 * quote paper-vs-measured directly from the output), and exit nonzero
 * if any run failed its validation.  ctest runs all of them under the
 * `paper` label.
 */

#ifndef IMAGINE_BENCH_BENCH_UTIL_HH
#define IMAGINE_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "core/system.hh"
#include "sim/log.hh"
#include "sim/rng.hh"
#include "sim/runner.hh"
#include "sweep_shapes.hh"

namespace imagine::bench
{

/** Print a section rule + title. */
inline void
header(const std::string &title)
{
    std::printf("\n================================================"
                "======================\n%s\n"
                "================================================"
                "======================\n",
                title.c_str());
}

/**
 * Stage inputs, then run kernel @p kid @p repeats times on SRF-resident
 * data (loads happen once; kernel re-launches measure steady kernel
 * behaviour the way the micro-benchmarks do).
 *
 * @param ucrs (index, value) parameter writes issued before the runs
 * @return metrics of the kernel-loop portion only
 */
inline RunResult
runKernelLoop(ImagineSystem &sys, uint16_t kid,
              const std::vector<std::vector<Word>> &inputs,
              const std::vector<uint32_t> &outCaps, int repeats,
              const std::vector<std::pair<int, Word>> &ucrs = {},
              bool useRestart = false)
{
    // Stage and load inputs.
    auto setup = sys.newProgram();
    std::vector<uint32_t> inOff;
    std::vector<int> inSdrs;
    Addr mem = 0;
    for (const auto &in : inputs) {
        sys.memory().writeWords(mem, in);
        uint32_t off = setup.alloc(static_cast<uint32_t>(in.size()));
        inOff.push_back(off);
        setup.load(setup.marStride(mem),
                   setup.sdr(off, static_cast<uint32_t>(in.size())));
        mem += in.size();
    }
    StreamProgram setupProg = setup.take();
    sys.run(setupProg);

    // Kernel loop (a fresh builder reuses the same SRF offsets; the
    // data is already resident).
    auto b = sys.newProgram();
    for (auto [idx, val] : ucrs)
        b.ucr(idx, val);
    // Outputs live at the top of the SRF, away from the staged inputs.
    uint32_t totalOut = 0;
    for (uint32_t cap : outCaps)
        totalOut += cap;
    uint32_t pos = static_cast<uint32_t>(sys.config().srfSizeWords) -
                   totalOut;
    IMAGINE_ASSERT(mem <= pos, "kernel bench streams exceed the SRF");
    std::vector<uint32_t> outOff;
    for (uint32_t cap : outCaps) {
        outOff.push_back(pos);
        pos += cap;
    }
    for (int r = 0; r < repeats; ++r) {
        std::vector<int> ins;
        for (size_t i = 0; i < inputs.size(); ++i)
            ins.push_back(
                b.sdr(inOff[i], static_cast<uint32_t>(inputs[i].size())));
        std::vector<int> outs;
        for (size_t i = 0; i < outCaps.size(); ++i)
            outs.push_back(b.sdr(outOff[i], outCaps[i]));
        if (r > 0 && useRestart)
            b.restart(kid, ins, outs, "bench");
        else
            b.kernel(kid, ins, outs, "bench");
    }
    StreamProgram prog = b.take();
    return sys.run(prog);
}

/** Random packed 16-bit pixel words. */
inline std::vector<Word>
pixelWords(size_t n, uint64_t seed = 7)
{
    Rng rng(seed);
    std::vector<Word> v(n);
    for (auto &w : v)
        w = pack16(static_cast<uint16_t>(rng.below(256)),
                   static_cast<uint16_t>(rng.below(256)));
    return v;
}

/** Random small floats. */
inline std::vector<Word>
floatWords(size_t n, uint64_t seed = 11)
{
    Rng rng(seed);
    std::vector<Word> v(n);
    for (auto &w : v)
        w = floatToWord(rng.uniform(-2.0f, 2.0f));
    return v;
}

/** Checks failed so far; exitStatus() turns the count into main()'s. */
inline int failedChecks = 0;

/** Count a failure of @p what, reported on stderr. */
inline void
fail(const std::string &what)
{
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failedChecks;
}

/** Count @p r as a failure if its output did not validate. */
inline void
expectValid(const apps::AppResult &r, const std::string &what)
{
    if (!r.validated)
        fail(what + " did not validate");
}

/** The exit code of a paper binary: nonzero once any check failed. */
inline int
exitStatus()
{
    return failedChecks ? 1 : 0;
}

/** The four applications' results. */
struct AppRuns
{
    apps::AppResult depth, mpeg, qrd, rtsl;
};

/**
 * Run all four applications on a fresh system each; every app that
 * does not validate counts as a failed check.
 */
inline AppRuns
runAllApps(const MachineConfig &cfg)
{
    SimBatch batch;
    std::vector<apps::AppResult> rs = batch.run(4, [&](int i) {
        ImagineSystem sys(cfg);    // private session per job
        switch (i) {
          case 0: return apps::runDepth(sys);
          case 1: return apps::runMpeg(sys);
          case 2: return apps::runQrd(sys);
          default: return apps::runRtsl(sys);
        }
    });
    const char *names[] = {"DEPTH", "MPEG", "QRD", "RTSL"};
    for (size_t i = 0; i < rs.size(); ++i)
        expectValid(rs[i], names[i]);
    return AppRuns{std::move(rs[0]), std::move(rs[1]),
                   std::move(rs[2]), std::move(rs[3])};
}

} // namespace imagine::bench

#endif // IMAGINE_BENCH_BENCH_UTIL_HH
