/**
 * @file
 * Stereo depth extraction (the paper's motivating application,
 * section 2.1): runs the full DEPTH pipeline on a synthetic stereo
 * pair and renders the recovered disparity map as ASCII art.
 *
 *   ./examples/stereo_depth [flags]
 *
 * With --json, prints the RunResult as JSON (schema in README.md)
 * instead of the human-readable report.  --trace=FILE enables cycle
 * tracing and writes a Chrome/Perfetto trace_event file (open in
 * ui.perfetto.dev).
 * Remaining machine-level flags (--seed, --faults, --checkpoint,
 * --restore, ...) in example_flags.hh.
 */

#include <cstdio>

#include "apps/apps.hh"
#include "example_flags.hh"

using namespace imagine;
using namespace imagine::apps;

int
main(int argc, char **argv)
try {
    examples::ExampleFlags fl;
    MachineConfig mc = MachineConfig::devBoard();
    for (int i = 1; i < argc; ++i)
        examples::parseExampleFlag(argv[i], mc, fl);
    bool json = fl.json;
    const char *tracePath = fl.tracePath;
    ImagineSystem sys(mc);
    DepthConfig cfg;
    cfg.width = 512;
    cfg.height = 46;    // 32 valid output rows
    cfg.disparities = 8;
    if (fl.seedSet)
        cfg.seed = fl.seed;
    AppResult r = runDepth(sys, cfg);
    if (tracePath &&
        !trace::writePerfetto(*sys.traceSink(), tracePath))
        std::fprintf(stderr, "stereo_depth: cannot write %s\n",
                     tracePath);
    if (fl.remote &&
        !examples::verifyRemote(
            fl, mc, "depth",
            "{\"width\":" + std::to_string(cfg.width) +
                ",\"height\":" + std::to_string(cfg.height) +
                ",\"disparities\":" + std::to_string(cfg.disparities) +
                "}",
            r.run.toJson()))
        return 1;

    if (json) {
        std::printf("%s\n", r.run.toJson().c_str());
        return r.validated ? 0 : 1;
    }

    std::printf("%s\nvalidated=%d  cycles=%.2fM  %.2f GOPS  %.2f W\n\n",
                r.summary.c_str(), static_cast<int>(r.validated),
                r.run.cycles / 1e6, r.run.gops, r.run.watts);

    // The best-disparity records live where the app stored them: read a
    // few rows back and visualize disparity per pixel pair.  The output
    // region layout matches src/apps/depth.cc.
    const uint32_t RW = static_cast<uint32_t>(cfg.width) / 2;
    const uint32_t LEN = (RW - 8 * (cfg.disparities - 1)) / 8 * 8;
    const Addr outBase = 4ull * cfg.height * RW + 2 * LEN;
    const char shades[] = " .:-=+*#%@";
    std::printf("recovered disparity map (one char per pixel pair, "
                "strip-interleaved order):\n");
    for (int row = 0; row < 16; ++row) {
        auto rec = sys.memory().readWords(
            outBase + static_cast<Addr>(2 * row) * 2 * LEN, 2 * LEN);
        for (uint32_t i = 0; i < 64; ++i) {
            unsigned d = rec[2 * i + 1] & 0xffff;   // packed disparity
            std::putchar(shades[(d / 2) % 10]);
        }
        std::putchar('\n');
    }
    std::printf("\n(each shade level is one disparity step; bands come "
                "from the scene's region-dependent true disparity)\n");
    return r.validated ? 0 : 1;
} catch (const SimError &e) {
    std::fprintf(stderr, "stereo_depth: %s error: %s\n",
                 simErrorKindName(e.kind()), e.what());
    return 1;
}
