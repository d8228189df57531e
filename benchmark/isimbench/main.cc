/**
 * @file
 * isimbench: the repository's end-to-end and per-layer benchmark.
 *
 *   isimbench --workload W --seed S [--traced FILE] [--smoke]
 *
 * W is apps_cycle, mem_grid, fold_sampled or service_mix.  The seed
 * makes every input.  The run measures cold set-up several times, then
 * a fixed number of timed passes or requests, checks every output, and
 * prints every end-to-end metric by name and unit.  --traced records
 * spans around each call into a layer, writes them to FILE as Chrome
 * trace_event JSON together with the per-layer table, and makes the
 * per-layer metrics the result.  --smoke runs one pass (200 requests
 * per service phase) with the same checks and output.
 *
 * The last line of standard output is the result:
 *   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 * Exit status: 0 when every check passed, 1 when one failed, 2 on a
 * usage or set-up error (no result line).
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <unistd.h>

#include "workloads.hh"

namespace
{

using namespace isimbench;

struct Workload
{
    const char *name;
    void (*run)(const Options &, Report &, Tracer &);
};

const Workload kWorkloads[] = {
    {"apps_cycle", appsCycle},
    {"mem_grid", memGrid},
    {"fold_sampled", foldSampled},
    {"service_mix", serviceMix},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "isimbench: %s\n"
                 "usage: isimbench --workload W --seed S "
                 "[--traced FILE] [--smoke]\n"
                 "workloads: apps_cycle mem_grid fold_sampled service_mix\n",
                 why);
    return 2;
}

std::string
loadavg()
{
    std::ifstream f("/proc/loadavg");
    std::string a, b, c;
    f >> a >> b >> c;
    return a + " " + b + " " + c;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    bool haveSeed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        bool hasValue = i + 1 < argc;
        if (a == "--smoke") {
            opt.smoke = true;
        } else if (!hasValue) {
            return usage(("missing value for " + a).c_str());
        } else if (a == "--workload") {
            opt.workload = argv[++i];
        } else if (a == "--seed") {
            char *end = nullptr;
            opt.seed = std::strtoull(argv[++i], &end, 10);
            if (!end || *end)
                return usage("--seed takes an unsigned integer");
            haveSeed = true;
        } else if (a == "--traced") {
            opt.tracePath = argv[++i];
            if (opt.tracePath.empty())
                return usage("--traced takes a file name");
        } else {
            return usage(("unknown argument " + a).c_str());
        }
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (opt.workload == cand.name)
            w = &cand;
    if (!w)
        return usage(("unknown workload '" + opt.workload + "'").c_str());
    if (!haveSeed)
        return usage("--seed is required");

#if defined(__clang__)
    const char *compiler = "clang " __clang_version__;
#elif defined(__GNUC__)
    const char *compiler = "gcc " __VERSION__;
#else
    const char *compiler = "unknown";
#endif
    Report rep;
    Tracer tracer;
    rep.context("workload", opt.workload);
    rep.context("seed", std::to_string(opt.seed));
    rep.context("mode", opt.smoke ? "smoke" : opt.traced() ? "traced" : "untraced");
    rep.context("nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
    rep.context("compiler", compiler);
    rep.context("build_type", ISIMBENCH_BUILD_TYPE);
    rep.context("commit", ISIMBENCH_COMMIT);
    rep.context("loadavg_start", loadavg());

    Clock::time_point t0 = Clock::now();
    try {
        w->run(opt, rep, tracer);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "isimbench: %s aborted: %s\n", w->name, e.what());
        return 2;
    }
    rep.endToEnd("peak_rss_mb", peakRssMb());
    if (opt.traced()) {
        std::string other = "{\"workload\":\"" + opt.workload +
                            "\",\"seed\":" + std::to_string(opt.seed) +
                            ",\"per_layer\":" + rep.layerJson() + "}";
        if (!tracer.write(opt.tracePath, other)) {
            std::fprintf(stderr, "isimbench: cannot write %s\n",
                         opt.tracePath.c_str());
            return 2;
        }
        rep.context("trace_file", opt.tracePath);
    }
    rep.context("loadavg_end", loadavg());
    rep.context("wall_s", std::to_string(secondsBetween(t0, Clock::now())));
    rep.print(opt.traced());
    return rep.failed() == 0 && rep.attempted() > 0 ? 0 : 1;
}
