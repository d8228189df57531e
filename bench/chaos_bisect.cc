/**
 * @file
 * Chaos-seed bisection and sweep driver.
 *
 * Single-seed mode (default) reproduces one chaos run of the
 * tests/chaos_test.cc campaign (bench::chaosConfig, keyed by the same
 * run index) twice - once fault-free, once with the seed's faults
 * armed - archiving a checkpoint at every k-cycle boundary via
 * ImagineSystem::setCheckpointHook, then binary-searches the archives
 * (ckpt::bisectDivergence) for the earliest interval where the faulty
 * machine's architectural state diverges from the clean one:
 *
 *   chaos_bisect --app=depth --seed=7 --every=50000 --out=bisect_out
 *
 * Sweep mode runs the chaos campaign over many seeds with crash
 * snapshots enabled, keeps the last-good-interval checkpoint, the
 * .crash snapshot and a text report for every non-clean seed, and exits
 * non-zero only on a silent-corruption escape (the chaos invariant of
 * tests/chaos_test.cc).  The nightly CI job uploads the kept artifacts:
 *
 *   chaos_bisect --sweep=100 --app=all --out=chaos_artifacts
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "ckpt/bisect.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

namespace fs = std::filesystem;

namespace
{

/** Run the small shape of @p app (the chaos campaign's shapes). */
AppResult
runApp(const std::string &app, ImagineSystem &sys)
{
    if (!bench::findSmallApp(app)) {
        std::fprintf(stderr, "chaos_bisect: unknown app '%s'\n",
                     app.c_str());
        std::exit(2);
    }
    return bench::runSmallApp(sys, app);
}

/** One side (clean or faulty) of a bisection: run the app archiving
 *  every checkpoint boundary as out/<side>.<n>.ckpt. */
struct SideRun
{
    std::vector<std::string> snaps;
    bool errored = false;
    bool validated = false;
    std::string what;
    uint64_t injected = 0;
};

SideRun
runSide(const std::string &app, MachineConfig cfg, const fs::path &out,
        const char *side)
{
    SideRun sr;
    cfg.checkpointPath = (out / (std::string(side) + ".ckpt")).string();
    ImagineSystem sys(cfg);
    sys.setCheckpointHook([&](Cycle, const std::string &path) {
        fs::path dst = out / (std::string(side) + "." +
                              std::to_string(sr.snaps.size() + 1) +
                              ".ckpt");
        fs::rename(path, dst);
        sr.snaps.push_back(dst.string());
    });
    try {
        AppResult r = runApp(app, sys);
        sr.validated = r.validated;
    } catch (const SimError &e) {
        sr.errored = true;
        sr.what = e.what();
    }
    if (const FaultInjector *inj = sys.faultInjector())
        sr.injected = inj->stats().injected;
    return sr;
}

int
bisectSeed(const std::string &app, uint64_t run, uint64_t every,
           const fs::path &out)
{
    fs::create_directories(out);
    std::printf("chaos-bisect: app=%s seed=%llu every=%llu\n",
                app.c_str(), (unsigned long long)run,
                (unsigned long long)every);

    MachineConfig faulty = bench::chaosConfig(run);
    faulty.checkpointEveryCycles = every;
    MachineConfig clean = faulty;
    clean.faults.enabled = false;

    SideRun c = runSide(app, clean, out, "clean");
    if (c.errored) {
        std::fprintf(stderr,
                     "chaos-bisect: fault-free run failed: %s\n",
                     c.what.c_str());
        return 2;
    }
    std::printf("  clean:  %zu snapshots, validated=%d\n",
                c.snaps.size(), c.validated ? 1 : 0);

    SideRun f = runSide(app, faulty, out, "faulty");
    std::printf("  faulty: %zu snapshots, %llu faults injected, %s\n",
                f.snaps.size(), (unsigned long long)f.injected,
                f.errored ? f.what.c_str()
                          : (f.validated ? "validated" : "invalid output"));

    ckpt::BisectResult b =
        ckpt::bisectDivergence(c.snaps, f.snaps, every);
    if (!b.diverged) {
        std::printf("  no architectural divergence at any boundary\n");
        return 0;
    }
    std::printf("  divergence: interval %llu, cycles (%llu, %llu], "
                "component \"%s\" (%llu comparisons)\n",
                (unsigned long long)b.interval,
                (unsigned long long)(b.cycle - every),
                (unsigned long long)b.cycle, b.component.c_str(),
                (unsigned long long)b.comparisons);
    return 0;
}

/** Chaos invariant of tests/chaos_test.cc: every run is clean,
 *  explained by unprotected corruption, or surfaced as a SimError. */
int
sweep(const std::vector<std::string> &apps, int n, uint64_t every,
      const fs::path &out)
{
    fs::create_directories(out);
    int violations = 0, clean = 0, explained = 0, reported = 0;
    for (const std::string &app : apps) {
        for (int i = 0; i < n; ++i) {
            MachineConfig cfg = bench::chaosConfig(static_cast<uint64_t>(i));
            cfg.checkpointEveryCycles = every;
            std::string base =
                (out / (app + ".seed" + std::to_string(i))).string();
            cfg.checkpointPath = base + ".ckpt";

            ImagineSystem sys(cfg);
            bool keep = false;
            std::string note;
            try {
                AppResult r = runApp(app, sys);
                if (r.validated) {
                    ++clean;
                } else if (r.run.faults.silent > 0) {
                    ++explained;
                    keep = true;
                    note = "invalid output, " +
                           std::to_string(r.run.faults.silent) +
                           " silent faults recorded";
                } else {
                    ++violations;
                    keep = true;
                    note = "VIOLATION: invalid output with no "
                           "recorded silent fault";
                }
            } catch (const SimError &e) {
                ++reported;
                keep = true;
                note = std::string(simErrorKindName(e.kind())) + ": " +
                       e.what();
                bool ok = e.kind() == SimErrorKind::Hang ||
                          e.kind() == SimErrorKind::UnrecoveredFault ||
                          sys.faultInjector()->stats().silent > 0;
                if (!ok) {
                    ++violations;
                    note = "VIOLATION: unexpected " + note;
                }
                if (e.kind() == SimErrorKind::Hang && !e.hangReport()) {
                    ++violations;
                    note += " (VIOLATION: hang without report)";
                }
            }
            if (keep) {
                std::FILE *fp =
                    std::fopen((base + ".report.txt").c_str(), "w");
                if (fp) {
                    std::fprintf(fp, "%s seed %d: %s\n", app.c_str(), i,
                                 note.c_str());
                    std::fclose(fp);
                }
                std::printf("  %s seed %d: %s\n", app.c_str(), i,
                            note.c_str());
            } else {
                // Clean run: nothing to diagnose, drop its snapshot.
                std::error_code ec;
                fs::remove(base + ".ckpt", ec);
            }
        }
    }
    std::printf("chaos-sweep: %d clean, %d explained, %d reported, "
                "%d violations\n",
                clean, explained, reported, violations);
    return violations ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string app = "depth";
    uint64_t seed = 0;
    uint64_t every = 50'000;
    fs::path out = "chaos_bisect_out";
    int sweepN = 0;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto val = [&](const char *key) -> const char * {
            size_t n = std::strlen(key);
            return a.compare(0, n, key) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = val("--app="))
            app = v;
        else if (const char *v = val("--seed="))
            seed = std::strtoull(v, nullptr, 0);
        else if (const char *v = val("--every="))
            every = std::strtoull(v, nullptr, 0);
        else if (const char *v = val("--out="))
            out = v;
        else if (const char *v = val("--sweep="))
            sweepN = std::atoi(v);
        else {
            std::fprintf(
                stderr,
                "usage: chaos_bisect [--app=depth|mpeg|qrd|rtsl|all]\n"
                "                    [--seed=N] [--every=CYCLES] "
                "[--out=DIR] [--sweep=N]\n");
            return a == "--help" ? 0 : 2;
        }
    }
    if (every == 0) {
        std::fprintf(stderr, "chaos_bisect: --every must be > 0\n");
        return 2;
    }
    if (sweepN > 0) {
        std::vector<std::string> apps;
        if (app == "all")
            apps = {"depth", "mpeg", "qrd", "rtsl"};
        else
            apps = {app};
        return sweep(apps, sweepN, every, out);
    }
    return bisectSeed(app, seed, every, out);
}
