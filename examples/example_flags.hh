/**
 * @file
 * Command-line flags shared by every example binary:
 *
 *   --json                  print the RunResult JSON instead of the report
 *   --trace=FILE            cycle tracing + Perfetto trace_event output
 *   --seed=N                application input seed (and fault seed)
 *   --faults=MODE           fault injection: off|secded|parity|none
 *                           (ECC mode of the FaultPlan::chaos plan)
 *   --checkpoint=FILE       snapshot target; alone it only arms crash
 *                           snapshots (FILE.crash on SimError)
 *   --checkpoint-every=N    also snapshot FILE every N cycles
 *   --restore=FILE          resume from a snapshot written by a run of
 *                           this example with the same flags
 *   --fidelity=TIER         cycle (default) | sampled: the sampled tier
 *                           folds most steady-state loop iterations
 *                           analytically (DESIGN.md section 12); cycle
 *                           counts become estimates with reported
 *                           error bounds
 *   --sample-fraction=F     sampled tier only: fraction of steady-state
 *                           iterations to execute cycle-accurately
 *   --remote=HOST:PORT      after the local run, replay the same
 *                           request on an isimd (also unix:PATH) and
 *                           require the returned result JSON to be
 *                           byte-identical to the local run; exits 1
 *                           on any divergence.  File-path knobs
 *                           (--trace/--checkpoint/--restore) name
 *                           paths on the daemon's filesystem.
 *
 * Each example keeps its own positional arguments; this header only
 * owns the machine-level flags so all four apps expose the same knobs.
 */

#ifndef IMAGINE_EXAMPLES_EXAMPLE_FLAGS_HH
#define IMAGINE_EXAMPLES_EXAMPLE_FLAGS_HH

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "service/client.hh"
#include "service/protocol.hh"
#include "sim/config.hh"

namespace imagine::examples
{

struct ExampleFlags
{
    bool json = false;
    const char *tracePath = nullptr;
    uint64_t seed = 0;
    bool seedSet = false;
    const char *remote = nullptr;   ///< isimd address, or null
};

/**
 * Consume @p arg if it is one of the shared flags, applying it to
 * @p mc / @p fl.  Returns false for app-specific arguments the caller
 * should parse itself.  Exits with a diagnostic on a malformed value.
 */
inline bool
parseExampleFlag(const char *arg, MachineConfig &mc, ExampleFlags &fl)
{
    auto val = [&](const char *key) -> const char * {
        size_t n = std::strlen(key);
        return std::strncmp(arg, key, n) == 0 ? arg + n : nullptr;
    };
    if (std::strcmp(arg, "--json") == 0) {
        fl.json = true;
        return true;
    }
    if (const char *v = val("--trace=")) {
        fl.tracePath = v;
        mc.trace = true;
        return true;
    }
    if (const char *v = val("--seed=")) {
        fl.seed = std::strtoull(v, nullptr, 0);
        fl.seedSet = true;
        mc.faults.seed = fl.seed;
        return true;
    }
    if (const char *v = val("--faults=")) {
        if (std::strcmp(v, "off") == 0) {
            mc.faults.enabled = false;
            return true;
        }
        EccMode ecc;
        if (std::strcmp(v, "secded") == 0)
            ecc = EccMode::Secded;
        else if (std::strcmp(v, "parity") == 0)
            ecc = EccMode::Parity;
        else if (std::strcmp(v, "none") == 0)
            ecc = EccMode::None;
        else {
            std::fprintf(stderr,
                         "--faults=%s: expected off|secded|parity|none\n",
                         v);
            std::exit(2);
        }
        // Keeps the seed, so --seed works before or after --faults.
        mc.faults = FaultPlan::chaos(mc.faults.seed, ecc);
        return true;
    }
    if (const char *v = val("--checkpoint=")) {
        mc.checkpointPath = v;
        return true;
    }
    if (const char *v = val("--checkpoint-every=")) {
        mc.checkpointEveryCycles = std::strtoull(v, nullptr, 0);
        return true;
    }
    if (const char *v = val("--restore=")) {
        mc.restorePath = v;
        return true;
    }
    if (const char *v = val("--fidelity=")) {
        if (std::strcmp(v, "cycle") == 0)
            mc.fidelity = Fidelity::Cycle;
        else if (std::strcmp(v, "sampled") == 0)
            mc.fidelity = Fidelity::Sampled;
        else {
            std::fprintf(stderr,
                         "--fidelity=%s: expected cycle|sampled\n", v);
            std::exit(2);
        }
        return true;
    }
    if (const char *v = val("--remote=")) {
        fl.remote = v;
        return true;
    }
    if (const char *v = val("--sample-fraction=")) {
        char *end = nullptr;
        mc.sampleLoopFraction = std::strtod(v, &end);
        if (end == v || mc.sampleLoopFraction <= 0.0 ||
            mc.sampleLoopFraction >= 1.0) {
            std::fprintf(stderr,
                         "--sample-fraction=%s: expected a fraction in "
                         "(0, 1)\n",
                         v);
            std::exit(2);
        }
        return true;
    }
    return false;
}

/**
 * --remote verification: replay this run on the isimd at
 * @p fl.remote with the same preset, seed, machine overrides and app
 * params, and require the returned result to be byte-identical to
 * @p localJson (the local run's RunResult::toJson()).  The overrides
 * are service::configOverrides of @p mc against the devBoard baseline
 * every example starts from.  Returns true on a byte-exact match;
 * prints a diagnostic to stderr and returns false otherwise.
 */
inline bool
verifyRemote(const ExampleFlags &fl, const MachineConfig &mc,
             const char *workload, const std::string &paramsJson,
             const std::string &localJson)
{
    std::vector<std::string> unsendable;
    std::string config = service::configOverrides(
        mc, MachineConfig::devBoard(), &unsendable);
    if (!unsendable.empty()) {
        std::fprintf(stderr, "--remote=%s: the wire cannot express %s\n",
                     fl.remote, unsendable.front().c_str());
        return false;
    }
    std::string payload = std::string("{\"op\":\"run\",\"workload\":") +
                          service::json::quote(workload) +
                          ",\"preset\":\"devBoard\"";
    if (fl.seedSet)
        payload += ",\"seed\":" + std::to_string(fl.seed);
    payload += ",\"config\":" + config;
    if (!paramsJson.empty())
        payload += ",\"params\":" + paramsJson;
    payload += "}";

    try {
        service::Client client(fl.remote);
        std::string resp = client.call(payload);
        if (resp.rfind("{\"ok\":true", 0) != 0) {
            std::fprintf(stderr, "--remote=%s: request failed: %s\n",
                         fl.remote, resp.c_str());
            return false;
        }
        std::string remote = service::Client::extractResult(resp);
        if (remote != localJson) {
            std::fprintf(stderr,
                         "--remote=%s: remote result is NOT "
                         "byte-identical to the local run (%zu vs %zu "
                         "bytes)\n",
                         fl.remote, remote.size(), localJson.size());
            return false;
        }
        std::fprintf(stderr,
                     "--remote=%s: remote result byte-identical to the "
                     "local run (%zu bytes)\n",
                     fl.remote, localJson.size());
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "--remote=%s: %s\n", fl.remote, e.what());
        return false;
    }
}

} // namespace imagine::examples

#endif // IMAGINE_EXAMPLES_EXAMPLE_FLAGS_HH
