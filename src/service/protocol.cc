#include "service/protocol.hh"

#include <cmath>
#include <cstdio>
#include <functional>
#include <unordered_map>

#include "sim/error.hh"

namespace imagine::service
{

namespace
{

[[noreturn]] void
bad(const std::string &msg)
{
    throw ProtocolError("bad-request", msg);
}

uint64_t
u64Field(const json::Value &v, const char *key)
{
    try {
        return v.asU64();
    } catch (const json::ParseError &) {
        bad(std::string(key) + ": expected an unsigned integer");
    }
}

/** An integer in [min, INT32_MAX]: no integer field is meaningful below
 *  0, and the divisors, port counts and sizes the machine divides by or
 *  allocates from need at least 1. */
int
intField(const json::Value &v, const char *key, int min = 0)
{
    int64_t i;
    try {
        i = v.asI64();
    } catch (const json::ParseError &) {
        bad(std::string(key) + ": expected an integer");
    }
    if (i > INT32_MAX)
        bad(std::string(key) + ": out of int range");
    if (i < min)
        bad(std::string(key) + ": must be >= " + std::to_string(min));
    return static_cast<int>(i);
}

double
numField(const json::Value &v, const char *key)
{
    if (!v.isNumber())
        bad(std::string(key) + ": expected a number");
    return v.asDouble();
}

/** A number > 0: rates the machine divides by. */
double
posNumField(const json::Value &v, const char *key)
{
    double d = numField(v, key);
    if (!(d > 0))
        bad(std::string(key) + ": must be > 0");
    return d;
}

bool
boolField(const json::Value &v, const char *key)
{
    if (!v.isBool())
        bad(std::string(key) + ": expected a boolean");
    return v.boolean;
}

std::string
strField(const json::Value &v, const char *key)
{
    if (!v.isString())
        bad(std::string(key) + ": expected a string");
    return v.string;
}

EccMode
eccField(const json::Value &v, const char *key)
{
    std::string s = strField(v, key);
    if (s == "none")
        return EccMode::None;
    if (s == "parity")
        return EccMode::Parity;
    if (s == "secded")
        return EccMode::Secded;
    bad(std::string(key) + ": expected none|parity|secded");
}

/**
 * The override whitelist.  One lambda per assignable field keeps the
 * mapping greppable; anything not listed is a bad-request by design
 * (engine-internal fields like restorePath stay reachable - a service
 * deployment that wants them sandboxed can reject at a higher layer).
 */
const std::unordered_map<
    std::string,
    std::function<void(MachineConfig &, const json::Value &)>> &
overrideTable()
{
    using V = const json::Value &;
    static const std::unordered_map<
        std::string, std::function<void(MachineConfig &, V)>> table = {
#define INT_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = intField(v, #name); }}
#define POS_INT_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = intField(v, #name, 1); }}
#define NUM_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = numField(v, #name); }}
#define POS_NUM_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = posNumField(v, #name); }}
#define U64_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = u64Field(v, #name); }}
#define BOOL_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = boolField(v, #name); }}
#define STR_FIELD(name) \
    {#name, [](MachineConfig &c, V v) { c.name = strField(v, #name); }}
        POS_NUM_FIELD(coreClockHz),
        POS_INT_FIELD(memClockDivider),
        INT_FIELD(numAdders),
        INT_FIELD(numMultipliers),
        POS_INT_FIELD(sbInPorts),
        POS_INT_FIELD(sbOutPorts),
        INT_FIELD(scratchpadWords),
        INT_FIELD(lrfWordsPerCluster),
        INT_FIELD(kernelStartupCycles),
        INT_FIELD(kernelShutdownCycles),
        INT_FIELD(srfSizeWords),
        INT_FIELD(srfBandwidthWordsPerCycle),
        INT_FIELD(streamBufferWords),
        INT_FIELD(numAddressGenerators),
        POS_INT_FIELD(numChannels),
        POS_INT_FIELD(banksPerChannel),
        POS_INT_FIELD(rowWords),
        INT_FIELD(tRcd),
        INT_FIELD(tCas),
        INT_FIELD(tRp),
        INT_FIELD(mcPipelineCycles),
        POS_INT_FIELD(mcCacheWords),
        BOOL_FIELD(quirkPrechargeBug),
        INT_FIELD(ucodeStoreInstrs),
        INT_FIELD(ucodeWordsPerInstr),
        POS_NUM_FIELD(hostMips),
        INT_FIELD(scoreboardSlots),
        INT_FIELD(scIssueOverhead),
        INT_FIELD(quirkIssueLatency),
        INT_FIELD(hostRoundTripCycles),
        INT_FIELD(nonPlaybackHostOverheadCycles),
        U64_FIELD(watchdogStagnationCycles),
        INT_FIELD(clusterBindCacheKernels),
        BOOL_FIELD(trace),
        U64_FIELD(traceMaxEvents),
        NUM_FIELD(sampleLoopFraction),
        U64_FIELD(checkpointEveryCycles),
        STR_FIELD(checkpointPath),
        STR_FIELD(restorePath),
        {"fidelity",
         [](MachineConfig &c, V v) {
             std::string s = strField(v, "fidelity");
             if (s == "cycle")
                 c.fidelity = Fidelity::Cycle;
             else if (s == "sampled")
                 c.fidelity = Fidelity::Sampled;
             else
                 bad("fidelity: expected cycle|sampled");
         }},
        {"faults.enabled",
         [](MachineConfig &c, V v) {
             c.faults.enabled = boolField(v, "faults.enabled");
         }},
        {"faults.seed",
         [](MachineConfig &c, V v) {
             c.faults.seed = u64Field(v, "faults.seed");
         }},
        {"faults.srfFlipRate",
         [](MachineConfig &c, V v) {
             c.faults.srfFlipRate = numField(v, "faults.srfFlipRate");
         }},
        {"faults.dramFlipRate",
         [](MachineConfig &c, V v) {
             c.faults.dramFlipRate = numField(v, "faults.dramFlipRate");
         }},
        {"faults.ucodeCorruptRate",
         [](MachineConfig &c, V v) {
             c.faults.ucodeCorruptRate =
                 numField(v, "faults.ucodeCorruptRate");
         }},
        {"faults.stuckSlotRate",
         [](MachineConfig &c, V v) {
             c.faults.stuckSlotRate = numField(v, "faults.stuckSlotRate");
         }},
        {"faults.agStallRate",
         [](MachineConfig &c, V v) {
             c.faults.agStallRate = numField(v, "faults.agStallRate");
         }},
        {"faults.agStallBurstCycles",
         [](MachineConfig &c, V v) {
             c.faults.agStallBurstCycles =
                 intField(v, "faults.agStallBurstCycles");
         }},
        {"faults.maxRetries",
         [](MachineConfig &c, V v) {
             c.faults.maxRetries = intField(v, "faults.maxRetries");
         }},
        {"faults.srfEcc",
         [](MachineConfig &c, V v) {
             c.faults.srfEcc = eccField(v, "faults.srfEcc");
         }},
        {"faults.memEcc",
         [](MachineConfig &c, V v) {
             c.faults.memEcc = eccField(v, "faults.memEcc");
         }},
#undef INT_FIELD
#undef POS_INT_FIELD
#undef NUM_FIELD
#undef POS_NUM_FIELD
#undef U64_FIELD
#undef BOOL_FIELD
#undef STR_FIELD
    };
    return table;
}

} // namespace

void
applyConfigOverrides(MachineConfig &cfg, const json::Value &overrides)
{
    if (!overrides.isObject())
        bad("config: expected an object");
    const auto &table = overrideTable();
    for (const auto &[key, value] : overrides.object) {
        auto it = table.find(key);
        if (it == table.end())
            bad("config: unknown field \"" + key + "\"");
        it->second(cfg, value);
    }
}

Request
parseRequest(const std::string &payload)
{
    json::Value root;
    try {
        root = json::parse(payload);
    } catch (const json::ParseError &e) {
        bad(e.what());
    }
    if (!root.isObject())
        bad("request must be a JSON object");
    const json::Value *opv = root.get("op");
    if (!opv || !opv->isString())
        bad("missing \"op\"");

    Request req;
    if (opv->string == "ping") {
        req.op = Op::Ping;
        return req;
    }
    if (opv->string == "stats") {
        req.op = Op::Stats;
        return req;
    }
    if (opv->string == "drain") {
        req.op = Op::Drain;
        return req;
    }
    if (opv->string == "cancel") {
        req.op = Op::Cancel;
        const json::Value *tag = root.get("tag");
        if (!tag || !tag->isString() || tag->string.empty())
            bad("cancel: missing \"tag\"");
        req.cancelTag = tag->string;
        return req;
    }
    if (opv->string != "run")
        bad("unknown op \"" + opv->string + "\"");

    req.op = Op::Run;
    RunRequest &r = req.run;
    const json::Value *wl = root.get("workload");
    if (!wl || !wl->isString())
        bad("run: missing \"workload\"");
    r.workload = wl->string;
    if (r.workload != "depth" && r.workload != "mpeg" &&
        r.workload != "qrd" && r.workload != "rtsl")
        throw ProtocolError("unknown-workload",
                            "unknown workload \"" + r.workload +
                                "\" (expected depth|mpeg|qrd|rtsl)");
    if (const json::Value *t = root.get("tenant")) {
        r.tenant = strField(*t, "tenant");
        if (r.tenant.empty())
            bad("tenant: must be non-empty");
    }
    if (const json::Value *w = root.get("weight")) {
        r.weight = numField(*w, "weight");
        if (!(r.weight > 0.0) || !std::isfinite(r.weight))
            bad("weight: must be a positive finite number");
    }
    if (const json::Value *t = root.get("tag"))
        r.tag = strField(*t, "tag");
    if (const json::Value *d = root.get("deadlineMs"))
        r.deadlineMs = u64Field(*d, "deadlineMs");
    if (const json::Value *p = root.get("preset")) {
        std::string s = strField(*p, "preset");
        if (s == "devBoard")
            r.config = MachineConfig::devBoard();
        else if (s == "isim")
            r.config = MachineConfig::isim();
        else
            bad("preset: expected devBoard|isim");
    }
    if (const json::Value *c = root.get("config"))
        applyConfigOverrides(r.config, *c);
    if (const json::Value *s = root.get("seed")) {
        r.seed = u64Field(*s, "seed");
        r.seedSet = true;
        r.config.faults.seed = r.seed;   // matches --seed in the examples
    }
    if (const json::Value *p = root.get("params")) {
        if (!p->isObject())
            bad("params: expected an object");
        r.params = *p;
    }
    return req;
}

std::string
wireErrorCode(int simErrorKind)
{
    switch (static_cast<SimErrorKind>(simErrorKind)) {
      case SimErrorKind::Fatal: return "fatal";
      case SimErrorKind::Panic: return "panic";
      case SimErrorKind::Hang: return "hang";
      case SimErrorKind::MemoryBounds: return "memory-bounds";
      case SimErrorKind::UnrecoveredFault: return "unrecovered-fault";
      case SimErrorKind::Canceled: return "canceled";
    }
    return "panic";
}

std::string
makeErrorResponse(const std::string &op, uint64_t job,
                  const std::string &code, const std::string &message)
{
    std::string out = "{\"ok\":false,\"op\":" + json::quote(op);
    if (job)
        out += ",\"job\":" + std::to_string(job);
    out += ",\"error\":{\"code\":" + json::quote(code) +
           ",\"message\":" + json::quote(message) + "}}";
    return out;
}

std::string
makeRunResponse(uint64_t job, const std::string &tenant,
                const std::string &workload, bool validated,
                double queueMs, double runMs,
                const std::string &resultJson)
{
    char timings[96];
    std::snprintf(timings, sizeof(timings),
                  ",\"queueMs\":%.3f,\"runMs\":%.3f", queueMs, runMs);
    // "result" stays the last member: everything from the marker to the
    // closing brace is the engine's toJson() bytes, untouched.
    return "{\"ok\":true,\"op\":\"run\",\"job\":" + std::to_string(job) +
           ",\"tenant\":" + json::quote(tenant) +
           ",\"workload\":" + json::quote(workload) +
           ",\"validated\":" + (validated ? "true" : "false") + timings +
           ",\"result\":" + resultJson + "}";
}

std::string
makePingResponse()
{
    return "{\"ok\":true,\"op\":\"ping\"}";
}

} // namespace imagine::service
