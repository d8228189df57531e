#include "service/protocol.hh"

#include <cmath>
#include <cstdio>
#include <map>

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

int
posIntField(const json::Value &v, const char *key)
{
    return intField(v, key, 1);
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

Fidelity
fidelityField(const json::Value &v, const char *key)
{
    std::string s = strField(v, key);
    if (s == "cycle")
        return Fidelity::Cycle;
    if (s == "sampled")
        return Fidelity::Sampled;
    bad(std::string(key) + ": expected cycle|sampled");
}

// JSON text of one field value, as the override table parses it back.
std::string
text(int v)
{
    return std::to_string(v);
}

std::string
text(uint64_t v)
{
    return std::to_string(v);
}

std::string
text(bool v)
{
    return v ? "true" : "false";
}

std::string
text(const std::string &v)
{
    return json::quote(v);
}

std::string
text(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
text(EccMode m)
{
    switch (m) {
      case EccMode::Secded: return "\"secded\"";
      case EccMode::Parity: return "\"parity\"";
      default: return "\"none\"";
    }
}

std::string
text(Fidelity f)
{
    return f == Fidelity::Sampled ? "\"sampled\"" : "\"cycle\"";
}

/** One wire-settable MachineConfig field: its parser and its writer. */
struct Field
{
    void (*set)(MachineConfig &, const json::Value &);
    std::string (*get)(const MachineConfig &);
};

/**
 * The override whitelist, by wire name.  Each entry both sets its field
 * from JSON and writes it back, so configOverrides() is the exact
 * inverse of applyConfigOverrides() field for field.  Anything not
 * listed is a bad-request by design (engine-internal fields like
 * restorePath stay reachable - a service deployment that wants them
 * sandboxed can reject at a higher layer).
 */
const std::map<std::string, Field> &
overrideTable()
{
    using V = const json::Value &;
    static const std::map<std::string, Field> table = {
#define FIELD(key, member, parse)                                        \
    {key, {[](MachineConfig &c, V v) { c.member = parse(v, key); },      \
           [](const MachineConfig &c) { return text(c.member); }}}
#define CFG(name, parse) FIELD(#name, name, parse)
        CFG(coreClockHz, posNumField),
        CFG(memClockDivider, posIntField),
        CFG(numAdders, intField),
        CFG(numMultipliers, intField),
        CFG(sbInPorts, posIntField),
        CFG(sbOutPorts, posIntField),
        CFG(scratchpadWords, intField),
        CFG(lrfWordsPerCluster, intField),
        CFG(kernelStartupCycles, intField),
        CFG(kernelShutdownCycles, intField),
        CFG(srfSizeWords, intField),
        CFG(srfBandwidthWordsPerCycle, intField),
        CFG(streamBufferWords, intField),
        CFG(numAddressGenerators, intField),
        CFG(numChannels, posIntField),
        CFG(banksPerChannel, posIntField),
        CFG(rowWords, posIntField),
        CFG(tRcd, intField),
        CFG(tCas, intField),
        CFG(tRp, intField),
        CFG(mcPipelineCycles, intField),
        CFG(mcCacheWords, posIntField),
        CFG(quirkPrechargeBug, boolField),
        CFG(ucodeStoreInstrs, intField),
        CFG(ucodeWordsPerInstr, intField),
        CFG(hostMips, posNumField),
        CFG(scoreboardSlots, intField),
        CFG(scIssueOverhead, intField),
        CFG(quirkIssueLatency, intField),
        CFG(hostRoundTripCycles, intField),
        CFG(nonPlaybackHostOverheadCycles, intField),
        CFG(watchdogStagnationCycles, u64Field),
        CFG(clusterBindCacheKernels, intField),
        CFG(trace, boolField),
        CFG(traceMaxEvents, u64Field),
        CFG(fidelity, fidelityField),
        CFG(sampleLoopFraction, numField),
        CFG(checkpointEveryCycles, u64Field),
        CFG(checkpointPath, strField),
        CFG(restorePath, strField),
        FIELD("faults.enabled", faults.enabled, boolField),
        FIELD("faults.seed", faults.seed, u64Field),
        FIELD("faults.srfFlipRate", faults.srfFlipRate, numField),
        FIELD("faults.dramFlipRate", faults.dramFlipRate, numField),
        FIELD("faults.ucodeCorruptRate", faults.ucodeCorruptRate,
              numField),
        FIELD("faults.stuckSlotRate", faults.stuckSlotRate, numField),
        FIELD("faults.agStallRate", faults.agStallRate, numField),
        FIELD("faults.agStallBurstCycles", faults.agStallBurstCycles,
              intField),
        FIELD("faults.maxRetries", faults.maxRetries, intField),
        FIELD("faults.srfEcc", faults.srfEcc, eccField),
        FIELD("faults.memEcc", faults.memEcc, eccField),
#undef CFG
#undef FIELD
    };
    return table;
}

/**
 * The MachineConfig fields the override table cannot set, by name: a
 * config that differs from its base in one of these cannot be sent.
 */
const std::pair<const char *, int MachineConfig::*> kUnsendable[] = {
    {"latFpAdd", &MachineConfig::latFpAdd},
    {"latFpMul", &MachineConfig::latFpMul},
    {"latDsq", &MachineConfig::latDsq},
    {"dsqOccupancy", &MachineConfig::dsqOccupancy},
    {"latIntAdd", &MachineConfig::latIntAdd},
    {"latIntMul", &MachineConfig::latIntMul},
    {"latSubword", &MachineConfig::latSubword},
    {"latSpRead", &MachineConfig::latSpRead},
    {"latSpWrite", &MachineConfig::latSpWrite},
    {"latComm", &MachineConfig::latComm},
    {"latSbRead", &MachineConfig::latSbRead},
    {"latSbWrite", &MachineConfig::latSbWrite},
    {"latMov", &MachineConfig::latMov},
    {"numSdrs", &MachineConfig::numSdrs},
    {"numMars", &MachineConfig::numMars},
    {"numUcrs", &MachineConfig::numUcrs},
};

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
        it->second.set(cfg, value);
    }
}

std::string
configOverrides(const MachineConfig &cfg, const MachineConfig &base,
                std::vector<std::string> *unsendable)
{
    std::string out;
    for (const auto &[key, field] : overrideTable()) {
        std::string v = field.get(cfg);
        if (v != field.get(base))
            out += (out.empty() ? "{" : ",") + json::quote(key) + ":" + v;
    }
    for (const auto &[name, member] : kUnsendable)
        if (cfg.*member != base.*member)
            unsendable->push_back(name);
    return out.empty() ? "{}" : out + "}";
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
