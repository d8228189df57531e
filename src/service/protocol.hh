/**
 * @file
 * Request/response protocol of the simulation service (DESIGN.md
 * section 13).
 *
 * Every frame payload is one JSON object with an "op" field:
 *
 *   run    {"op":"run","workload":"qrd","tenant":"a","weight":2,
 *           "seed":7,"tag":"my-job","deadlineMs":5000,
 *           "preset":"devBoard","config":{...},"params":{...}}
 *   stats  {"op":"stats"}                     service introspection
 *   cancel {"op":"cancel","tag":"my-job"}     cooperative cancel
 *   drain  {"op":"drain"}                     graceful shutdown
 *   ping   {"op":"ping"}                      liveness probe
 *
 * "config" carries MachineConfig field overrides by name (a strict
 * whitelist - an unknown key is a bad-request, catching client typos
 * instead of silently simulating the wrong machine).  "params" carries
 * per-workload app knobs (rows/cols, width/height/...).  "seed" sets
 * both the app input seed and the fault seed, matching the examples'
 * --seed flag.
 *
 * A run response embeds the engine's RunResult::toJson() bytes
 * verbatim as the value of a "result" member, which is always the LAST
 * member of the envelope - a client can therefore recover the exact
 * local-run bytes by splitting at the "result": marker (see
 * Client::extractResult), which is what makes the remote-equals-local
 * byte-identity guarantee testable.
 *
 * Errors are structured, never a dropped connection:
 *
 *   {"ok":false,"op":"run","job":17,
 *    "error":{"code":"queue-full","message":"..."}}
 *
 * Codes are the SimError kind names ("fatal", "panic", "hang",
 * "memory-bounds", "unrecovered-fault", "canceled") plus the
 * service-level taxonomy: "bad-request", "unknown-workload",
 * "queue-full", "deadline-exceeded", "draining", "shutdown".
 */

#ifndef IMAGINE_SERVICE_PROTOCOL_HH
#define IMAGINE_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/json.hh"
#include "sim/config.hh"

namespace imagine::service
{

/** Request validation failure: @p code from the taxonomy above. */
struct ProtocolError : std::runtime_error
{
    ProtocolError(std::string codeIn, const std::string &msg)
        : std::runtime_error(msg), code(std::move(codeIn))
    {
    }
    std::string code;
};

/** Operations a frame can request. */
enum class Op : uint8_t
{
    Run,
    Stats,
    Cancel,
    Drain,
    Ping
};

/** A validated run request, ready to queue. */
struct RunRequest
{
    std::string workload;       ///< depth | mpeg | qrd | rtsl
    std::string tenant = "default";
    double weight = 1.0;        ///< fair-queue share of this tenant
    std::string tag;            ///< client-chosen cancel handle ("" none)
    uint64_t deadlineMs = 0;    ///< admission-to-completion bound; 0 none
    uint64_t seed = 0;
    bool seedSet = false;
    MachineConfig config;       ///< preset + overrides applied
    json::Value params;         ///< workload knobs (validated at run)
};

/** One parsed request frame. */
struct Request
{
    Op op = Op::Ping;
    RunRequest run;             ///< valid when op == Run
    std::string cancelTag;      ///< valid when op == Cancel
};

/**
 * Parse and validate one request payload.
 * @throws ProtocolError ("bad-request" / "unknown-workload")
 */
Request parseRequest(const std::string &payload);

/** Map a SimErrorKind name to the wire error code (e.g. "hang"). */
std::string wireErrorCode(int simErrorKind);

// ---------------------------------------------------------------------
// Response builders (all return a complete JSON payload string).
// ---------------------------------------------------------------------

/** {"ok":false,...} with the structured error object. */
std::string makeErrorResponse(const std::string &op, uint64_t job,
                              const std::string &code,
                              const std::string &message);

/**
 * Successful run envelope; @p resultJson is embedded verbatim as the
 * final "result" member.
 */
std::string makeRunResponse(uint64_t job, const std::string &tenant,
                            const std::string &workload, bool validated,
                            double queueMs, double runMs,
                            const std::string &resultJson);

/** {"ok":true,"op":"ping"} */
std::string makePingResponse();

/**
 * Apply @p overrides (a JSON object) onto @p cfg by field name.
 * @throws ProtocolError("bad-request") on unknown key or bad type
 */
void applyConfigOverrides(MachineConfig &cfg,
                          const json::Value &overrides);

/**
 * The inverse of applyConfigOverrides: the "config" object (JSON text,
 * "{}" when nothing differs) that turns @p base into @p cfg, covering
 * every field the override table accepts.  Fields that differ but that
 * the wire cannot set (the FU latencies, numSdrs, numMars, numUcrs) are
 * appended to @p unsendable by name; the object reproduces @p cfg only
 * when none is.
 */
std::string configOverrides(const MachineConfig &cfg,
                            const MachineConfig &base,
                            std::vector<std::string> *unsendable);

} // namespace imagine::service

#endif // IMAGINE_SERVICE_PROTOCOL_HH
