/**
 * @file
 * Simulation-service tests (DESIGN.md section 13): the JSON reader,
 * wire framing against malformed byte streams, SFQ fairness as a unit
 * property, request validation, and an in-process end-to-end pass over
 * a real loopback server - including the remote-equals-local
 * byte-identity contract, cancellation, deadlines, queue-full
 * admission control and the drain state machine.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "apps/apps.hh"
#include "core/system.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/queue.hh"
#include "service/server.hh"
#include "service/wire.hh"

using namespace imagine;
using namespace imagine::service;

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

TEST(ServiceJsonTest, ParsesScalarsObjectsAndArrays)
{
    json::Value v = json::parse(
        " {\"a\": 1, \"b\": [true, null, \"x\\n\"], \"c\": -2.5,"
        "  \"big\": 18446744073709551615} ");
    ASSERT_TRUE(v.isObject());
    EXPECT_EQ(v.get("a")->asU64(), 1u);
    EXPECT_EQ(v.get("big")->asU64(), UINT64_MAX);
    EXPECT_DOUBLE_EQ(v.get("c")->asDouble(), -2.5);
    const json::Value *b = v.get("b");
    ASSERT_TRUE(b && b->isArray());
    ASSERT_EQ(b->array.size(), 3u);
    EXPECT_TRUE(b->array[0].boolean);
    EXPECT_TRUE(b->array[1].isNull());
    EXPECT_EQ(b->array[2].string, "x\n");
    EXPECT_EQ(v.get("missing"), nullptr);
}

TEST(ServiceJsonTest, RejectsMalformedText)
{
    const char *bad[] = {
        "",           "{",        "[1,]",     "{\"a\":}",
        "{\"a\" 1}",  "tru",      "01x",      "\"unterminated",
        "{\"a\":1} trailing",     "\"\\u12\"", "{\"a\":1,}",
    };
    for (const char *text : bad)
        EXPECT_THROW(json::parse(text), json::ParseError) << text;
}

TEST(ServiceJsonTest, EscapeRoundTripsControlCharacters)
{
    std::string raw = "a\"b\\c\nd\te\x01f";
    json::Value v = json::parse(json::quote(raw));
    EXPECT_EQ(v.string, raw);
}

// ---------------------------------------------------------------------
// Wire framing: every malformed byte stream maps to a distinct status,
// never a crash or a hang (table-driven over a socketpair).
// ---------------------------------------------------------------------

namespace
{

/** Feed raw bytes to readFrame through a socketpair, closing after. */
WireStatus
feedBytes(const std::string &bytes, std::string *payload = nullptr)
{
    int sp[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    EXPECT_EQ(::send(sp[0], bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    ::close(sp[0]);
    std::string local;
    WireStatus ws = readFrame(sp[1], payload ? *payload : local);
    ::close(sp[1]);
    return ws;
}

std::string
frameBytes(uint32_t magic, uint32_t length, const std::string &body)
{
    std::string out;
    out.append(reinterpret_cast<const char *>(&magic), 4);
    out.append(reinterpret_cast<const char *>(&length), 4);
    out.append(body);
    return out;
}

} // namespace

TEST(ServiceWireTest, MalformedFramesYieldStructuredStatuses)
{
    struct Case
    {
        const char *name;
        std::string bytes;
        WireStatus expect;
    };
    const Case cases[] = {
        {"clean EOF", "", WireStatus::Eof},
        {"bad magic",
         frameBytes(0xdeadbeefu, 4, "{}{}"), WireStatus::BadMagic},
        {"truncated magic", std::string("IM", 2), WireStatus::Truncated},
        {"truncated length", std::string("IMS1\x02", 5),
         WireStatus::Truncated},
        {"oversized length",
         frameBytes(kWireMagic, kMaxFrameBytes + 1, ""),
         WireStatus::TooLarge},
        {"truncated payload", frameBytes(kWireMagic, 100, "short"),
         WireStatus::Truncated},
        {"empty payload ok", frameBytes(kWireMagic, 0, ""),
         WireStatus::Ok},
    };
    for (const Case &c : cases)
        EXPECT_EQ(feedBytes(c.bytes), c.expect) << c.name;

    std::string payload;
    EXPECT_EQ(feedBytes(frameBytes(kWireMagic, 9, "{\"op\":1}x"),
                        &payload),
              WireStatus::Ok);
    EXPECT_EQ(payload, "{\"op\":1}x");
}

TEST(ServiceWireTest, WriteThenReadRoundTrips)
{
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    // The payload is larger than the socketpair buffer, so the write
    // must run concurrently with the read or both sides block.
    std::string big(1 << 20, 'j');
    std::thread writer([&] { EXPECT_TRUE(writeFrame(sp[0], big)); });
    std::string got;
    EXPECT_EQ(readFrame(sp[1], got), WireStatus::Ok);
    writer.join();
    EXPECT_EQ(got, big);
    ::close(sp[0]);
    ::close(sp[1]);
}

// ---------------------------------------------------------------------
// SFQ fairness (pure queue property, no threads).
// ---------------------------------------------------------------------

namespace
{

struct QJob
{
    std::string tenant;
    int n;
};

} // namespace

TEST(ServiceQueueTest, WeightedShareGovernsDequeueOrder)
{
    FairQueue<QJob> q(1000);
    // Tenant b at weight 2 should receive ~2/3 of the service slots.
    for (int i = 0; i < 30; ++i) {
        ASSERT_TRUE(q.tryEnqueue(
            "a", 1.0, std::make_shared<QJob>(QJob{"a", i})));
        ASSERT_TRUE(q.tryEnqueue(
            "b", 2.0, std::make_shared<QJob>(QJob{"b", i})));
    }
    int bInFirst15 = 0;
    for (int i = 0; i < 15; ++i) {
        std::shared_ptr<QJob> j = q.dequeue();
        ASSERT_TRUE(j);
        if (j->tenant == "b")
            ++bInFirst15;
    }
    EXPECT_GE(bInFirst15, 9);
    EXPECT_LE(bInFirst15, 11);
}

TEST(ServiceQueueTest, FloodingTenantCannotStarveALateArrival)
{
    FairQueue<QJob> q(1000);
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(q.tryEnqueue(
            "flood", 1.0, std::make_shared<QJob>(QJob{"flood", i})));
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(q.tryEnqueue(
            "late", 1.0, std::make_shared<QJob>(QJob{"late", i})));
    // The late tenant's 5 jobs all land within the first 11 slots
    // instead of queueing behind the flood's 20.
    int lateSeen = 0;
    for (int i = 0; i < 11; ++i) {
        std::shared_ptr<QJob> j = q.dequeue();
        ASSERT_TRUE(j);
        if (j->tenant == "late")
            ++lateSeen;
    }
    EXPECT_EQ(lateSeen, 5);
}

TEST(ServiceQueueTest, BoundedAdmissionAndCloseSemantics)
{
    FairQueue<QJob> q(2);
    EXPECT_TRUE(q.tryEnqueue("a", 1.0,
                             std::make_shared<QJob>(QJob{"a", 0})));
    EXPECT_TRUE(q.tryEnqueue("a", 1.0,
                             std::make_shared<QJob>(QJob{"a", 1})));
    EXPECT_FALSE(q.tryEnqueue("a", 1.0,
                              std::make_shared<QJob>(QJob{"a", 2})));
    auto counters = q.tenantCounters();
    ASSERT_EQ(counters.size(), 1u);
    EXPECT_EQ(counters[0].second.admitted, 2u);
    EXPECT_EQ(counters[0].second.rejected, 1u);
    q.close();
    EXPECT_FALSE(q.tryEnqueue("a", 1.0,
                              std::make_shared<QJob>(QJob{"a", 3})));
    // close() drains the backlog, then yields null.
    EXPECT_TRUE(q.dequeue());
    EXPECT_TRUE(q.dequeue());
    EXPECT_EQ(q.dequeue(), nullptr);
}

// ---------------------------------------------------------------------
// Request validation.
// ---------------------------------------------------------------------

namespace
{

std::string
protocolErrorCode(const std::string &payload)
{
    try {
        parseRequest(payload);
    } catch (const ProtocolError &e) {
        return e.code;
    }
    return "";
}

} // namespace

TEST(ServiceProtocolTest, ValidatesRequests)
{
    Request r = parseRequest(
        "{\"op\":\"run\",\"workload\":\"qrd\",\"tenant\":\"t\","
        "\"weight\":2.5,\"seed\":7,\"deadlineMs\":100,"
        "\"config\":{\"trace\":true,\"faults.enabled\":true},"
        "\"params\":{\"rows\":64}}");
    EXPECT_EQ(r.op, Op::Run);
    EXPECT_EQ(r.run.workload, "qrd");
    EXPECT_EQ(r.run.tenant, "t");
    EXPECT_DOUBLE_EQ(r.run.weight, 2.5);
    EXPECT_TRUE(r.run.seedSet);
    EXPECT_EQ(r.run.seed, 7u);
    EXPECT_EQ(r.run.config.faults.seed, 7u);
    EXPECT_EQ(r.run.deadlineMs, 100u);
    EXPECT_TRUE(r.run.config.trace);
    EXPECT_TRUE(r.run.config.faults.enabled);

    EXPECT_EQ(protocolErrorCode("not json"), "bad-request");
    EXPECT_EQ(protocolErrorCode("[1,2]"), "bad-request");
    EXPECT_EQ(protocolErrorCode("{\"op\":\"warp\"}"), "bad-request");
    EXPECT_EQ(protocolErrorCode("{\"op\":\"run\"}"), "bad-request");
    EXPECT_EQ(protocolErrorCode(
                  "{\"op\":\"run\",\"workload\":\"doom\"}"),
              "unknown-workload");
    EXPECT_EQ(protocolErrorCode(
                  "{\"op\":\"run\",\"workload\":\"qrd\","
                  "\"config\":{\"warpFactor\":9}}"),
              "bad-request");
    // A removed engine knob is an unknown field like any other.
    for (std::string knob : {"eventDriven", "predecode"}) {
        try {
            parseRequest("{\"op\":\"run\",\"workload\":\"qrd\","
                         "\"config\":{\"" + knob + "\":false}}");
            ADD_FAILURE() << knob << " override was accepted";
        } catch (const ProtocolError &e) {
            EXPECT_EQ(e.code, "bad-request");
            EXPECT_EQ(std::string(e.what()),
                      "config: unknown field \"" + knob + "\"");
        }
    }
    EXPECT_EQ(protocolErrorCode(
                  "{\"op\":\"run\",\"workload\":\"qrd\","
                  "\"weight\":0}"),
              "bad-request");
    EXPECT_EQ(protocolErrorCode("{\"op\":\"cancel\"}"), "bad-request");
}

TEST(ServiceProtocolTest, RejectsOverridesTheMachineCannotRun)
{
    // Each of these once reached the simulator and killed the daemon
    // (division by zero, heap corruption) or produced invalid JSON
    // ("seconds":inf).  They must stop at validation instead.
    struct Case
    {
        const char *field;
        const char *value;
        const char *message;
    };
    const Case bad[] = {
        {"numChannels", "0", "numChannels: must be >= 1"},
        {"memClockDivider", "0", "memClockDivider: must be >= 1"},
        {"banksPerChannel", "0", "banksPerChannel: must be >= 1"},
        {"rowWords", "0", "rowWords: must be >= 1"},
        {"mcCacheWords", "0", "mcCacheWords: must be >= 1"},
        {"sbInPorts", "-1", "sbInPorts: must be >= 1"},
        {"sbOutPorts", "-1", "sbOutPorts: must be >= 1"},
        {"sbInPorts", "0", "sbInPorts: must be >= 1"},
        {"numAdders", "-1", "numAdders: must be >= 0"},
        {"faults.maxRetries", "-3", "faults.maxRetries: must be >= 0"},
        {"coreClockHz", "0", "coreClockHz: must be > 0"},
        {"coreClockHz", "-1e9", "coreClockHz: must be > 0"},
        {"hostMips", "0", "hostMips: must be > 0"},
        {"hostMips", "-0.5", "hostMips: must be > 0"},
    };
    for (const Case &c : bad) {
        std::string payload =
            std::string("{\"op\":\"run\",\"workload\":\"qrd\","
                        "\"config\":{\"") +
            c.field + "\":" + c.value + "}}";
        try {
            parseRequest(payload);
            ADD_FAILURE() << c.field << "=" << c.value << " was accepted";
        } catch (const ProtocolError &e) {
            EXPECT_EQ(e.code, "bad-request") << c.field;
            EXPECT_STREQ(e.what(), c.message) << c.field << "=" << c.value;
        }
    }
    // The bounds are inclusive: the smallest legal values still parse.
    Request r = parseRequest(
        "{\"op\":\"run\",\"workload\":\"qrd\",\"config\":{"
        "\"numChannels\":1,\"mcCacheWords\":1,\"kernelStartupCycles\":0,"
        "\"hostMips\":0.25}}");
    EXPECT_EQ(r.run.config.numChannels, 1);
    EXPECT_EQ(r.run.config.mcCacheWords, 1);
    EXPECT_EQ(r.run.config.kernelStartupCycles, 0);
    EXPECT_DOUBLE_EQ(r.run.config.hostMips, 0.25);
}

TEST(ServiceProtocolTest, RunResponseKeepsResultAsFinalMember)
{
    std::string resp = makeRunResponse(3, "t", "qrd", true, 1.25,
                                       10.5, "{\"cycles\":42}");
    EXPECT_EQ(Client::extractResult(resp), "{\"cycles\":42}");
    EXPECT_EQ(Client::extractResult(makeErrorResponse(
                  "run", 3, "queue-full", "no room")),
              "");
}

// ---------------------------------------------------------------------
// End-to-end over a loopback server.
// ---------------------------------------------------------------------

namespace
{

/** Start an in-process server on an ephemeral loopback port. */
std::unique_ptr<Server>
startServer(int workers, size_t queueCap)
{
    ServerConfig cfg;
    cfg.workers = workers;
    cfg.queueCapacity = queueCap;
    cfg.benchPath = "";     // no bench flush from unit tests
    auto server = std::make_unique<Server>(cfg);
    server->start();
    return server;
}

std::string
addr(const Server &s)
{
    return "127.0.0.1:" + std::to_string(s.port());
}

/** Small, fast QRD job (a few ms). */
std::string
runPayload(const std::string &tenant, uint64_t seed,
           const std::string &extra = "")
{
    return "{\"op\":\"run\",\"workload\":\"qrd\",\"tenant\":" +
           json::quote(tenant) + ",\"seed\":" + std::to_string(seed) +
           ",\"params\":{\"rows\":64,\"cols\":16}" + extra + "}";
}

/**
 * Six MPEG frames: several hundred ms of simulation, so aborts land
 * mid-run and the windows the tests below rely on (a job still running
 * when the next request lands) hold on a loaded machine.
 */
std::string
slowPayload(const std::string &extra = "")
{
    return "{\"op\":\"run\",\"workload\":\"mpeg\",\"seed\":1,"
           "\"params\":{\"frames\":6}" +
           extra + "}";
}

uint64_t
queueDepthOf(const std::string &statsResponse)
{
    json::Value v = json::parse(statsResponse);
    return v.get("queueDepth")->asU64();
}

/**
 * Poll stats until @p admitted runs have been admitted and @p depth of
 * them are still queued; false after 30 s.  Waiting on both counts (not
 * on the queue depth alone, which is also 0 before anything arrives)
 * keeps the admission test exact on a loaded machine.
 */
bool
waitForAdmissions(Client &control, uint64_t admitted, uint64_t depth)
{
    for (int i = 0; i < 15000; ++i) {
        json::Value v = json::parse(control.call("{\"op\":\"stats\"}"));
        const json::Value *t = v.get("tenants")->get("default");
        if (t && t->get("admitted")->asU64() == admitted &&
            v.get("queueDepth")->asU64() == depth)
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

} // namespace

TEST(ServiceE2ETest, RemoteRunMatchesLocalRunByteForByte)
{
    std::unique_ptr<Server> server = startServer(2, 64);
    std::string local;
    {
        ImagineSystem sys(MachineConfig::devBoard());
        apps::QrdConfig qc;
        qc.rows = 64;
        qc.cols = 16;
        qc.seed = 99;
        local = runQrd(sys, qc).run.toJson();
    }
    Client client(addr(*server));
    std::string resp = client.call(runPayload("e2e", 99));
    ASSERT_EQ(resp.rfind("{\"ok\":true", 0), 0u) << resp;
    EXPECT_EQ(Client::extractResult(resp), local);

    // Same request again: the persistent compile cache answers; the
    // result bytes stay identical.
    EXPECT_EQ(Client::extractResult(client.call(runPayload("e2e", 99))),
              local);
}

namespace
{

/** Raw TCP connection to the loopback server (no framing help). */
int
rawConnect(int port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return -1;
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(static_cast<uint16_t>(port));
    sa.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                  sizeof(sa)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

std::string
jsonFrame(const std::string &body)
{
    return frameBytes(kWireMagic, static_cast<uint32_t>(body.size()),
                      body);
}

} // namespace

TEST(ServiceE2ETest, MalformedTrafficGetsStructuredErrorsNotCrashes)
{
    std::unique_ptr<Server> server = startServer(1, 8);
    struct Case
    {
        const char *name;
        std::string bytes;
        bool expectResponse;    ///< server can still answer in-band
    };
    const Case cases[] = {
        {"bad magic", frameBytes(0x31534d58u, 2, "{}"), true},
        {"oversized declared length",
         frameBytes(kWireMagic, kMaxFrameBytes + 7, ""), true},
        {"truncated length", std::string("IMS1\x01", 5), false},
        {"truncated payload", frameBytes(kWireMagic, 64, "{\"op\""),
         false},
        {"invalid JSON", jsonFrame("{\"op\":*}"), true},
        {"request is not an object", jsonFrame("[1,2,3]"), true},
        {"unknown workload",
         jsonFrame("{\"op\":\"run\",\"workload\":\"nope\"}"), true},
        {"config the machine cannot run",
         jsonFrame("{\"op\":\"run\",\"workload\":\"qrd\","
                   "\"config\":{\"numChannels\":0}}"),
         true},
    };
    for (const Case &c : cases) {
        int raw = rawConnect(server->port());
        ASSERT_GE(raw, 0) << c.name;
        ASSERT_EQ(::send(raw, c.bytes.data(), c.bytes.size(),
                         MSG_NOSIGNAL),
                  static_cast<ssize_t>(c.bytes.size()))
            << c.name;
        ::shutdown(raw, SHUT_WR);
        std::string response;
        WireStatus ws = readFrame(raw, response);
        if (c.expectResponse) {
            ASSERT_EQ(ws, WireStatus::Ok) << c.name;
            EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
                << c.name << ": " << response;
        } else {
            EXPECT_EQ(ws, WireStatus::Eof) << c.name;
        }
        ::close(raw);

        // The server survived: a fresh connection still serves.
        Client after(addr(*server));
        EXPECT_EQ(after.call("{\"op\":\"ping\"}"),
                  "{\"ok\":true,\"op\":\"ping\"}")
            << c.name;
    }
}

TEST(ServiceE2ETest, CancelByTagAbortsARunningJob)
{
    std::unique_ptr<Server> server = startServer(1, 8);
    std::string spec = addr(*server);
    auto submission = std::async(std::launch::async, [&] {
        Client c(spec);
        return c.call(slowPayload(",\"tag\":\"victim\""));
    });
    // Wait until the job is running (out of the queue), then cancel.
    Client control(spec);
    for (int i = 0; i < 500; ++i) {
        std::string stats = control.call("{\"op\":\"stats\"}");
        json::Value v = json::parse(stats);
        if (queueDepthOf(stats) == 0 &&
            v.get("stats")->get("service")->get("accepted")->asU64() >=
                1)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    std::string cancelResp =
        control.call("{\"op\":\"cancel\",\"tag\":\"victim\"}");
    EXPECT_EQ(cancelResp.rfind("{\"ok\":true", 0), 0u) << cancelResp;
    std::string runResp = submission.get();
    EXPECT_EQ(runResp.rfind("{\"ok\":false", 0), 0u) << runResp;
    EXPECT_NE(runResp.find("\"code\":\"canceled\""), std::string::npos)
        << runResp;
    EXPECT_EQ(control.call("{\"op\":\"cancel\",\"tag\":\"victim\"}")
                  .find("\"canceled\":false") != std::string::npos,
              true);
}

TEST(ServiceE2ETest, DeadlineExpiresQueuedAndRunningJobs)
{
    std::unique_ptr<Server> server = startServer(1, 8);
    std::string spec = addr(*server);
    // Occupy the single worker.
    auto blocker = std::async(std::launch::async, [&] {
        Client c(spec);
        return c.call(slowPayload());
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    // This one cannot start within 5 ms: it expires in the queue (or,
    // if the blocker happened to finish, mid-run via the abort token).
    Client c(spec);
    std::string resp =
        c.call(slowPayload(",\"deadlineMs\":5"));
    EXPECT_EQ(resp.rfind("{\"ok\":false", 0), 0u) << resp;
    EXPECT_NE(resp.find("\"code\":\"deadline-exceeded\""),
              std::string::npos)
        << resp;
    (void)blocker.get();
}

TEST(ServiceE2ETest, AdmissionQueueBoundsAndDrainStateMachine)
{
    std::unique_ptr<Server> server = startServer(1, 1);
    std::string spec = addr(*server);
    // Fill the worker and the single queue slot with slow jobs.
    auto running = std::async(std::launch::async, [&] {
        Client c(spec);
        return c.call(slowPayload());
    });
    Client control(spec);
    ASSERT_TRUE(waitForAdmissions(control, 1, 0));     // running
    auto queued = std::async(std::launch::async, [&] {
        Client c(spec);
        return c.call(slowPayload());
    });
    ASSERT_TRUE(waitForAdmissions(control, 2, 1));     // and queued
    // Queue slot taken: the third concurrent run is rejected, with a
    // structured queue-full error.
    std::string full = control.call(runPayload("t", 1));
    EXPECT_EQ(full.rfind("{\"ok\":false", 0), 0u) << full;
    EXPECT_NE(full.find("\"code\":\"queue-full\""), std::string::npos)
        << full;

    // Drain: both admitted jobs complete; nothing is lost.
    std::string drained = control.call("{\"op\":\"drain\"}");
    EXPECT_EQ(drained.rfind("{\"ok\":true,\"op\":\"drain\"", 0), 0u)
        << drained;
    std::string r1 = running.get();
    std::string r2 = queued.get();
    EXPECT_EQ(r1.rfind("{\"ok\":true", 0), 0u) << r1;
    EXPECT_EQ(r2.rfind("{\"ok\":true", 0), 0u) << r2;

    // Post-drain admission is refused with the draining code.
    std::string refused = control.call(runPayload("t", 2));
    EXPECT_NE(refused.find("\"code\":\"draining\""), std::string::npos)
        << refused;
    // But introspection still works.
    EXPECT_EQ(control.call("{\"op\":\"ping\"}"),
              "{\"ok\":true,\"op\":\"ping\"}");
    EXPECT_NE(control.call("{\"op\":\"stats\"}")
                  .find("\"draining\":true"),
              std::string::npos);
}

TEST(ServiceE2ETest, UnixDomainSocketServes)
{
    ServerConfig cfg;
    cfg.unixPath = "/tmp/imagine_service_test_" +
                   std::to_string(::getpid()) + ".sock";
    cfg.workers = 1;
    cfg.benchPath = "";
    Server server(cfg);
    server.start();
    Client client("unix:" + cfg.unixPath);
    EXPECT_EQ(client.call("{\"op\":\"ping\"}"),
              "{\"ok\":true,\"op\":\"ping\"}");
    std::string resp = client.call(runPayload("u", 5));
    EXPECT_EQ(resp.rfind("{\"ok\":true", 0), 0u) << resp;
    server.stop();
}
