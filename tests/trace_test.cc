/**
 * @file
 * Tests for the cycle-accurate tracing subsystem (DESIGN.md section 10).
 *
 * The contract under test: tracing is a pure observer.  With
 * MachineConfig::trace off nothing changes (the hooks are dead branches
 * on a null sink); with it on, cycle counts and every counter stay
 * bit-identical, and the recorded spans must be well formed (balanced,
 * monotonic per track, valid Perfetto JSON) and must re-derive the
 * counter-based statistics exactly:
 *
 *  - trace-off / trace-on RunResult bit-identity across all four apps
 *    and across chaos seeds with faults injected,
 *  - well-formedness of the raw buffers and the Perfetto export,
 *  - Fig. 12 cross-check: trace-derived utilization numerators agree
 *    with the counter-based ones within 1%, span coverage >= 95%,
 *  - identical analytics with predecode on and off,
 *  - graceful degradation when the event cap is hit.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "apps/apps.hh"
#include "service/json.hh"
#include "trace/trace.hh"

using namespace imagine;

namespace
{

/** Drop the ,"trace":{...} suffix toJson appends when tracing is on. */
std::string
stripTrace(const std::string &s)
{
    size_t i = s.find(",\"trace\":");
    return i == std::string::npos ? s : s.substr(0, i) + "}";
}

/** The small DEPTH shape the chaos suites standardize on. */
apps::AppResult
runDepthSmall(ImagineSystem &sys)
{
    apps::DepthConfig dc;
    dc.width = 128;
    dc.height = 42;
    dc.disparities = 4;
    return apps::runDepth(sys, dc);
}

using AppFn = std::function<apps::AppResult(ImagineSystem &)>;

std::vector<std::pair<const char *, AppFn>>
allApps()
{
    std::vector<std::pair<const char *, AppFn>> v;
    v.emplace_back("DEPTH", [](ImagineSystem &sys) {
        return runDepthSmall(sys);
    });
    v.emplace_back("MPEG", [](ImagineSystem &sys) {
        apps::MpegConfig cfg;
        cfg.width = 64;
        cfg.height = 32;
        cfg.frames = 3;
        return apps::runMpeg(sys, cfg);
    });
    v.emplace_back("QRD", [](ImagineSystem &sys) {
        apps::QrdConfig cfg;
        cfg.rows = 64;
        cfg.cols = 16;
        return apps::runQrd(sys, cfg);
    });
    v.emplace_back("RTSL", [](ImagineSystem &sys) {
        apps::RtslConfig cfg;
        cfg.screen = 64;
        cfg.triangles = 256;
        cfg.batch = 64;
        return apps::runRtsl(sys, cfg);
    });
    return v;
}

/** True when @p text parses as one JSON value.  The service parser is
 *  independent of the hand-built writers under test (the exporter and
 *  the analytics serializer), so they are never trusted to parse their
 *  own output. */
bool
parses(const std::string &text)
{
    try {
        service::json::parse(text);
        return true;
    } catch (const service::json::ParseError &e) {
        ADD_FAILURE() << e.what();
        return false;
    }
}

} // namespace

// ---------------------------------------------------------------------
// Trace-off / trace-on bit-identity
// ---------------------------------------------------------------------

TEST(TraceTest, OffOnBitIdentityApps)
{
    // Every hook must be a read-only observer: enabling the sink may
    // append a "trace" JSON field but must not move a single cycle or
    // counter, for any of the four applications.
    for (auto &[name, run] : allApps()) {
        MachineConfig off = MachineConfig::devBoard();
        MachineConfig on = off;
        on.trace = true;
        ImagineSystem offSys(off);
        apps::AppResult roff = run(offSys);
        ImagineSystem onSys(on);
        apps::AppResult ron = run(onSys);
        EXPECT_TRUE(roff.validated) << name;
        EXPECT_TRUE(ron.validated) << name;
        EXPECT_EQ(ron.run.cycles, roff.run.cycles) << name;
        ASSERT_NE(ron.run.trace, nullptr) << name;
        EXPECT_EQ(roff.run.trace, nullptr) << name;
        std::string joff = roff.run.toJson();
        std::string jon = ron.run.toJson();
        EXPECT_NE(jon, joff) << name;   // the trace field is present...
        EXPECT_EQ(stripTrace(jon), joff) << name;   // ...and is all of it
    }
}

TEST(TraceTest, ChaosOffOnBitIdentity)
{
    // Same invariant under fault injection (ECC corrections, retries,
    // AG stall bursts), cycling the ECC mode across seeds: the fault
    // trace and every counter must not notice the observer.
    for (int run = 0; run < 9; ++run) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.faults.enabled = true;
        cfg.faults.seed = 0x7ace5ull * 1000 + static_cast<uint64_t>(run);
        cfg.faults.srfFlipRate = 1e-4;
        cfg.faults.dramFlipRate = 1e-4;
        cfg.faults.ucodeCorruptRate = 0.05;
        cfg.faults.stuckSlotRate = 1e-3;
        cfg.faults.agStallRate = 1e-3;
        cfg.faults.agStallBurstCycles = 32;
        cfg.faults.maxRetries = 3;
        switch (run % 3) {
          case 0:
            cfg.faults.srfEcc = EccMode::Secded;
            cfg.faults.memEcc = EccMode::Secded;
            break;
          case 1:
            cfg.faults.srfEcc = EccMode::Parity;
            cfg.faults.memEcc = EccMode::Parity;
            break;
          default:
            cfg.faults.srfEcc = EccMode::None;
            cfg.faults.memEcc = EccMode::None;
            break;
        }
        cfg.watchdogStagnationCycles = 200'000;

        auto fingerprint = [&](bool traced) {
            MachineConfig c = cfg;
            c.trace = traced;
            ImagineSystem sys(c);
            try {
                apps::AppResult r = runDepthSmall(sys);
                return std::string(r.validated ? "ok:" : "invalid:") +
                       stripTrace(r.run.toJson());
            } catch (const SimError &e) {
                return std::string("error:") + e.what();
            }
        };
        EXPECT_EQ(fingerprint(true), fingerprint(false))
            << "chaos seed " << run << " (ECC mode " << run % 3 << ")";
    }
}

// ---------------------------------------------------------------------
// Well-formedness
// ---------------------------------------------------------------------

TEST(TraceTest, WellFormedPerfettoExport)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.trace = true;
    ImagineSystem sys(cfg);
    apps::AppResult r = runDepthSmall(sys);
    ASSERT_TRUE(r.validated);

    const trace::TraceSink *sink = sys.traceSink();
    ASSERT_NE(sink, nullptr);
    EXPECT_GT(sink->eventCount(), 0u);
    EXPECT_EQ(sink->droppedCount(), 0u);
    // Balanced: run() flushed every open span at the final cycle.
    EXPECT_EQ(sink->openCount(), 0u);

    // Raw-buffer invariants: valid track ids, named events, instants
    // with zero duration, and per-track begin timestamps that never go
    // backwards (buffers are in emission order; a track's spans are
    // sequential, so emission order is also timeline order).
    size_t numTracks = sink->tracks().size();
    std::vector<Cycle> lastBegin(numTracks, 0);
    for (int c = 0; c < trace::NumTraceComponents; ++c) {
        for (const trace::Event &e :
             sink->events(static_cast<trace::ComponentId>(c))) {
            ASSERT_LT(e.track, numTracks);
            EXPECT_EQ(sink->tracks()[e.track].comp, c);
            ASSERT_NE(e.name, nullptr);
            if (!e.span) {
                EXPECT_EQ(e.dur, 0u);
            }
            EXPECT_GE(e.ts, lastBegin[e.track])
                << "track " << sink->tracks()[e.track].name << " event "
                << e.name;
            lastBegin[e.track] = e.ts;
        }
    }

    // The Perfetto export and the analytics JSON must both parse.
    std::string perfetto = trace::toPerfettoJson(*sink);
    EXPECT_TRUE(parses(perfetto));
    ASSERT_NE(r.run.trace, nullptr);
    EXPECT_TRUE(parses(r.run.trace->toJson()));
    EXPECT_TRUE(parses(r.run.toJson()));
}

// ---------------------------------------------------------------------
// Fig. 12 cross-check
// ---------------------------------------------------------------------

TEST(TraceTest, Fig12CrossCheckDepth)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.trace = true;
    ImagineSystem sys(cfg);
    apps::AppResult r = runDepthSmall(sys);
    ASSERT_TRUE(r.validated);
    ASSERT_NE(r.run.trace, nullptr);
    const trace::TraceAnalytics &t = *r.run.trace;

    // The Fig. 12 utilization numerators (arithmetic ops, SRF words,
    // DRAM words, host instructions) re-derived from spans must agree
    // with the counter-based ones within 1%; the recording scheme makes
    // them exact, so assert equality where the design guarantees it.
    EXPECT_EQ(t.clusterArithOps, r.run.cluster.arithOps);
    EXPECT_EQ(t.clusterFpOps, r.run.cluster.fpOps);
    EXPECT_EQ(t.srfWords, r.run.srf.wordsTransferred);
    EXPECT_EQ(t.memWords, r.run.mem.wordsLoaded + r.run.mem.wordsStored);
    EXPECT_EQ(t.hostInstrs, r.run.host.instrsSent);
    auto within1pct = [](double a, double b) {
        return b == 0.0 ? a == 0.0 : std::abs(a - b) <= 0.01 * b;
    };
    EXPECT_TRUE(within1pct(static_cast<double>(t.clusterArithOps),
                           static_cast<double>(r.run.cluster.arithOps)));
    EXPECT_TRUE(within1pct(static_cast<double>(t.srfWords),
                           static_cast<double>(
                               r.run.srf.wordsTransferred)));

    // Phase spans must cover >= 95% of all cluster-busy cycles (they
    // cover exactly 100%: every busy tick lies inside an open phase
    // span, and transitions always run as real ticks).
    uint64_t busy = r.run.cluster.busyTotal();
    ASSERT_GT(busy, 0u);
    EXPECT_GE(t.clusterBusyCycles * 100, busy * 95);
    EXPECT_EQ(t.clusterBusyCycles, busy);

    // Sanity on the derived surfaces: every FU track saw work, launches
    // match the kernel counter, and some stall attribution exists.
    EXPECT_GT(t.kernelLaunches, 0u);
    EXPECT_FALSE(t.fuOcc.empty());
    for (auto &[name, fu] : t.fuOcc) {
        EXPECT_GT(fu.span, 0u) << name;
        EXPECT_LE(fu.busy, fu.span) << name;
    }
    EXPECT_FALSE(t.stall.empty());
    double srfBw = 0, memBw = 0;
    for (size_t i = 0; i < trace::TraceAnalytics::numBwWindows; ++i) {
        srfBw += t.srfWordsPerCycle[i];
        memBw += t.memWordsPerCycle[i];
    }
    EXPECT_GT(srfBw, 0.0);
    EXPECT_GT(memBw, 0.0);
}

// ---------------------------------------------------------------------
// Engine-mode invariance
// ---------------------------------------------------------------------

TEST(TraceTest, EngineModeDifferential)
{
    // The analytics must not depend on how the engine executed the
    // kernels: interpreted and pre-decoded runs must produce the same
    // RunResult JSON including the embedded trace analytics.
    std::vector<std::string> jsons;
    for (bool pd : {true, false}) {
        MachineConfig cfg = MachineConfig::devBoard();
        cfg.trace = true;
        cfg.predecode = pd;
        ImagineSystem sys(cfg);
        apps::AppResult r = runDepthSmall(sys);
        EXPECT_TRUE(r.validated);
        ASSERT_NE(r.run.trace, nullptr);
        uint64_t busy = r.run.cluster.busyTotal();
        EXPECT_GE(r.run.trace->clusterBusyCycles * 100, busy * 95);
        jsons.push_back(r.run.toJson());
    }
    EXPECT_EQ(jsons[1], jsons[0]) << "predecode off vs on";
}

// ---------------------------------------------------------------------
// Cap degradation
// ---------------------------------------------------------------------

TEST(TraceTest, CapDegradation)
{
    // A tiny event cap must not change the simulation - only the trace
    // gets poorer, with the loss visible in the dropped counter.
    MachineConfig big = MachineConfig::devBoard();
    big.trace = true;
    MachineConfig small = big;
    small.traceMaxEvents = 64;

    ImagineSystem bigSys(big);
    apps::AppResult rbig = runDepthSmall(bigSys);
    ImagineSystem smallSys(small);
    apps::AppResult rsmall = runDepthSmall(smallSys);

    EXPECT_TRUE(rbig.validated);
    EXPECT_TRUE(rsmall.validated);
    EXPECT_EQ(rbig.run.cycles, rsmall.run.cycles);
    EXPECT_EQ(stripTrace(rbig.run.toJson()),
              stripTrace(rsmall.run.toJson()));
    EXPECT_EQ(bigSys.traceSink()->droppedCount(), 0u);
    EXPECT_GT(smallSys.traceSink()->droppedCount(), 0u);
    ASSERT_NE(rsmall.run.trace, nullptr);
    EXPECT_GT(rsmall.run.trace->dropped, 0u);
    // The capped export still parses.
    EXPECT_TRUE(parses(trace::toPerfettoJson(*smallSys.traceSink())));
}
