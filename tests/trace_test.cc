/**
 * @file
 * Tests for the cycle-accurate tracing subsystem (DESIGN.md section 10).
 *
 * The contract under test: tracing is a pure observer.  With
 * MachineConfig::trace off nothing changes (the hooks are dead branches
 * on a null sink); with it on, cycle counts and every counter stay
 * bit-identical - checked on every cell of the engine-contract matrix
 * (tests/contract_test.cc, arm T) - and the recorded spans must be well
 * formed (balanced, monotonic per track, valid Perfetto JSON) and must
 * re-derive the counter-based statistics exactly:
 *
 *  - well-formedness of the raw buffers and the Perfetto export,
 *  - Fig. 12 cross-check: trace-derived utilization numerators agree
 *    with the counter-based ones within 1%, span coverage >= 95%,
 *  - graceful degradation when the event cap is hit.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/apps.hh"
#include "service/json.hh"
#include "sweep_shapes.hh"
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
// Well-formedness
// ---------------------------------------------------------------------

TEST(TraceTest, WellFormedPerfettoExport)
{
    MachineConfig cfg = MachineConfig::devBoard();
    cfg.trace = true;
    ImagineSystem sys(cfg);
    apps::AppResult r = bench::runSmallApp(sys, "depth");
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
    apps::AppResult r = bench::runSmallApp(sys, "depth");
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
    apps::AppResult rbig = bench::runSmallApp(bigSys, "depth");
    ImagineSystem smallSys(small);
    apps::AppResult rsmall = bench::runSmallApp(smallSys, "depth");

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
