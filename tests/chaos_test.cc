/**
 * @file
 * Chaos-mode campaigns: every application runs many times under a
 * randomized (but seeded, hence reproducible) fault plan, cycling the
 * ECC mode across runs.  The invariant under test is *no silent
 * corruption*: every run either validates bit-exactly, fails with the
 * wrong output explained by FaultStats.silent (unprotected arrays), or
 * surfaces a SimError (hang report / exhausted retry budget).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "apps/apps.hh"
#include "sim/runner.hh"
#include "sweep_shapes.hh"

using namespace imagine;
using namespace imagine::apps;

namespace
{

constexpr int kRunsPerApp = 50;

/** Data-only outcome of one chaos run (gtest asserts are not thread-
 *  safe, so batch jobs return this and checks happen on the main
 *  thread). */
struct ChaosOutcome
{
    enum class Kind { Clean, Invalid, Error } kind = Kind::Clean;
    uint64_t injected = 0;
    uint64_t silent = 0;
    SimErrorKind errKind = SimErrorKind::Hang;
    bool hangReport = false;
    std::string what;
};

/** One chaos run of the small @p app with the plan for run @p i. */
ChaosOutcome
chaosRun(const char *app, int i)
{
    ChaosOutcome o;
    ImagineSystem sys(bench::chaosConfig(static_cast<uint64_t>(i)));
    try {
        AppResult r = bench::runSmallApp(sys, app);
        o.injected = r.run.faults.injected;
        o.silent = r.run.faults.silent;
        o.kind = r.validated ? ChaosOutcome::Kind::Clean
                             : ChaosOutcome::Kind::Invalid;
    } catch (const SimError &e) {
        const FaultStats &fs = sys.faultInjector()->stats();
        o.injected = fs.injected;
        o.silent = fs.silent;
        o.kind = ChaosOutcome::Kind::Error;
        o.errKind = e.kind();
        o.hangReport = e.hangReport() != nullptr;
        o.what = e.what();
    }
    return o;
}

/** Run one campaign; every run must be clean, explained, or reported. */
void
campaign(const char *name, const char *app)
{
    SimBatch batch;
    std::vector<Settled<ChaosOutcome>> settled =
        batch.runSettled(kRunsPerApp,
                         [&](int i) { return chaosRun(app, i); });

    // chaosRun converts every SimError to a ChaosOutcome itself, so an
    // error settling at the batch layer is a harness escape, not a
    // chaos finding.
    ASSERT_EQ(batch.failures(), 0u) << name;

    uint64_t injected = 0;
    int clean = 0, explained = 0, reported = 0;
    for (int i = 0; i < kRunsPerApp; ++i) {
        const ChaosOutcome &o = *settled[static_cast<size_t>(i)].value;
        injected += o.injected;
        switch (o.kind) {
          case ChaosOutcome::Kind::Clean:
            ++clean;
            break;
          case ChaosOutcome::Kind::Invalid:
            // Wrong output with no unprotected corruption and no error
            // raised would be a silent-corruption escape.
            ASSERT_GT(o.silent, 0u)
                << name << " run " << i
                << ": invalid output not explained by FaultStats";
            ++explained;
            break;
          case ChaosOutcome::Kind::Error:
            if (o.errKind == SimErrorKind::Hang) {
                EXPECT_TRUE(o.hangReport) << name << " run " << i;
            } else if (o.errKind != SimErrorKind::UnrecoveredFault) {
                // Unprotected (EccMode::None) corruption of control
                // data - stream lengths, gather indices - can drive
                // the model into an assertion; that is surfaced, not
                // silent, but only acceptable when silent faults were
                // actually recorded.
                ASSERT_GT(o.silent, 0u)
                    << name << " run " << i << ": unexpected "
                    << simErrorKindName(o.errKind) << ": " << o.what;
            }
            ++reported;
            break;
        }
    }
    // The campaign must actually have exercised the fault sites.
    EXPECT_GT(injected, 0u) << name;
    EXPECT_EQ(clean + explained + reported, kRunsPerApp) << name;
    std::printf("[ CHAOS    ] %s: %d clean, %d explained, %d reported\n",
                name, clean, explained, reported);
}

} // namespace

TEST(ChaosTest, Depth)
{
    campaign("DEPTH", "depth");
}

TEST(ChaosTest, Mpeg)
{
    campaign("MPEG", "mpeg");
}

TEST(ChaosTest, Qrd)
{
    campaign("QRD", "qrd");
}

TEST(ChaosTest, Rtsl)
{
    campaign("RTSL", "rtsl");
}
