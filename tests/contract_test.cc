/**
 * @file
 * The engine-contract matrix.
 *
 * One table of full-system cells.  Each cell runs once untraced at
 * Cycle fidelity - arm A, the reference - and every engine contract is
 * checked against that one run:
 *
 *  T  tracing is a pure observer (DESIGN.md section 10): the traced
 *     JSON minus its "trace" block equals A, and the block is there.
 *     With faults armed the traced run uses a Sampled config, so it
 *     also checks S's first clause.
 *  K  checkpoints are transparent (section 11): periodic snapshots under
 *     a Sampled config equal A - checkpointing forces the Cycle tier -
 *     and a run that errors leaves its .crash snapshot.
 *  R  a restore matches a straight run (section 11): a fresh untraced
 *     session restored from K's middle snapshot equals A.
 *  S  Sampled disarms or stays inside its bound (section 12): with
 *     faults armed it equals A, so it has no "fidelity" key; when
 *     nothing folded it validates and equals A once its fidelity block
 *     is removed; when a loop folded, its cycle error stays within the
 *     declared bound, and traced it keeps the trace-off output as a
 *     prefix and records a "sampled-fold" span.
 *  W  a remote run matches a local one (section 13): the cell's request
 *     sent to an in-process isimd returns A's bytes, for every cell
 *     whose config the wire can express.
 *
 * "Equal" means byte-identical RunResult::toJson() and the same
 * validation verdict, or the same SimError kind and message.
 *
 * The cells: the four small apps under 24 chaos seeds, whose ECC mode
 * (Secded, Parity, None) is crossed with three machine shapes (devBoard,
 * isim, and devBoard with a one-entry bind cache that forces rebinds
 * across a restore); the four apps fault-free on devBoard and isim;
 * small DEPTH on every other bench::machineShapes() machine; and the
 * long loop of sim_test_util.hh, the one cell that folds.  The jobs run
 * through SimBatch and return data; every assert runs on the main
 * thread.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "sim_test_util.hh"
#include "sweep_shapes.hh"

#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "sim/runner.hh"
#include "trace/trace.hh"

using namespace imagine;
using imagine::testutil::kLongLoopSrfWords;
using imagine::testutil::runLongLoop;

namespace fs = std::filesystem;

namespace
{

constexpr uint64_t kChaosSeeds = 24;
constexpr double kSampleFraction = 0.1;

/** One (case x machine x seed) cell of the matrix. */
struct Cell
{
    std::string name;
    std::string shape;          ///< machine shape, for the coverage floors
    MachineConfig cfg;
    const bench::SmallApp *app; ///< null: the long loop
};

std::vector<Cell>
cells()
{
    MachineConfig bind1 = MachineConfig::devBoard();
    bind1.clusterBindCacheKernels = 1;
    const std::pair<const char *, MachineConfig> chaosShapes[3] = {
        {"devBoard", MachineConfig::devBoard()},
        {"isim", MachineConfig::isim()},
        {"bind1", bind1}};

    std::vector<Cell> v;
    for (const bench::SmallApp &app : bench::kSmallApps) {
        std::string w = app.workload;
        for (uint64_t seed = 0; seed < kChaosSeeds; ++seed) {
            // chaosConfig cycles the ECC mode with seed % 3; the shape
            // steps every three seeds, so all nine pairs occur.
            const auto &[shape, cfg] = chaosShapes[seed / 3 % 3];
            v.push_back({w + "." + shape + ".chaos" + std::to_string(seed),
                         shape, bench::chaosConfig(seed, cfg), &app});
        }
        v.push_back({w + ".devBoard", "devBoard",
                     MachineConfig::devBoard(), &app});
        v.push_back({w + ".isim", "isim", MachineConfig::isim(), &app});
    }
    // The sweep's baseline and isim machines are the cells above.
    for (const bench::MachineShape &m : bench::machineShapes())
        if (m.name != std::string("baseline") && m.name != std::string("isim"))
            v.push_back({std::string("depth.") + m.name, m.name, m.cfg,
                         bench::findSmallApp("depth")});
    MachineConfig loop = MachineConfig::devBoard();
    loop.srfSizeWords = kLongLoopSrfWords;
    v.push_back({"longloop.devBoard", "devBoard", loop, nullptr});
    return v;
}

/** How one arm's run ended. */
struct End
{
    /** "ok:" / "invalid:" + toJson(), or "error:" + kind + message. */
    std::string text;
    bool errored = false;
    SimErrorKind kind = SimErrorKind::Panic;
    std::string what;
    Cycle cycles = 0;           ///< session cycle at the end
    RunResult run;              ///< valid when !errored
    bool foldSpan = false;      ///< traced fold: a "sampled-fold" span
};

End
runArm(const Cell &c, const MachineConfig &cfg,
       std::function<void(Cycle, const std::string &)> hook = {})
{
    End e;
    ImagineSystem sys(cfg);
    if (hook)
        sys.setCheckpointHook(std::move(hook));
    try {
        apps::AppResult r = c.app
                                ? service::runWorkload(sys, c.app->request())
                                : runLongLoop(sys);
        e.text = (r.validated ? "ok:" : "invalid:") + r.run.toJson();
        e.run = std::move(r.run);
    } catch (const SimError &err) {
        e.errored = true;
        e.kind = err.kind();
        e.what = err.what();
        e.text = std::string("error:") + simErrorKindName(e.kind) + ":" +
                 e.what;
    }
    e.cycles = sys.now();
    if (cfg.trace && !e.run.kernelFolds.empty())
        e.foldSpan = trace::toPerfettoJson(*sys.traceSink())
                         .find("\"sampled-fold\"") != std::string::npos;
    return e;
}

/** Drop the ,"trace":{...} suffix toJson appends when tracing is on. */
std::string
stripTrace(const std::string &s)
{
    size_t i = s.find(",\"trace\":");
    return i == std::string::npos ? s : s.substr(0, i) + "}";
}

/** Drop the ,"fidelity":{...} block (brace-matched: it nests the
 *  per-kernel array). */
std::string
stripFidelity(const std::string &s)
{
    const std::string key = ",\"fidelity\":{";
    size_t i = s.find(key);
    if (i == std::string::npos)
        return s;
    size_t j = i + key.size();
    for (int depth = 1; j < s.size() && depth > 0; ++j)
        depth += s[j] == '{' ? 1 : s[j] == '}' ? -1 : 0;
    return s.substr(0, i) + s.substr(j);
}

/** What one cell's arms found. */
struct Outcome
{
    std::vector<std::string> failures;
    std::string kind;           ///< A's ending: clean | invalid | error
    bool restored = false;      ///< R ran (K wrote a snapshot)
    bool folded = false;        ///< S folded a loop
    bool remote = false;        ///< W ran
    std::vector<std::string> unsendable;    ///< fields W could not send
};

Outcome
checkCell(const Cell &c, const std::string &server)
{
    Outcome o;
    auto expect = [&](bool ok, const char *arm, const std::string &why) {
        if (!ok)
            o.failures.push_back(c.name + " arm " + arm + ": " + why);
    };
    fs::path dir = fs::temp_directory_path() /
                   ("imagine_contract_" + std::to_string(getpid()) + "_" +
                    c.name);
    fs::create_directories(dir);

    const End a = runArm(c, c.cfg);
    o.kind = a.errored ? "error"
                       : a.text.rfind("ok:", 0) == 0 ? "clean" : "invalid";
    const bool faulted = c.cfg.faults.enabled;
    expect(faulted || o.kind == "clean", "A",
           "fault-free reference run ended " + o.kind);

    // With faults armed, T runs under a Sampled config: armed faults
    // force the Cycle tier, so the one traced run checks arm S too.
    const char *tArm = faulted ? "T+S" : "T";
    MachineConfig t = c.cfg;
    t.trace = true;
    if (faulted) {
        t.fidelity = Fidelity::Sampled;
        t.sampleLoopFraction = kSampleFraction;
    }
    const End te = runArm(c, t);
    expect(stripTrace(te.text) == a.text, tArm, "traced run differs");
    expect(a.errored || te.text.find(",\"trace\":") != std::string::npos,
           tArm, "no trace block");

    MachineConfig k = c.cfg;
    k.fidelity = Fidelity::Sampled;
    k.sampleLoopFraction = kSampleFraction;
    k.checkpointEveryCycles = a.cycles / 5 ? a.cycles / 5 : 50'000;
    k.checkpointPath = (dir / "k.ckpt").string();
    std::vector<std::string> snaps;
    const End ke = runArm(c, k, [&](Cycle, const std::string &p) {
        std::string dst =
            (dir / ("snap." + std::to_string(snaps.size()) + ".ckpt"))
                .string();
        fs::rename(p, dst);
        snaps.push_back(dst);
    });
    expect(ke.text == a.text, "K", "checkpointing run differs");
    expect(!a.errored || fs::exists(k.checkpointPath + ".crash"), "K",
           "errored run left no crash snapshot");

    if (!snaps.empty()) {
        o.restored = true;
        MachineConfig r = c.cfg;
        r.restorePath = snaps[snaps.size() / 2];
        expect(runArm(c, r).text == a.text, "R", "restored run differs");
    }

    if (!faulted) {
        MachineConfig s = c.cfg;
        s.fidelity = Fidelity::Sampled;
        s.sampleLoopFraction = kSampleFraction;
        const End se = runArm(c, s);
        if (se.errored || se.run.kernelFolds.empty()) {
            expect(se.text.find("\"fidelity\":{\"tier\":\"sampled\","
                                "\"sampleLoopFraction\":") !=
                       std::string::npos,
                   "S", "no fidelity block");
            expect(stripFidelity(se.text) == a.text, "S",
                   "nothing folded, yet the run differs");
        } else {
            o.folded = true;
            double bound = 0.0;
            for (const KernelFoldRecord &kf : se.run.kernelFolds)
                bound = std::max(bound, kf.errorBound);
            double err = std::abs(static_cast<double>(se.run.cycles) -
                                  static_cast<double>(a.run.cycles)) /
                         static_cast<double>(a.run.cycles);
            // The whole-run error dilutes the kernel-relative bound
            // (host and memory phases are exact); half a percent of
            // slack absorbs downstream DRAM state shifted by the
            // estimated stall count.
            expect(err <= bound + 0.005 && err < 0.02, "S",
                   "cycle error " + std::to_string(err) + " past bound " +
                       std::to_string(bound));
            s.trace = true;
            const End st = runArm(c, s);
            // The trace-off output is the traced one up to the closing
            // brace the trace block goes in front of.
            std::string head = se.text.substr(0, se.text.size() - 1);
            expect(st.text.compare(0, head.size(), head) == 0 &&
                       st.text.compare(head.size(), 9, ",\"trace\":") == 0,
                   "S", "traced fold lost the trace-off prefix");
            expect(st.foldSpan, "S", "traced fold has no sampled-fold span");
        }
    }

    if (c.app) {
        std::string config = service::configOverrides(
            c.cfg, MachineConfig::devBoard(), &o.unsendable);
        if (o.unsendable.empty()) {
            o.remote = true;
            std::string resp = service::Client(server).call(
                std::string("{\"op\":\"run\",\"workload\":\"") +
                c.app->workload + "\",\"preset\":\"devBoard\",\"config\":" +
                config + ",\"params\":" + c.app->params + "}");
            service::json::Value v = service::json::parse(resp);
            std::string got, want = a.text;
            if (v.get("ok")->boolean) {
                got = (v.get("validated")->boolean ? "ok:" : "invalid:") +
                      service::Client::extractResult(resp);
            } else {
                const service::json::Value *err = v.get("error");
                got = "error:" + err->get("code")->string + ":" +
                      err->get("message")->string;
                if (a.errored)
                    want = "error:" +
                           service::wireErrorCode(
                               static_cast<int>(a.kind)) +
                           ":" + a.what;
            }
            expect(got == want, "W",
                   "remote run differs: " + got.substr(0, 120));
        }
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    return o;
}

} // namespace

TEST(ContractTest, EveryCellMeetsEveryContract)
{
    const std::vector<Cell> cs = cells();
    service::ServerConfig scfg;
    scfg.workers = 2;
    scfg.queueCapacity = cs.size();     // never queue-full, at any width
    scfg.benchPath = "";
    service::Server server(scfg);
    server.start();
    const std::string addr = "127.0.0.1:" + std::to_string(server.port());

    SimBatch batch;
    std::vector<Settled<Outcome>> settled =
        batch.runSettled(static_cast<int>(cs.size()), [&](int i) {
            return checkCell(cs[static_cast<size_t>(i)], addr);
        });
    for (const Settled<Outcome> &s : settled)
        if (!s.ok())
            ADD_FAILURE() << "harness escape: " << s.error->what();
    ASSERT_EQ(batch.failures(), 0u);

    // Every cell runs A, T, K and R; the counts below are the rest.
    const int n = static_cast<int>(cs.size());
    int restored = 0, faulted = 0, unfolded = 0, folded = 0, remote = 0;
    int notWorkload = 0;
    std::map<std::string, int> perApp, remotePerApp, kinds;
    std::set<std::string> shapes, unsendable;
    std::set<int> eccModes;
    for (size_t i = 0; i < cs.size(); ++i) {
        const Cell &c = cs[i];
        const Outcome &o = *settled[i].value;
        for (const std::string &f : o.failures)
            ADD_FAILURE() << f;
        std::string app = c.app ? c.app->workload : "longloop";
        ++perApp[app];
        shapes.insert(c.shape);
        restored += o.restored;
        if (c.cfg.faults.enabled) {
            ++faulted;
            eccModes.insert(static_cast<int>(c.cfg.faults.srfEcc));
            ++kinds[o.kind];
        } else {
            ++(o.folded ? folded : unfolded);
        }
        remote += o.remote;
        remotePerApp[app] += o.remote;
        notWorkload += c.app == nullptr;
        unsendable.insert(o.unsendable.begin(), o.unsendable.end());
    }
    std::printf("[ CONTRACT ] %d cells: T %d + %d folded, K %d, R %d, "
                "S disarmed %d (%d faulted, %d checkpointing, %d "
                "unfolded) + %d folded, W %d\n",
                n, n, folded, n, restored, faulted + n + unfolded, faulted,
                n, unfolded, folded, remote);
    std::printf("[ CONTRACT ] chaos cells: %d clean, %d invalid, %d "
                "error; W skipped %d cells: %d not a service workload, "
                "the rest set fields the wire cannot send:",
                kinds["clean"], kinds["invalid"], kinds["error"],
                n - remote, notWorkload);
    for (const std::string &f : unsendable)
        std::printf(" %s", f.c_str());
    std::printf("\n");

    // No contract covers fewer cases than its old per-mode rig did.
    EXPECT_GE(n, 13);
    EXPECT_GE(restored, 96);
    EXPECT_EQ(restored, n);
    for (const bench::SmallApp &a : bench::kSmallApps) {
        EXPECT_GE(perApp[a.workload], 24) << a.workload;
        EXPECT_GE(remotePerApp[a.workload], 1) << a.workload;
    }
    for (const char *shape : {"devBoard", "isim", "bind1"})
        EXPECT_TRUE(shapes.count(shape)) << shape;
    EXPECT_EQ(eccModes.size(), 3u);
    EXPECT_GE(faulted, 1);
    EXPECT_GE(faulted + n + unfolded, 5);
    EXPECT_GE(folded, 1);
    for (const char *kind : {"clean", "invalid", "error"})
        EXPECT_GE(kinds[kind], 1) << kind;
}

TEST(ContractTest, WireRoundTripsEveryMatrixMachine)
{
    // configOverrides is the inverse of applyConfigOverrides: sending a
    // matrix machine, with every engine knob the arms set, rebuilds the
    // same architecture (the checkpoint fingerprint) and the same knobs.
    const MachineConfig base = MachineConfig::devBoard();
    int sent = 0;
    for (const Cell &c : cells()) {
        MachineConfig cfg = c.cfg;
        cfg.trace = true;
        cfg.traceMaxEvents = 4096;
        cfg.fidelity = Fidelity::Sampled;
        cfg.sampleLoopFraction = kSampleFraction;
        cfg.checkpointEveryCycles = 5'000;
        cfg.checkpointPath = "snap \"k\".ckpt";
        cfg.restorePath = "r.ckpt";
        std::vector<std::string> unsendable;
        std::string wire = service::configOverrides(cfg, base, &unsendable);
        if (!unsendable.empty())
            continue;
        MachineConfig back = base;
        service::applyConfigOverrides(back, service::json::parse(wire));
        EXPECT_EQ(configFingerprint(back), configFingerprint(cfg))
            << c.name << ": " << wire;
        EXPECT_EQ(back.trace, cfg.trace) << c.name;
        EXPECT_EQ(back.traceMaxEvents, cfg.traceMaxEvents) << c.name;
        EXPECT_EQ(back.fidelity, cfg.fidelity) << c.name;
        EXPECT_EQ(back.sampleLoopFraction, cfg.sampleLoopFraction)
            << c.name;
        EXPECT_EQ(back.checkpointEveryCycles, cfg.checkpointEveryCycles)
            << c.name;
        EXPECT_EQ(back.checkpointPath, cfg.checkpointPath) << c.name;
        EXPECT_EQ(back.restorePath, cfg.restorePath) << c.name;
        ++sent;
    }
    EXPECT_GT(sent, 100);

    std::vector<std::string> unsendable;
    EXPECT_EQ(service::configOverrides(base, base, &unsendable), "{}");
    EXPECT_TRUE(unsendable.empty());
    // What the wire cannot set is named, not dropped.
    for (const bench::MachineShape &m : bench::machineShapes())
        if (std::string(m.name) == "slow_fus")
            service::configOverrides(m.cfg, base, &unsendable);
    EXPECT_EQ(unsendable,
              (std::vector<std::string>{"latFpAdd", "latFpMul",
                                        "latIntMul"}));
}
