/**
 * @file
 * The single-threaded batch workloads: apps_cycle, mem_grid and
 * fold_sampled.  A pass runs a fixed job list in order; every job
 * builds a fresh ImagineSystem, runs, is checked, and serializes its
 * RunResult with toJson(), exactly what an example binary does.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>

#include "apps/apps.hh"
#include "core/system.hh"
#include "kernelc/compile_cache.hh"
#include "kernelc/predecode.hh"
#include "workloads.hh"

namespace isimbench
{

using namespace imagine;
using apps::AppResult;

// ---------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------

double
KernelTimer::time(const ImagineSystem &sys)
{
    Clock::time_point t0 = Clock::now();
    uint64_t cfgKey = kernelc::compileConfigFingerprint(sys.config());
    for (const kernelc::CompiledKernel &k : sys.kernels()) {
        if (!seen_.insert({kernelc::fingerprint(k.graph), cfgKey}).second)
            continue;
        Clock::time_point a = Clock::now();
        kernelc::CompiledKernel fresh = kernelc::compile(k.graph, sys.config());
        Clock::time_point b = Clock::now();
        kernelc::LoweredKernel low = kernelc::lower(fresh);
        Clock::time_point c = Clock::now();
        compileMs_ += 1e3 * secondsBetween(a, b);
        lowerMs_ += 1e3 * secondsBetween(b, c);
        (void)low;
    }
    return secondsBetween(t0, Clock::now());
}

void
reportTraced(Report &rep, const Tracer &tracer, const KernelTimer &timer,
             const std::vector<double> &tracedWall,
             const std::vector<double> &untracedWall)
{
    kernelc::CompileCache &cache = kernelc::CompileCache::instance();
    rep.layer("kernelc.compile_ms", timer.compileMs());
    rep.layer("kernelc.lower_ms", timer.lowerMs());
    rep.layer("kernelc.cache_misses", static_cast<double>(cache.misses()));
    rep.layer("kernelc.cache_hits", static_cast<double>(cache.hits()));
    Tracer::Split split = tracer.split();
    for (const MetricDef &d : kPerLayer) {
        std::string name = d.name;
        if (name.rfind("split.", 0) != 0)
            continue;
        auto it = split.selfShare.find(name.substr(6));
        rep.layer(name, it == split.selfShare.end() ? 0.0 : it->second,
                  split.jobs);
    }
    rep.layer("trace.coverage_min_pct", 100.0 * split.minCoverage, split.jobs);
    char why[96] = "";
    if (split.minCoverage < 0.95)
        std::snprintf(why, sizeof(why),
                      "child spans cover only %.1f%% of a job (want >= 95%%)",
                      100.0 * split.minCoverage);
    rep.outcome("trace.coverage", why);
    double traced = median(tracedWall), untraced = median(untracedWall);
    rep.layer("trace.overhead_pct",
              untraced > 0.0 ? 100.0 * (traced / untraced - 1.0) : 0.0);
}

void
LayerCounts::add(const RunResult &r, const MachineConfig &cfg)
{
    cycles_ += r.cycles;
    kernelCycles_ += r.breakdown.kernelTime();
    stallCycles_ += r.cluster.stallCycles;
    issuedOps_ += r.cluster.issuedOps;
    estimatedCycles_ += r.estimatedCycles;
    for (const KernelFoldRecord &f : r.kernelFolds) {
        kernelFolds_ += f.launches;
        maxErrorBound_ = std::max(maxErrorBound_, f.errorBound);
    }
    srfWords_ += r.srf.wordsTransferred;
    srfBusy_ += r.srf.busyCycles;
    memWords_ += r.mem.wordsLoaded + r.mem.wordsStored;
    dramAccesses_ += r.mem.dramAccesses;
    rowMisses_ += r.mem.rowMisses;
    channelBusyCycles_ += static_cast<double>(r.mem.channelBusyMemCycles) *
                          cfg.memClockDivider / cfg.numChannels;
    scRetired_ += r.sc.instrsRetired;
    scoreboardFull_ += r.host.scoreboardFullCycles;
    for (int i = 0; i < 5; ++i)
        idle_[i] += r.idleCycles[i];
}

void
LayerCounts::report(Report &rep) const
{
    auto share = [this](double part) {
        return cycles_ ? part / static_cast<double>(cycles_) : 0.0;
    };
    auto count = [](uint64_t v) { return static_cast<double>(v); };
    rep.layer("cluster.busy_share", share(count(kernelCycles_)));
    rep.layer("cluster.stall_share", share(count(stallCycles_)));
    rep.layer("cluster.issued_ops", count(issuedOps_));
    rep.layer("cluster.fold.estimated_share", share(count(estimatedCycles_)));
    rep.layer("cluster.fold.kernel_folds", count(kernelFolds_));
    rep.layer("cluster.fold.max_error_bound", maxErrorBound_);
    rep.layer("srf.words", count(srfWords_));
    rep.layer("srf.busy_share", share(count(srfBusy_)));
    rep.layer("mem.words", count(memWords_));
    rep.layer("mem.dram_accesses", count(dramAccesses_));
    rep.layer("mem.row_misses", count(rowMisses_));
    rep.layer("mem.channel_busy_share", share(channelBusyCycles_));
    rep.layer("host.sc_instrs_retired", count(scRetired_));
    rep.layer("host.scoreboard_full_cycles", count(scoreboardFull_));
    const int causes[4] = {static_cast<int>(IdleCause::UcodeLoad),
                           static_cast<int>(IdleCause::Memory),
                           static_cast<int>(IdleCause::ScOverhead),
                           static_cast<int>(IdleCause::Host)};
    const char *names[4] = {"ucode", "mem", "sc", "host"};
    for (int i = 0; i < 4; ++i)
        rep.layer(std::string("core.idle_share.") + names[i],
                  share(count(idle_[causes[i]])));
}

namespace
{

/**
 * What a job body hands back to the pass harness.  Both times are
 * thread CPU seconds, the clock ImagineSystem::runWallSeconds() reads,
 * so their difference is the app's own work however the host scheduled
 * the thread.
 */
struct Outcome
{
    RunResult run;
    double appCpuS = 0.0;   ///< the apps::run* call; 0 for grids
    double loopCpuS = 0.0;  ///< the cycle loop
    std::string error;      ///< empty when every check passed
};

using Body = std::function<Outcome(ImagineSystem &, Tracer &, uint64_t)>;

/** One job of a pass. */
struct Job
{
    std::string name;       ///< fingerprint key, unique in the pass
    std::string kind;       ///< depth | mpeg | qrd | rtsl | grid
    MachineConfig cfg;
    Body body;
};

struct JobTimes
{
    std::string kind;
    double wallS = 0.0, sessionS = 0.0, toJsonS = 0.0;
    double appCpuS = 0.0, loopCpuS = 0.0;
    uint64_t cycles = 0;
};

struct Pass
{
    double wallS = 0.0, cpuS = 0.0;
    std::vector<JobTimes> jobs;
    LayerCounts counts;
};

/**
 * Run every job once, in order.  @p timer (traced runs only) times the
 * kernels of each session after its job; that time is taken out of the
 * pass's wall and CPU time.
 */
Pass
runPass(const std::vector<Job> &jobs, Report &rep, Tracer &tracer,
        KernelTimer *timer)
{
    Pass pass;
    double excluded = 0.0;
    double cpu0 = processCpuSeconds();
    Clock::time_point start = Clock::now();
    for (const Job &job : jobs) {
        uint64_t id = tracer.newId();
        Clock::time_point t0 = Clock::now();
        ImagineSystem sys(job.cfg);
        Clock::time_point t1 = Clock::now();
        tracer.span("session", id, t0, t1);
        Outcome o;
        try {
            o = job.body(sys, tracer, id);
        } catch (const std::exception &e) {
            o.error = std::string("threw: ") + e.what();
        }
        Clock::time_point t2 = Clock::now();
        std::string json = o.run.toJson();
        Clock::time_point t3 = Clock::now();
        tracer.span("to_json", id, t2, t3);
        tracer.record(id, "job", 0, t0, secondsBetween(t0, t3));
        if (o.error.empty() && json.find("\"cycles\"") == std::string::npos)
            o.error = "toJson() output has no cycles";

        rep.outcome(job.name, o.error);
        if (o.error.empty())
            rep.cycles(job.name, o.run.cycles);
        pass.counts.add(o.run, job.cfg);
        pass.jobs.push_back({job.kind, secondsBetween(t0, t3),
                             secondsBetween(t0, t1), secondsBetween(t2, t3),
                             o.appCpuS, o.loopCpuS, o.run.cycles});
        if (timer)
            excluded += timer->time(sys);
    }
    pass.wallS = secondsBetween(start, Clock::now()) - excluded;
    pass.cpuS = processCpuSeconds() - cpu0 - excluded;
    return pass;
}

/** A job body calling one apps::run* entry point. */
template <typename Cfg>
Body
appBody(AppResult (*fn)(ImagineSystem &, const Cfg &), Cfg cfg)
{
    return [fn, cfg](ImagineSystem &sys, Tracer &tracer, uint64_t job) {
        Outcome o;
        uint64_t id = tracer.newId();
        Clock::time_point t0 = Clock::now();
        double cpu0 = threadCpuSeconds();
        AppResult r = fn(sys, cfg);
        o.appCpuS = threadCpuSeconds() - cpu0;
        Clock::time_point t1 = Clock::now();
        o.loopCpuS = sys.runWallSeconds();
        // The app runs its cycle loop somewhere inside the call; only its
        // length is known from outside, so the span starts with the app.
        tracer.record(tracer.newId(), "cycle_loop", id, t0, o.loopCpuS);
        tracer.record(id, "app", job, t0, secondsBetween(t0, t1));
        // Folded runs hold representative rather than exact data, so
        // only a run with nothing folded must match its golden model.
        if (!r.validated && r.run.estimatedCycles == 0)
            o.error = "golden validation failed";
        o.run = std::move(r.run);
        return o;
    };
}

/** How much work one run of a batch workload does. */
struct BatchSize
{
    int setups;     ///< cold set-ups; setup_s is the fastest
    int passes;     ///< warm timed passes; pass_s is the fastest
};

/**
 * Cold set-ups, then the timed passes, then every metric.  Each cold
 * set-up clears the compile cache and runs a whole pass; the traced run
 * alternates traced and untraced passes to measure its own overhead.
 */
void
runBatch(const Options &opt, Report &rep, Tracer &tracer,
         const std::vector<Job> &jobs, BatchSize size)
{
    // A smoke run measures (and traces) its single cold pass; otherwise
    // the cold passes are set-up only and the timed passes start warm.
    KernelTimer timer;
    std::vector<double> setups;
    std::vector<Pass> passes;
    tracer.setOn(opt.smoke && opt.traced());
    for (int k = 0; k < opt.setups(size.setups); ++k) {
        kernelc::CompileCache::instance().clear();
        passes.push_back(runPass(jobs, rep, tracer,
                                 opt.smoke && opt.traced() ? &timer : nullptr));
        setups.push_back(passes.back().wallS);
    }
    if (!opt.smoke)
        passes.clear();

    std::vector<double> tracedWall, untracedWall;
    for (int i = 0; !opt.smoke && i < size.passes; ++i) {
        bool traced = opt.traced() && i % 2 == 0;
        tracer.setOn(traced);
        passes.push_back(runPass(jobs, rep, tracer, traced ? &timer : nullptr));
        (traced ? tracedWall : untracedWall).push_back(passes.back().wallS);
    }
    tracer.setOn(false);

    std::vector<double> passWall, passMcps, sessionMs, toJsonMs, runCpu;
    std::vector<std::vector<double>> jobMs(jobs.size());
    std::map<std::string, std::vector<double>> selfMs;
    std::map<std::string, std::pair<double, double>> loopByKind;
    double cycles = 0.0, loopS = 0.0;
    for (const Pass &p : passes) {
        double passCycles = 0.0, passLoop = 0.0;
        std::map<std::string, double> passSelf;
        for (size_t i = 0; i < p.jobs.size(); ++i) {
            const JobTimes &j = p.jobs[i];
            jobMs[i].push_back(1e3 * j.wallS);
            sessionMs.push_back(1e3 * j.sessionS);
            toJsonMs.push_back(1e3 * j.toJsonS);
            passLoop += j.loopCpuS;
            passCycles += static_cast<double>(j.cycles);
            loopByKind[j.kind].first += j.loopCpuS;
            loopByKind[j.kind].second += static_cast<double>(j.cycles);
            if (j.appCpuS > 0.0)
                passSelf[j.kind] += 1e3 * (j.appCpuS - j.loopCpuS);
        }
        passWall.push_back(p.wallS);
        passMcps.push_back(p.cpuS > 0.0 ? passCycles / p.cpuS / 1e6 : 0.0);
        cycles += passCycles;
        loopS += passLoop;
        runCpu.push_back(passLoop);
        for (const auto &[kind, ms] : passSelf)
            selfMs[kind].push_back(ms);
    }
    // Host slowdowns on a shared machine only ever add time, so a timed
    // quantity is its fastest of a fixed number of set-ups or passes.
    // Every job weighs the same in job_ms, however long it runs.
    double logSum = 0.0;
    for (const std::vector<double> &ms : jobMs)
        logSum += std::log(std::ranges::min(ms));

    rep.endToEnd("setup_s", std::ranges::min(setups), setups.size());
    rep.endToEnd("pass_s", std::ranges::min(passWall), passWall.size());
    rep.endToEnd("job_ms", std::exp(logSum / static_cast<double>(jobs.size())),
                 passWall.size() * jobs.size());
    rep.endToEnd("sim_mcps", std::ranges::max(passMcps), passMcps.size());
    rep.context("passes", std::to_string(passes.size()) + " of " +
                              std::to_string(jobs.size()) + " jobs");
    rep.context("pass_s", join(passWall));
    rep.context("setup_s", join(setups));

    if (!opt.traced())
        return;
    rep.layer("core.session_ms.p50", median(sessionMs), sessionMs.size());
    rep.layer("core.to_json_ms.p50", median(toJsonMs), toJsonMs.size());
    rep.layer("core.run_cpu_s", median(runCpu), runCpu.size());
    rep.layer("core.ns_per_cycle", cycles > 0.0 ? 1e9 * loopS / cycles : 0.0);
    for (const auto &[kind, ls] : loopByKind)
        rep.layer("core.ns_per_cycle." + kind,
                  ls.second > 0.0 ? 1e9 * ls.first / ls.second : 0.0);
    for (const auto &[kind, ms] : selfMs)
        rep.layer("apps.self_ms." + kind, median(ms), ms.size());
    passes.back().counts.report(rep);
    reportTraced(rep, tracer, timer, tracedWall, untracedWall);
}

template <typename Cfg>
Job
appJob(const std::string &name, const MachineConfig &mc,
       AppResult (*fn)(ImagineSystem &, const Cfg &), Cfg cfg)
{
    return {name, name.substr(0, name.find('.')), mc, appBody(fn, cfg)};
}

/** The four Table 3 apps; @p stress picks the fold-stress shapes. */
std::vector<Job>
appJobs(uint64_t seed, const MachineConfig &mc, bool stress)
{
    apps::DepthConfig depth;
    depth.width = stress ? 49152 : 512;
    depth.height = stress ? 18 : 110;
    depth.seed = derive(seed, 1);
    apps::MpegConfig mpeg;
    mpeg.width = stress ? 32768 : 320;
    mpeg.height = stress ? 16 : 240;
    mpeg.frames = stress ? 1 : 3;
    mpeg.seed = derive(seed, 2);
    apps::QrdConfig qrd;
    qrd.rows = stress ? 65536 : 192;
    qrd.cols = stress ? 16 : 96;
    qrd.seed = derive(seed, 3);
    apps::RtslConfig rtsl;      // stock: RTSL never folds
    rtsl.seed = derive(seed, 4);
    return {appJob("depth", mc, &apps::runDepth, depth),
            appJob("mpeg", mc, &apps::runMpeg, mpeg),
            appJob("qrd", mc, &apps::runQrd, qrd),
            appJob("rtsl", mc, &apps::runRtsl, rtsl)};
}

// ---------------------------------------------------------------------
// mem_grid: the Fig. 9/10 load grids
// ---------------------------------------------------------------------

struct Pattern
{
    const char *name;
    uint32_t stride, record;
    uint32_t idxRange;      ///< 0: strided
};

const Pattern kPatterns[] = {
    {"unit", 1, 1, 0},        {"stride2", 2, 1, 0},
    {"rec4s12", 12, 4, 0},    {"idx16", 0, 1, 16},
    {"idx2K", 0, 1, 2048},    {"idx4M", 0, 1, 4u << 20},
};
const uint32_t kLengths[] = {128, 2048, 8192};

/** The seeded word staged at @p addr. */
Word
dataWord(uint64_t seed, Addr addr)
{
    return static_cast<Word>(derive(seed, addr));
}

/**
 * @p ags concurrent loads of @p len words with pattern @p p, repeated
 * like the paper's micro-benchmark.  Every address read holds a seeded
 * word; after the run each destination stream must hold exactly the
 * words at its addresses.
 */
Outcome
gridJob(ImagineSystem &sys, Tracer &tracer, uint64_t job, const Pattern &p,
        uint32_t len, int ags, uint64_t seed)
{
    Outcome o;
    Clock::time_point t0 = Clock::now();
    auto b = sys.newProgram();
    std::vector<uint32_t> dst(static_cast<size_t>(ags));
    std::vector<int> idxSdr(static_cast<size_t>(ags), -1);
    std::vector<std::vector<Addr>> addrs(static_cast<size_t>(ags));
    for (size_t a = 0; a < dst.size(); ++a) {
        dst[a] = b.alloc(len);
        // Disjoint 8M-word bases so the streams advance without aliasing.
        Addr base = static_cast<Addr>(a) * (8u << 20);
        if (p.idxRange) {
            Rng rng(derive(seed, a));
            uint32_t records = len / p.record;
            uint32_t off = b.alloc(records);
            for (uint32_t i = 0; i < records; ++i) {
                auto idx = static_cast<Word>(rng.below(p.idxRange));
                sys.srf().write(off + i, idx);
                for (uint32_t w = 0; w < p.record; ++w)
                    addrs[a].push_back(base + idx + w);
            }
            idxSdr[a] = b.sdr(off, records);
        } else {
            for (uint32_t e = 0; e < len; ++e)
                addrs[a].push_back(base +
                                   static_cast<Addr>(e / p.record) * p.stride +
                                   e % p.record);
        }
        for (Addr addr : addrs[a])
            sys.memory().writeWord(addr, dataWord(seed, addr));
    }
    Clock::time_point t1 = Clock::now();
    tracer.span("stage", job, t0, t1);

    int repeats = std::max<int>(2, static_cast<int>(32768 / len));
    for (int r = 0; r < repeats; ++r) {
        for (size_t a = 0; a < dst.size(); ++a) {
            Addr base = static_cast<Addr>(a) * (8u << 20);
            if (p.idxRange)
                b.load(b.marIndexed(base, p.record), b.sdr(dst[a], len),
                       idxSdr[a], "idxload");
            else
                b.load(b.marStride(base, p.stride, p.record),
                       b.sdr(dst[a], len), -1, "load");
        }
    }
    StreamProgram prog = b.take();
    Clock::time_point t2 = Clock::now();
    tracer.span("build", job, t1, t2);

    double cpu0 = threadCpuSeconds();
    o.run = sys.run(prog);
    o.loopCpuS = threadCpuSeconds() - cpu0;
    Clock::time_point t3 = Clock::now();
    tracer.span("cycle_loop", job, t2, t3);

    for (size_t a = 0; a < dst.size() && o.error.empty(); ++a) {
        for (uint32_t e = 0; e < len; ++e) {
            if (sys.srf().read(dst[a] + e) != dataWord(seed, addrs[a][e])) {
                o.error = "SRF word " + std::to_string(e) + " of AG " +
                          std::to_string(a) + " differs from memory";
                break;
            }
        }
    }
    tracer.span("check", job, t3, Clock::now());
    return o;
}

} // namespace

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

// Pass counts give 12 to 13 s of timed passes on the commit that
// introduced the benchmark (benchmark/baseline.json), and stay fixed so
// that a faster commit does the same work, not more.
constexpr BatchSize kAppsCycleSize{5, 15};      // ~0.8 s a pass
constexpr BatchSize kMemGridSize{5, 12};        // ~1.1 s a pass
constexpr BatchSize kFoldSampledSize{5, 4};     // ~3.2 s a pass

void
appsCycle(const Options &opt, Report &rep, Tracer &tracer)
{
    runBatch(opt, rep, tracer,
             appJobs(opt.seed, MachineConfig::devBoard(), false),
             kAppsCycleSize);
}

void
memGrid(const Options &opt, Report &rep, Tracer &tracer)
{
    std::vector<Job> jobs;
    uint64_t n = 0;
    for (int ags = 1; ags <= 2; ++ags) {
        for (const Pattern &p : kPatterns) {
            for (uint32_t len : kLengths) {
                uint64_t seed = derive(opt.seed, 100 + n++);
                Job j;
                j.name = std::string("grid.") + p.name + "." +
                         std::to_string(len) + ".ag" + std::to_string(ags);
                j.kind = "grid";
                j.cfg = MachineConfig::devBoard();
                j.body = [&p, len, ags, seed](ImagineSystem &sys,
                                              Tracer &tr, uint64_t id) {
                    return gridJob(sys, tr, id, p, len, ags, seed);
                };
                jobs.push_back(std::move(j));
            }
        }
    }
    // Fig. 14's low end: DEPTH starved by a 0.5 MIPS host interface.
    MachineConfig slowHost = MachineConfig::devBoard();
    slowHost.hostMips = 0.5;
    apps::DepthConfig depth;
    depth.seed = derive(opt.seed, 1);
    jobs.push_back(appJob("depth.0.5mips", slowHost, &apps::runDepth, depth));
    runBatch(opt, rep, tracer, jobs, kMemGridSize);
}

void
foldSampled(const Options &opt, Report &rep, Tracer &tracer)
{
    MachineConfig mc = MachineConfig::devBoard();
    mc.srfSizeWords = 4u * 1024 * 1024;     // room for the long streams
    mc.fidelity = Fidelity::Cycle;

    // Untimed full-fidelity reference of the same shapes and seed.
    std::map<std::string, double> reference;
    for (const Job &j : appJobs(opt.seed, mc, true)) {
        ImagineSystem sys(j.cfg);
        Outcome o;
        try {
            o = j.body(sys, tracer, 0);
        } catch (const std::exception &e) {
            o.error = std::string("threw: ") + e.what();
        }
        rep.outcome(j.name + ".reference", o.error);
        reference[j.name] = static_cast<double>(o.run.cycles);
    }

    mc.fidelity = Fidelity::Sampled;
    std::vector<Job> jobs = appJobs(opt.seed, mc, true);
    double maxErrPct = 0.0;
    for (Job &j : jobs) {
        double ref = reference[j.name];
        j.body = [inner = j.body, ref, &maxErrPct](ImagineSystem &sys,
                                                   Tracer &tr, uint64_t id) {
            Outcome o = inner(sys, tr, id);
            double bound = 0.0;
            for (const KernelFoldRecord &f : o.run.kernelFolds)
                bound = std::max(bound, f.errorBound);
            double err =
                ref > 0.0 ? std::fabs(static_cast<double>(o.run.cycles) - ref) / ref
                          : 1.0;
            maxErrPct = std::max(maxErrPct, 100.0 * err);
            char buf[160];
            if (o.error.empty() && (err > 0.02 || err > bound + 1e-12)) {
                std::snprintf(buf, sizeof(buf),
                              "sampled cycles off the reference by %.4f%% "
                              "(errorBound %.4f%%, design bound 2%%)",
                              100.0 * err, 100.0 * bound);
                o.error = buf;
            }
            return o;
        };
    }
    runBatch(opt, rep, tracer, jobs, kFoldSampledSize);
    if (opt.traced())
        rep.layer("cluster.fold.cycle_err_pct", maxErrPct);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", maxErrPct);
    rep.context("cycle_err_pct", buf);
}

} // namespace isimbench
