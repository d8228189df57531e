/**
 * @file
 * service_mix: an in-process isimd (service::Server, 2 workers, TCP
 * loopback) under a seeded request mix, loaded by this one process
 * through three run connections and one stats connection.
 *
 * Phases, in order:
 *  - cold set-up: compile cache cleared, Server constructed and
 *    started, one warm-up request of each kind (measured several
 *    times, the last server stays up);
 *  - closed loop: kClosedPasses passes of kPassRequests requests, each
 *    connection sending its next request when the previous one returns;
 *  - open loop, kRequestsLo requests at kRateLo, then kRequestsHi at
 *    kRateHi: Poisson arrivals, each request timed from when it was
 *    due, so a stall is charged to the requests queued behind it.
 * A stats request goes out every 100 ms on the fourth connection
 * throughout the closed- and open-loop phases.
 *
 * Every response must be ok, validated and byte-identical to a golden
 * computed locally, untimed, for the same (kind, seed).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>

#include "apps/apps.hh"
#include "core/system.hh"
#include "kernelc/compile_cache.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "workloads.hh"

namespace isimbench
{

using namespace imagine;
using apps::AppResult;

namespace
{

constexpr int kWorkers = 2;
constexpr int kRunConns = 3;
constexpr int kSeedsPerKind = 8;
constexpr int kColdStarts = 9;
/**
 * Fixed work, so every commit measured sends the same requests: about
 * 6 s of closed loop, 7.5 s at kRateLo and 2 s at kRateHi on the commit
 * that introduced the benchmark.
 */
constexpr int kClosedPasses = 40;
constexpr size_t kPassRequests = 50;
constexpr size_t kRequestsLo = 600;
constexpr size_t kRequestsHi = 420;
constexpr size_t kSmokeRequests = 200;
/**
 * Open-loop rates in requests/s, fixed once at about 25% and 65% of
 * the closed-loop capacity measured when the benchmark was introduced
 * (benchmark/README.md), so later commits are offered the same load.
 */
constexpr double kRateLo = 80.0;
constexpr double kRateHi = 210.0;

/** One request kind of the mix. */
struct Kind
{
    const char *name;
    const char *workload;   ///< qrd | rtsl
    const char *config;     ///< "config" member of the request, or ""
    void (*apply)(MachineConfig &);     ///< the same override, locally
};

const Kind kKinds[] = {
    {"qrd", "qrd", "", [](MachineConfig &) {}},
    {"rtsl", "rtsl", "", [](MachineConfig &) {}},
    // Compile-relevant machine shapes: each is a distinct compile-cache key.
    {"qrd.one_adder", "qrd", "{\"numAdders\":1}",
     [](MachineConfig &c) { c.numAdders = 1; }},
    {"qrd.six_adders", "qrd", "{\"numAdders\":6}",
     [](MachineConfig &c) { c.numAdders = 6; }},
    {"qrd.four_muls", "qrd", "{\"numMultipliers\":4}",
     [](MachineConfig &c) { c.numMultipliers = 4; }},
    {"qrd.one_sb_in", "qrd", "{\"sbInPorts\":1}",
     [](MachineConfig &c) { c.sbInPorts = 1; }},
};
constexpr int kKindCount = sizeof(kKinds) / sizeof(kKinds[0]);
const char *const kTenants[2] = {"alpha", "beta"};

/** A locally computed reference run. */
struct Golden
{
    uint64_t seed = 0;
    std::string json;
    RunResult run;
    MachineConfig cfg;
};

struct Request
{
    int kind = 0;
    int seedIdx = 0;
    int tenant = 0;
};

/** Per-request measurements. */
struct Sample
{
    double latencyMs = 0.0;     ///< from due (open loop) or send time
    double lateMs = 0.0;        ///< send time minus due time
    double queueMs = 0.0, runMs = 0.0, wireMs = 0.0;
};

/** The number after "key": in @p s[from, to); false when absent. */
bool
number(const std::string &s, const std::string &key, double &out,
       size_t to = std::string::npos)
{
    size_t pos = s.find("\"" + key + "\":");
    if (pos == std::string::npos || pos >= to)
        return false;
    const char *begin = s.c_str() + pos + key.size() + 3;
    char *end = nullptr;
    out = std::strtod(begin, &end);
    return end != begin;
}

/** The run a request of kind @p k asks for, executed locally. */
Golden
runLocal(const Kind &k, uint64_t seed, Report &rep, KernelTimer *timer)
{
    Golden g;
    g.seed = seed;
    g.cfg = MachineConfig::devBoard();
    k.apply(g.cfg);
    g.cfg.faults.seed = seed;   // as the server does for a seeded request
    ImagineSystem sys(g.cfg);
    AppResult r;
    if (std::string(k.workload) == "qrd") {
        apps::QrdConfig q;
        q.rows = 64;
        q.cols = 16;
        q.seed = seed;
        r = apps::runQrd(sys, q);
    } else {
        apps::RtslConfig q;
        q.screen = 64;
        q.triangles = 384;
        q.batch = 96;
        q.seed = seed;
        r = apps::runRtsl(sys, q);
    }
    rep.outcome(std::string("golden.") + k.name,
                r.validated ? "" : "golden validation failed");
    g.json = r.run.toJson();
    g.run = std::move(r.run);
    if (timer)
        timer->time(sys);
    return g;
}

std::string
payload(const Request &r, const std::vector<std::vector<Golden>> &goldens)
{
    const Kind &k = kKinds[r.kind];
    std::string p = std::string("{\"op\":\"run\",\"workload\":\"") +
                    k.workload + "\",\"tenant\":\"" + kTenants[r.tenant] +
                    "\",\"weight\":" + (r.tenant ? "2" : "1") +
                    ",\"seed\":" +
                    std::to_string(goldens[r.kind][r.seedIdx].seed) +
                    ",\"preset\":\"devBoard\"";
    if (*k.config)
        p += std::string(",\"config\":") + k.config;
    if (std::string(k.workload) == "qrd")
        p += ",\"params\":{\"rows\":64,\"cols\":16}}";
    else
        p += ",\"params\":{\"screen\":64,\"triangles\":384,\"batch\":96}}";
    return p;
}

/** 70% qrd, 20% rtsl, 10% qrd on one of four compile-relevant shapes. */
std::vector<Request>
schedule(uint64_t seed, size_t n)
{
    Rng rng(seed);
    std::vector<Request> out(n);
    for (Request &r : out) {
        double u = rng.uniform();
        r.kind = u < 0.7 ? 0 : u < 0.9 ? 1 : 2 + static_cast<int>(rng.below(4));
        r.seedIdx = static_cast<int>(rng.below(kSeedsPerKind));
        r.tenant = static_cast<int>(rng.below(2));
    }
    return out;
}

/** Check one response against its golden; fills the server timings. */
std::string
checkResponse(const std::string &resp, const Golden &g, Sample &s)
{
    if (resp.rfind("{\"ok\":true", 0) != 0)
        return "not ok: " + resp.substr(0, 160);
    size_t result = resp.find("\"result\":");
    if (result == std::string::npos ||
        resp.find("\"validated\":true") > result)
        return "not validated";
    if (!number(resp, "queueMs", s.queueMs, result) ||
        !number(resp, "runMs", s.runMs, result))
        return "no queueMs/runMs in the envelope";
    if (service::Client::extractResult(resp) != g.json)
        return "result differs from the local golden";
    return "";
}

/** The server, its connections and everything measured through them. */
class Load
{
  public:
    Load(const std::vector<std::vector<Golden>> &goldens, Report &rep,
         Tracer &tracer)
        : goldens_(goldens), rep_(rep), tracer_(tracer)
    {
    }

    /** Construct and start a server, then send one request per kind. */
    void
    coldStart()
    {
        conns_.clear();
        server_.reset();
        service::ServerConfig cfg;
        cfg.workers = kWorkers;
        cfg.benchPath = "";     // the service's own bench file stays unwritten
        server_ = std::make_unique<service::Server>(cfg);
        server_->start();
        addr_ = "127.0.0.1:" + std::to_string(server_->port());
        for (int i = 0; i < kRunConns; ++i)
            conns_.emplace_back(addr_);
        for (int k = 0; k < kKindCount; ++k) {
            Request r{k, 0, 0};
            Sample s;
            std::string resp = conns_[0].call(payload(r, goldens_));
            rep_.outcome(std::string("warmup.") + kKinds[k].name,
                         checkResponse(resp, goldens_[k][0], s));
        }
    }

    /**
     * Send @p reqs over the run connections.  @p due empty: closed
     * loop.  Otherwise request i is due @p due[i] seconds after the
     * start and its latency counts from then.
     */
    std::vector<Sample>
    send(const std::vector<Request> &reqs, const std::vector<double> &due,
         const std::string &phase)
    {
        std::vector<Sample> samples(reqs.size());
        std::atomic<size_t> next{0};
        Clock::time_point start = Clock::now();
        auto worker = [&](int c) {
            service::Client &client = conns_[static_cast<size_t>(c)];
            for (size_t i; (i = next.fetch_add(1)) < reqs.size();) {
                Clock::time_point dueAt = start;
                if (!due.empty()) {
                    dueAt += std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due[i]));
                    std::this_thread::sleep_until(dueAt);
                }
                Clock::time_point sent = Clock::now();
                if (due.empty())
                    dueAt = sent;
                const Request &r = reqs[i];
                std::string error;
                std::string resp;
                try {
                    resp = client.call(payload(r, goldens_));
                } catch (const std::exception &e) {
                    error = std::string("wire: ") + e.what();
                }
                Clock::time_point done = Clock::now();
                Sample &s = samples[i];
                if (error.empty())
                    error = checkResponse(resp, goldens_[r.kind][r.seedIdx], s);
                if (resp.find("\"code\":\"queue-full\"") != std::string::npos)
                    ++rejected_;
                double callMs = 1e3 * secondsBetween(sent, done);
                s.latencyMs = 1e3 * secondsBetween(dueAt, done);
                s.lateMs = 1e3 * secondsBetween(dueAt, sent);
                s.wireMs = std::max(0.0, callMs - s.queueMs - s.runMs);
                rep_.outcome(phase + "." + std::to_string(i) + "." +
                                 kKinds[r.kind].name,
                             error);
                traceRequest(c, dueAt, sent, done, s);
            }
        };
        std::vector<std::thread> threads;
        for (int c = 0; c < kRunConns; ++c)
            threads.emplace_back(worker, c);
        for (std::thread &t : threads)
            t.join();
        return samples;
    }

    /** Poll stats every 100 ms until stopStats(). */
    void
    startStats()
    {
        statsConn_ = std::make_unique<service::Client>(addr_);
        statsStop_ = false;
        statsThread_ = std::thread([this] {
            Clock::time_point tick = Clock::now();
            while (!statsStop_.load()) {
                Clock::time_point t0 = Clock::now();
                std::string resp;
                try {
                    resp = statsConn_->call("{\"op\":\"stats\"}");
                } catch (const std::exception &e) {
                    rep_.outcome("stats", std::string("wire: ") + e.what());
                    return;
                }
                Clock::time_point t1 = Clock::now();
                statsMs_.push_back(1e3 * secondsBetween(t0, t1));
                double depth = 0.0;
                if (resp.rfind("{\"ok\":true", 0) != 0 ||
                    !number(resp, "queueDepth", depth))
                    rep_.outcome("stats", "bad stats response");
                maxDepth_ = std::max(maxDepth_, depth);
                tick += std::chrono::milliseconds(100);
                std::this_thread::sleep_until(tick);
            }
        });
    }

    void
    stopStats()
    {
        statsStop_ = true;
        if (statsThread_.joinable())
            statsThread_.join();
    }

    /** Compile-cache hits and misses the server's stats op reports. */
    std::pair<double, double>
    cacheCounters()
    {
        service::Client c(addr_);
        std::string resp = c.call("{\"op\":\"stats\"}");
        double hits = 0.0, misses = 0.0;
        if (!number(resp, "cacheHits", hits) ||
            !number(resp, "cacheMisses", misses))
            rep_.outcome("stats", "no compile-cache counters in stats");
        return {hits, misses};
    }

    ~Load()
    {
        stopStats();
        statsConn_.reset();
        conns_.clear();
        server_.reset();
    }

    Load(const Load &) = delete;
    Load &operator=(const Load &) = delete;

    const std::vector<double> &statsMs() const { return statsMs_; }
    double maxDepth() const { return maxDepth_; }
    uint64_t rejected() const { return rejected_.load(); }

  private:
    /** job > {late, call > {queue, run}}; call's self time is the wire. */
    void
    traceRequest(int conn, Clock::time_point due, Clock::time_point sent,
                 Clock::time_point done, const Sample &s)
    {
        uint64_t job = tracer_.newId();
        if (!job)
            return;
        int tid = conn + 1;
        if (sent > due)
            tracer_.span("late", job, due, sent, tid);
        uint64_t call = tracer_.newId();
        auto at = [&](double ms) {
            return sent + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(ms));
        };
        tracer_.record(tracer_.newId(), "queue", call, sent,
                       s.queueMs / 1e3, tid);
        tracer_.record(tracer_.newId(), "run", call, at(s.queueMs),
                       s.runMs / 1e3, tid);
        tracer_.record(call, "call", job, sent, secondsBetween(sent, done),
                       tid);
        tracer_.record(job, "job", 0, due, secondsBetween(due, done), tid);
    }

    const std::vector<std::vector<Golden>> &goldens_;
    Report &rep_;
    Tracer &tracer_;
    std::unique_ptr<service::Server> server_;
    std::string addr_;
    std::vector<service::Client> conns_;
    std::atomic<uint64_t> rejected_{0};

    std::unique_ptr<service::Client> statsConn_;
    std::atomic<bool> statsStop_{false};
    std::vector<double> statsMs_;       ///< written by the stats thread only
    double maxDepth_ = 0.0;
    std::thread statsThread_;           ///< last: joined before the rest go
};

/** Poisson arrival times (seconds) of @p n requests at @p rate. */
std::vector<double>
arrivals(uint64_t seed, size_t n, double rate)
{
    Rng rng(seed);
    std::vector<double> due(n);
    double t = 0.0;
    for (double &d : due) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        d = t;
    }
    return due;
}

std::vector<double>
field(const std::vector<Sample> &samples, double Sample::*f)
{
    std::vector<double> out;
    out.reserve(samples.size());
    for (const Sample &s : samples)
        out.push_back(s.*f);
    return out;
}

} // namespace

void
serviceMix(const Options &opt, Report &rep, Tracer &tracer)
{
    // Untimed goldens, kKindCount kinds x kSeedsPerKind seeds; a traced
    // run also times the kernels their sessions compiled.
    KernelTimer timer;
    std::vector<std::vector<Golden>> goldens(kKindCount);
    for (int k = 0; k < kKindCount; ++k) {
        for (int j = 0; j < kSeedsPerKind; ++j) {
            uint64_t seed = derive(opt.seed, 1000 + static_cast<uint64_t>(j)) &
                            0xffffffffu;
            goldens[k].push_back(runLocal(kKinds[k], seed, rep,
                                          opt.traced() ? &timer : nullptr));
            rep.cycles(std::string(kKinds[k].name) + "." + std::to_string(j),
                       goldens[k].back().run.cycles);
        }
    }

    Load load(goldens, rep, tracer);
    std::vector<double> setups;
    for (int k = 0; k < opt.setups(kColdStarts); ++k) {
        kernelc::CompileCache::instance().clear();
        Clock::time_point t0 = Clock::now();
        load.coldStart();
        setups.push_back(secondsBetween(t0, Clock::now()));
    }

    const size_t nLo = opt.smoke ? kSmokeRequests : kRequestsLo;
    const size_t nHi = opt.smoke ? kSmokeRequests : kRequestsHi;
    auto cache0 = load.cacheCounters();
    load.startStats();

    // Closed loop: the same seeded pass every time.
    std::vector<Request> passReqs = schedule(derive(opt.seed, 1), kPassRequests);
    LayerCounts counts;
    for (const Request &r : passReqs)
        counts.add(goldens[r.kind][r.seedIdx].run,
                   goldens[r.kind][r.seedIdx].cfg);
    std::vector<double> passWall, passMcps, tracedWall, untracedWall;
    std::vector<Sample> all;
    const int closedPasses =
        opt.smoke ? static_cast<int>(kSmokeRequests / kPassRequests)
                  : kClosedPasses;
    for (int i = 0; i < closedPasses; ++i) {
        bool traced = opt.traced() && i % 2 == 0;
        tracer.setOn(traced);
        double cpu0 = processCpuSeconds();
        Clock::time_point t0 = Clock::now();
        std::vector<Sample> s = load.send(passReqs, {}, "closed");
        double wall = secondsBetween(t0, Clock::now());
        double cpu = processCpuSeconds() - cpu0;
        passWall.push_back(wall);
        passMcps.push_back(
            cpu > 0.0 ? static_cast<double>(counts.cycles()) / cpu / 1e6 : 0.0);
        (traced ? tracedWall : untracedWall).push_back(wall);
        all.insert(all.end(), s.begin(), s.end());
    }

    // Open loop at the two fixed rates.
    tracer.setOn(opt.traced());
    std::vector<Sample> lo =
        load.send(schedule(derive(opt.seed, 2), nLo),
                  arrivals(derive(opt.seed, 3), nLo, kRateLo), "lo");
    std::vector<Sample> hi =
        load.send(schedule(derive(opt.seed, 4), nHi),
                  arrivals(derive(opt.seed, 5), nHi, kRateHi), "hi");
    tracer.setOn(false);
    load.stopStats();
    auto cache1 = load.cacheCounters();

    std::vector<double> loMs = field(lo, &Sample::latencyMs);
    std::vector<double> hiMs = field(hi, &Sample::latencyMs);
    // Host slowdowns only ever add time: take the fastest cold start and
    // the fastest closed-loop pass.
    rep.endToEnd("setup_s", std::ranges::min(setups), setups.size());
    rep.endToEnd("pass_s", std::ranges::min(passWall), passWall.size());
    rep.endToEnd("job_ms", median(loMs), loMs.size());
    rep.endToEnd("sim_mcps", std::ranges::max(passMcps), passMcps.size());
    char rates[64];
    std::snprintf(rates, sizeof(rates), "lo=%g hi=%g req/s", kRateLo, kRateHi);
    rep.context("open_loop_rates", rates);
    rep.context("passes", std::to_string(passWall.size()) + " of " +
                              std::to_string(kPassRequests) + " requests");
    rep.context("pass_s", join(passWall));
    rep.context("setup_s", join(setups));

    if (!opt.traced())
        return;
    all.insert(all.end(), lo.begin(), lo.end());
    all.insert(all.end(), hi.begin(), hi.end());
    rep.layer("service.req_ms.p50.lo", quantile(loMs, 0.5), loMs.size());
    rep.layer("service.req_ms.p99.lo", quantile(loMs, 0.99), loMs.size());
    rep.layer("service.req_ms.p50.hi", quantile(hiMs, 0.5), hiMs.size());
    rep.layer("service.req_ms.p99.hi", quantile(hiMs, 0.99), hiMs.size());
    for (auto [name, f] : {std::pair{"queue", &Sample::queueMs},
                           std::pair{"run", &Sample::runMs},
                           std::pair{"wire", &Sample::wireMs}}) {
        std::vector<double> v = field(all, f);
        rep.layer(std::string("service.") + name + "_ms.p50",
                  quantile(v, 0.5), v.size());
        rep.layer(std::string("service.") + name + "_ms.p99",
                  quantile(v, 0.99), v.size());
    }
    const std::vector<double> &statsMs = load.statsMs();
    rep.layer("service.stats_ms.p50", quantile(statsMs, 0.5), statsMs.size());
    rep.layer("service.stats_ms.p99", quantile(statsMs, 0.99), statsMs.size());
    std::vector<double> late = field(lo, &Sample::lateMs);
    std::vector<double> lateHi = field(hi, &Sample::lateMs);
    late.insert(late.end(), lateHi.begin(), lateHi.end());
    rep.layer("service.late_ms.p99", quantile(late, 0.99), late.size());
    rep.layer("service.queue_depth.max", load.maxDepth());
    rep.layer("service.rejected", static_cast<double>(load.rejected()));
    double hits = cache1.first - cache0.first;
    double misses = cache1.second - cache0.second;
    rep.layer("service.cache_hit_ratio",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0);

    counts.report(rep);
    reportTraced(rep, tracer, timer, tracedWall, untracedWall);
}

} // namespace isimbench
