#include "report.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#include <sys/resource.h>

namespace isimbench
{

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"pass_s", "s"},
    {"job_ms", "ms"},
    {"sim_mcps", "Mcycles/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"kernelc.compile_ms", "ms"},
    {"kernelc.lower_ms", "ms"},
    {"kernelc.cache_misses", "count"},
    {"kernelc.cache_hits", "count"},
    {"core.session_ms.p50", "ms"},
    {"core.run_cpu_s", "s"},
    {"core.ns_per_cycle", "ns/cycle"},
    {"core.ns_per_cycle.depth", "ns/cycle"},
    {"core.ns_per_cycle.mpeg", "ns/cycle"},
    {"core.ns_per_cycle.qrd", "ns/cycle"},
    {"core.ns_per_cycle.rtsl", "ns/cycle"},
    {"core.ns_per_cycle.grid", "ns/cycle"},
    {"core.to_json_ms.p50", "ms"},
    {"core.idle_share.ucode", "share"},
    {"core.idle_share.mem", "share"},
    {"core.idle_share.sc", "share"},
    {"core.idle_share.host", "share"},
    {"apps.self_ms.depth", "ms"},
    {"apps.self_ms.mpeg", "ms"},
    {"apps.self_ms.qrd", "ms"},
    {"apps.self_ms.rtsl", "ms"},
    {"cluster.busy_share", "share"},
    {"cluster.stall_share", "share"},
    {"cluster.issued_ops", "count"},
    {"cluster.fold.estimated_share", "share"},
    {"cluster.fold.kernel_folds", "count"},
    {"cluster.fold.max_error_bound", "share"},
    {"cluster.fold.cycle_err_pct", "%"},
    {"srf.words", "count"},
    {"srf.busy_share", "share"},
    {"mem.words", "count"},
    {"mem.dram_accesses", "count"},
    {"mem.row_misses", "count"},
    {"mem.channel_busy_share", "share"},
    {"host.sc_instrs_retired", "count"},
    {"host.scoreboard_full_cycles", "count"},
    {"service.req_ms.p50.lo", "ms"},
    {"service.req_ms.p99.lo", "ms"},
    {"service.req_ms.p50.hi", "ms"},
    {"service.req_ms.p99.hi", "ms"},
    {"service.queue_ms.p50", "ms"},
    {"service.queue_ms.p99", "ms"},
    {"service.run_ms.p50", "ms"},
    {"service.run_ms.p99", "ms"},
    {"service.wire_ms.p50", "ms"},
    {"service.wire_ms.p99", "ms"},
    {"service.stats_ms.p50", "ms"},
    {"service.stats_ms.p99", "ms"},
    {"service.late_ms.p99", "ms"},
    {"service.queue_depth.max", "count"},
    {"service.rejected", "count"},
    {"service.cache_hit_ratio", "share"},
    {"split.job", "share"},
    {"split.session", "share"},
    {"split.stage", "share"},
    {"split.build", "share"},
    {"split.app", "share"},
    {"split.cycle_loop", "share"},
    {"split.to_json", "share"},
    {"split.check", "share"},
    {"split.late", "share"},
    {"split.call", "share"},
    {"split.queue", "share"},
    {"split.run", "share"},
    {"trace.coverage_min_pct", "%"},
    {"trace.overhead_pct", "%"},
};

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

uint64_t
Rng::next()
{
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

uint64_t
derive(uint64_t seed, uint64_t salt)
{
    return Rng(seed * 0x100000001b3ull ^ salt).next();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double rank = q * static_cast<double>(v.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

std::string
join(const std::vector<double> &v)
{
    std::string out;
    char buf[32];
    for (double x : v) {
        std::snprintf(buf, sizeof(buf), "%s%.4f", out.empty() ? "" : " ", x);
        out += buf;
    }
    return out;
}

// ---------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------

namespace
{

const MetricDef *
findDef(const std::vector<MetricDef> &defs, const std::string &name)
{
    for (const MetricDef &d : defs)
        if (name == d.name)
            return &d;
    return nullptr;
}

std::string
num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
quote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

void
Report::outcome(const std::string &job, const std::string &error)
{
    std::lock_guard<std::mutex> lk(mu_);
    ++attempted_;
    if (!error.empty()) {
        ++failed_;
        std::fprintf(stderr, "isimbench: FAIL %s: %s\n", job.c_str(),
                     error.c_str());
    }
}

void
Report::endToEnd(const std::string &name, double value, size_t samples)
{
    if (!findDef(kEndToEnd, name)) {
        std::fprintf(stderr, "isimbench: unknown metric %s\n", name.c_str());
        std::abort();
    }
    std::lock_guard<std::mutex> lk(mu_);
    e2e_[name] = {value, samples};
}

void
Report::layer(const std::string &name, double value, size_t samples)
{
    if (!findDef(kPerLayer, name)) {
        std::fprintf(stderr, "isimbench: unknown metric %s\n", name.c_str());
        std::abort();
    }
    std::lock_guard<std::mutex> lk(mu_);
    layer_[name] = {value, samples};
}

void
Report::cycles(const std::string &job, uint64_t cycles)
{
    std::string error;
    {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = cycleIndex_.find(job);
        if (it == cycleIndex_.end()) {
            cycleIndex_[job] = cycles_.size();
            cycles_.emplace_back(job, cycles);
            return;
        }
        uint64_t first = cycles_[it->second].second;
        if (first == cycles)
            return;
        error = "cycles " + std::to_string(cycles) +
                " differ from the first pass's " + std::to_string(first);
    }
    outcome(job, error);
}

void
Report::context(const std::string &key, const std::string &value)
{
    std::lock_guard<std::mutex> lk(mu_);
    context_.emplace_back(key, value);
}

std::string
Report::layerJson() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::string out = "{";
    for (const MetricDef &d : kPerLayer) {
        auto it = layer_.find(d.name);
        if (out.size() > 1)
            out += ",";
        out += quote(d.name) + ":" +
               num(it == layer_.end() ? 0.0 : it->second.value);
    }
    return out + "}";
}

void
Report::print(bool traced) const
{
    std::lock_guard<std::mutex> lk(mu_);
    auto table = [](const char *title, const std::vector<MetricDef> &defs,
                    const std::map<std::string, Value> &vals) {
        std::printf("%s\n", title);
        for (const MetricDef &d : defs) {
            auto it = vals.find(d.name);
            if (it == vals.end()) {
                std::printf("  %-30s %18s %s\n", d.name, "-", d.unit);
                continue;
            }
            std::printf("  %-30s %18.6g %-10s", d.name, it->second.value,
                        d.unit);
            if (it->second.samples)
                std::printf(" (n=%zu)", it->second.samples);
            std::printf("\n");
        }
    };
    for (const auto &[k, v] : context_)
        std::printf("# %s: %s\n", k.c_str(), v.c_str());
    table("end-to-end:", kEndToEnd, e2e_);
    if (traced)
        table("per-layer:", kPerLayer, layer_);

    // FNV-1a over (job name, cycles): a perf-only change keeps it.
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](const std::string &s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    };
    std::string cyc = "{";
    for (const auto &[job, c] : cycles_) {
        mix(job + "=" + std::to_string(c) + ";");
        if (cyc.size() > 1)
            cyc += ",";
        cyc += quote(job) + ":" + std::to_string(c);
    }
    cyc += "}";
    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(h));
    std::printf("cycles_fingerprint: %s over %zu jobs\n", hash,
                cycles_.size());

    std::string ctx = "{";
    for (const auto &[k, v] : context_) {
        if (ctx.size() > 1)
            ctx += ",";
        ctx += quote(k) + ":" + quote(v);
    }
    ctx += "}";
    std::string samples = "{";
    for (const auto *vals : {&e2e_, &layer_}) {
        for (const auto &[k, v] : *vals) {
            if (!v.samples)
                continue;
            if (samples.size() > 1)
                samples += ",";
            samples += quote(k) + ":" + std::to_string(v.samples);
        }
    }
    samples += "}";
    std::printf("{\"report\":{\"context\":%s,\"samples\":%s,"
                "\"cycles_fingerprint\":{\"hash\":\"%s\",\"jobs\":%s}}}\n",
                ctx.c_str(), samples.c_str(), hash, cyc.c_str());

    const std::vector<MetricDef> &defs = traced ? kPerLayer : kEndToEnd;
    const std::map<std::string, Value> &vals = traced ? layer_ : e2e_;
    std::string metrics = "{";
    bool complete = true;
    for (const MetricDef &d : defs) {
        auto it = vals.find(d.name);
        // A per-layer metric a workload does not exercise reads 0; an
        // end-to-end metric must always have been measured.
        if (it == vals.end() && !traced)
            complete = false;
        if (metrics.size() > 1)
            metrics += ",";
        metrics += quote(d.name) + ":{\"value\":" +
                   num(it == vals.end() ? 0.0 : it->second.value) +
                   ",\"unit\":" + quote(d.unit) + "}";
    }
    metrics += "}";
    bool correct = failed_ == 0 && attempted_ > 0 && complete;
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_), metrics.c_str());
    std::fflush(stdout);
}

// ---------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------

uint64_t
Tracer::newId()
{
    if (!on_)
        return 0;
    std::lock_guard<std::mutex> lk(mu_);
    return nextId_++;
}

void
Tracer::record(uint64_t id, const std::string &name, uint64_t parent,
               Clock::time_point start, double seconds, int tid)
{
    if (!on_ || !id)
        return;
    double startUs =
        std::chrono::duration<double, std::micro>(start - origin_).count();
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back({name, id, parent, tid, startUs, seconds * 1e6});
}

void
Tracer::span(const std::string &name, uint64_t parent,
             Clock::time_point start, Clock::time_point end, int tid)
{
    record(newId(), name, parent, start, secondsBetween(start, end), tid);
}

Tracer::Split
Tracer::split() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::map<uint64_t, std::vector<const Span *>> children;
    std::map<uint64_t, const Span *> byId;
    for (const Span &s : spans_) {
        children[s.parent].push_back(&s);
        byId[s.id] = &s;
    }
    // Length of the union of @p kids' intervals clipped to @p s.
    auto covered = [](const Span &s, std::vector<const Span *> kids) {
        std::sort(kids.begin(), kids.end(),
                  [](const Span *a, const Span *b) {
                      return a->startUs < b->startUs;
                  });
        double end = s.startUs, total = 0.0;
        for (const Span *k : kids) {
            double b = std::max(k->startUs, end);
            double e = std::min(k->startUs + k->durUs, s.startUs + s.durUs);
            if (e > b) {
                total += e - b;
                end = e;
            }
        }
        return total;
    };

    Split out;
    out.minCoverage = 1.0;
    double jobTotal = 0.0;
    std::map<std::string, double> self;
    for (const Span &job : spans_) {
        if (job.name != "job" || job.durUs <= 0.0)
            continue;
        ++out.jobs;
        jobTotal += job.durUs;
        out.minCoverage = std::min(
            out.minCoverage, covered(job, children[job.id]) / job.durUs);
        // Walk the job's subtree, charging each span its self time.
        std::vector<const Span *> stack = {&job};
        while (!stack.empty()) {
            const Span *s = stack.back();
            stack.pop_back();
            const std::vector<const Span *> &kids = children[s->id];
            self[s->name] += s->durUs - covered(*s, kids);
            stack.insert(stack.end(), kids.begin(), kids.end());
        }
    }
    if (!out.jobs)
        out.minCoverage = 0.0;
    for (const auto &[name, us] : self)
        out.selfShare[name] = jobTotal > 0.0 ? us / jobTotal : 0.0;
    return out;
}

bool
Tracer::write(const std::string &path, const std::string &otherData) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lk(mu_);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    bool first = true;
    for (const Span &s : spans_) {
        std::fprintf(f,
                     "%s\n{\"name\":%s,\"cat\":\"isimbench\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%llu,\"parent\":%llu}}",
                     first ? "" : ",", quote(s.name).c_str(), s.tid,
                     s.startUs, s.durUs,
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent));
        first = false;
    }
    std::fprintf(f, "\n],\"otherData\":%s}\n", otherData.c_str());
    return std::fclose(f) == 0;
}

} // namespace isimbench
