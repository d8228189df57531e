/**
 * @file
 * isimbench's measurement plumbing: seeded inputs, timers, quantiles,
 * the record every workload fills (metrics, correctness outcomes, the
 * cycles fingerprint) and the in-memory span tracer of the traced run.
 *
 * Only the simulator's public API is used by the workloads; nothing
 * here depends on bench/ or on the service's JSON module, so a change
 * to either cannot change what the benchmark measures.
 */

#ifndef ISIMBENCH_REPORT_HH
#define ISIMBENCH_REPORT_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace isimbench
{

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);
/** CPU seconds of the whole process (every thread). */
double processCpuSeconds();
/** CPU seconds of the calling thread, the clock runWallSeconds() uses. */
double threadCpuSeconds();
/** Peak resident set of the process so far, in MB. */
double peakRssMb();

/** splitmix64: the only source of randomness behind every input. */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}
    uint64_t next();
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double uniform();

  private:
    uint64_t s_;
};

/** A value fixed by the run seed and @p salt. */
uint64_t derive(uint64_t seed, uint64_t salt);

/** Linear-interpolated quantile, @p q in [0, 1]; 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }
/** @p v as space-separated numbers, for the report's context. */
std::string join(const std::vector<double> &v);

/**
 * Command-line settings shared by every workload.  How much work a run
 * does is not among them: each workload fixes its own set-up, pass and
 * request counts, so every commit measured does identical work.
 */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    bool smoke = false;         ///< one pass / 200 requests per phase
    std::string tracePath;      ///< non-empty: traced run, spans go here

    bool traced() const { return !tracePath.empty(); }
    /** Cold set-ups to measure for setup_s: @p full, or one when smoking. */
    int setups(int full) const { return smoke ? 1 : full; }
};

/** A metric the benchmark reports, with its unit. */
struct MetricDef
{
    const char *name;
    const char *unit;
};

/** Every end-to-end metric, in output order (BENCHMARK.json lists the same). */
extern const std::vector<MetricDef> kEndToEnd;
/** Every per-layer metric, in output order (BENCHMARK.json lists the same). */
extern const std::vector<MetricDef> kPerLayer;

/** What one workload run measured and checked. */
class Report
{
  public:
    /** Count one attempted job; @p error non-empty marks it failed. */
    void outcome(const std::string &job, const std::string &error);

    void endToEnd(const std::string &name, double value, size_t samples = 0);
    void layer(const std::string &name, double value, size_t samples = 0);

    /**
     * Record a job's simulated cycle count.  The first pass fixes the
     * fingerprint; a later pass that differs fails the job.
     */
    void cycles(const std::string &job, uint64_t cycles);

    /** Free-form host context, echoed in the report line. */
    void context(const std::string &key, const std::string &value);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }

    /**
     * Print every metric by name and unit, the context, the cycles
     * fingerprint and, last, the one-line JSON result.  @p traced picks
     * the per-layer metrics for the result line instead of the
     * end-to-end ones.
     */
    void print(bool traced) const;

    /** The per-layer table as a JSON object (for the trace file). */
    std::string layerJson() const;

  private:
    struct Value
    {
        double value = 0.0;
        size_t samples = 0;
    };

    mutable std::mutex mu_;     ///< outcome() is called from client threads
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::map<std::string, Value> e2e_, layer_;
    std::vector<std::pair<std::string, uint64_t>> cycles_;
    std::map<std::string, size_t> cycleIndex_;
    std::vector<std::pair<std::string, std::string>> context_;
};

/**
 * Spans recorded around the benchmark's own calls into each layer.
 * Kept in memory and written once, at exit, as Chrome trace_event JSON
 * (loads in Perfetto).  Recording is a no-op while off, which is how
 * the traced run interleaves untraced passes to measure its overhead.
 */
class Tracer
{
  public:
    /** Switch recording; only while no other thread is recording. */
    void setOn(bool on) { on_ = on; }

    /** Id for a span that is recorded after its children; 0 when off. */
    uint64_t newId();
    /** Record a finished span that started at @p start. */
    void record(uint64_t id, const std::string &name, uint64_t parent,
                Clock::time_point start, double seconds, int tid = 1);
    /** newId() + record() for a span without children. */
    void span(const std::string &name, uint64_t parent,
              Clock::time_point start, Clock::time_point end, int tid = 1);

    /** Where the job spans' time went. */
    struct Split
    {
        size_t jobs = 0;
        double minCoverage = 0.0;   ///< least share of a job its children cover
        std::map<std::string, double> selfShare;  ///< span name -> share of job time
    };
    /** Analyse every span named "job" and its descendants. */
    Split split() const;

    /** Write the spans plus @p otherData (a JSON object) to @p path. */
    bool write(const std::string &path, const std::string &otherData) const;

  private:
    struct Span
    {
        std::string name;
        uint64_t id = 0, parent = 0;
        int tid = 1;
        double startUs = 0.0, durUs = 0.0;
    };

    bool on_ = false;
    const Clock::time_point origin_ = Clock::now();
    mutable std::mutex mu_;
    uint64_t nextId_ = 1;
    std::vector<Span> spans_;
};

} // namespace isimbench

#endif // ISIMBENCH_REPORT_HH
