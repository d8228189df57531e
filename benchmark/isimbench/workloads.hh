/**
 * @file
 * The four isimbench workloads.  Each runs a cold set-up several times
 * (compile cache cleared), then a fixed number of timed passes or
 * requests, and fills the report with every end-to-end metric and,
 * when traced, every per-layer metric it exercises.  Why each workload
 * exists is in benchmark/README.md.
 */

#ifndef ISIMBENCH_WORKLOADS_HH
#define ISIMBENCH_WORKLOADS_HH

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "report.hh"

namespace imagine
{
class ImagineSystem;
struct MachineConfig;
struct RunResult;
} // namespace imagine

namespace isimbench
{

/**
 * Simulated-machine counts summed over one pass's jobs, reported as the
 * cluster/srf/mem/host/core-idle per-layer metrics.  Shares are
 * weighted by each job's simulated cycles.
 */
class LayerCounts
{
  public:
    void add(const imagine::RunResult &r, const imagine::MachineConfig &cfg);
    void report(Report &rep) const;
    uint64_t cycles() const { return cycles_; }

  private:
    uint64_t cycles_ = 0;
    uint64_t kernelCycles_ = 0, stallCycles_ = 0, issuedOps_ = 0;
    uint64_t estimatedCycles_ = 0, kernelFolds_ = 0;
    double maxErrorBound_ = 0.0;
    uint64_t srfWords_ = 0, srfBusy_ = 0;
    uint64_t memWords_ = 0, dramAccesses_ = 0, rowMisses_ = 0;
    double channelBusyCycles_ = 0.0;    ///< core cycles, per channel
    uint64_t scRetired_ = 0, scoreboardFull_ = 0;
    uint64_t idle_[5] = {};
};

void appsCycle(const Options &opt, Report &rep, Tracer &tracer);
void memGrid(const Options &opt, Report &rep, Tracer &tracer);
void foldSampled(const Options &opt, Report &rep, Tracer &tracer);
void serviceMix(const Options &opt, Report &rep, Tracer &tracer);

/**
 * kernelc.compile_ms / kernelc.lower_ms: what compiling and lowering
 * every distinct (kernel graph, machine config) a workload used costs
 * with a cold cache, timed from outside through kernelc::compile and
 * kernelc::lower, once per kernel.
 */
class KernelTimer
{
  public:
    /** Time the kernels of @p sys not timed before; returns seconds spent. */
    double time(const imagine::ImagineSystem &sys);
    double compileMs() const { return compileMs_; }
    double lowerMs() const { return lowerMs_; }

  private:
    std::set<std::pair<uint64_t, uint64_t>> seen_;
    double compileMs_ = 0.0;
    double lowerMs_ = 0.0;
};

/**
 * The per-layer metrics every traced run reports the same way: the
 * kernelc timings and cache counters, the span split and coverage, and
 * trace.overhead_pct from the traced and untraced pass times.
 */
void reportTraced(Report &rep, const Tracer &tracer, const KernelTimer &timer,
                  const std::vector<double> &tracedWall,
                  const std::vector<double> &untracedWall);

} // namespace isimbench

#endif // ISIMBENCH_WORKLOADS_HH
