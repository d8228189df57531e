/**
 * @file
 * The eight-cluster SIMD arithmetic array and its micro-controller.
 *
 * The array executes one compiled kernel at a time.  Execution is both
 * *functional* (every op computes real data; stream outputs hold the
 * kernel's actual results) and *cycle-timed* (ops issue at the cycles
 * the VLIW schedule assigned; the whole array stalls in SIMD lockstep
 * whenever a stream buffer cannot supply or absorb data).
 *
 * Software pipelining support: each dataflow node keeps a small
 * circular buffer of per-lane results indexed by loop iteration, so
 * several overlapped iterations can be in flight without register
 * renaming.  The modulo schedule guarantees a consumer never issues
 * before its producer's completion, which makes write-at-issue
 * functionally safe.
 */

#ifndef IMAGINE_CLUSTER_CLUSTER_HH
#define IMAGINE_CLUSTER_CLUSTER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "kernelc/predecode.hh"
#include "kernelc/schedule.hh"
#include "sim/component.hh"
#include "sim/config.hh"
#include "srf/srf.hh"

namespace imagine
{

class StatsRegistry;
namespace trace { class TraceSink; }

/** Cumulative cluster-array statistics. */
struct ClusterStats
{
    uint64_t startupCycles = 0;     ///< kernel decode / SB bind
    uint64_t prologueCycles = 0;
    uint64_t loopCycles = 0;        ///< non-stalled main-loop cycles
    uint64_t epilogueCycles = 0;
    uint64_t shutdownCycles = 0;
    uint64_t stallCycles = 0;       ///< SIMD-lockstep stream stalls
    /** Subset of loopCycles spent priming/draining the software pipe. */
    uint64_t primingCycles = 0;

    uint64_t issuedOps = 0;         ///< ops issued (x8 lanes)
    uint64_t arithOps = 0;          ///< weighted arithmetic ops (x8)
    uint64_t fpOps = 0;
    uint64_t lrfReads = 0;
    uint64_t lrfWrites = 0;
    uint64_t spAccesses = 0;
    uint64_t commWords = 0;
    uint64_t sbReads = 0;           ///< words read from stream buffers
    uint64_t sbWrites = 0;

    uint64_t kernelsRun = 0;
    uint64_t kernelStreamWords = 0; ///< sum of per-run max stream length

    /** High-water mark of per-kernel bind-cache entries (monotone). */
    uint64_t bindCachePeakKernels = 0;
    /** Bind-cache entries evicted past the LRU cap. */
    uint64_t bindCacheEvictions = 0;

    /** Per-launch kernel run lengths, power-of-two bucketed. */
    static constexpr size_t numKernelCycleBuckets = 16;
    uint64_t kernelCycleHist[numKernelCycleBuckets] = {};

    uint64_t busyTotal() const
    {
        return startupCycles + prologueCycles + loopCycles +
               epilogueCycles + shutdownCycles + stallCycles;
    }

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/**
 * Per-kernel sampled-fidelity fold accounting (DESIGN.md section 12).
 * One record per kernel that folded at least one loop region during a
 * run; drained into RunResult at run end.
 */
struct KernelFoldRecord
{
    std::string name;
    uint64_t launches = 0;      ///< launches that folded >= 1 region
    uint64_t foldedIters = 0;   ///< loop iterations folded analytically
    uint64_t foldedCycles = 0;  ///< wall cycles folded (issue + stalls)
    /** Worst per-launch relative cycle-error bound across launches. */
    double errorBound = 0.0;
};

/** The SIMD cluster array. */
class ClusterArray : public Component
{
  public:
    /** Stream binding passed at kernel launch. */
    struct Binding
    {
        int client = -1;        ///< SRF client handle
        uint32_t length = 0;    ///< stream length in words
    };

    ClusterArray(const MachineConfig &cfg, Srf &srf);

    /**
     * Launch a kernel.
     *
     * @param k compiled kernel (must outlive the run)
     * @param ins input bindings, one per kernel input stream
     * @param outs output bindings, one per kernel output stream
     * @param explicitTrip trip count for kernels with no input stream
     * @param restart continue a previous run of the same kernel:
     *        accumulators carry over, and if this kernel also ran most
     *        recently the prologue is skipped (loop invariants are
     *        still live in the cluster registers)
     */
    void start(const kernelc::CompiledKernel *k,
               std::vector<Binding> ins, std::vector<Binding> outs,
               uint32_t explicitTrip = 0, bool restart = false);

    bool busy() const { return phase_ != Phase::Idle; }
    /** Kernel retired and all output data drained into the SRF. */
    bool done() const;
    /** Return to idle (caller closes the SRF clients). */
    void retire();

    void tick();

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "cluster"; }
    void tick(Cycle) override { tick(); }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    void saveState(ckpt::Serializer &s) const override;
    void loadState(ckpt::Deserializer &d) override;

    // --- micro-controller scalar registers ----------------------------
    Word ucr(int i) const { return ucrs_.at(static_cast<size_t>(i)); }
    void setUcr(int i, Word w) { ucrs_.at(static_cast<size_t>(i)) = w; }

    const ClusterStats &stats() const { return stats_; }
    /** Cycles the current (or last) kernel has been running. */
    uint64_t currentKernelCycles() const { return kernelCycles_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);

    /**
     * Re-lease trace bookkeeping after a checkpoint restore: the trace
     * sink survives the restore but per-launch tracking (kernel span,
     * FU busy baselines, open phase span) is not serialized.  Re-derives
     * the FU busy estimate from the restored schedule and opens spans
     * for the restored phase at the sink's current time.
     */
    void rearmTrace();

    // --- sampled fidelity (DESIGN.md section 12) ----------------------
    /**
     * Arm/disarm steady-state loop sampling for subsequent launches.
     * When armed, bindDerived() plans fold regions for long loops; the
     * driver must poll foldArmed() each cycle and call executeFold().
     */
    void setSampling(bool on, double fraction);
    /** True when the loop clock sits on a planned fold-region arm. */
    bool foldArmed() const
    {
        return phase_ == Phase::Loop && foldNext_ < foldPlan_.size() &&
               t_ == foldPlan_[foldNext_].arm;
    }
    /**
     * Fold the armed region: replay only its stream traffic through the
     * SRF bulk paths, advance the loop clock by the region's issue span
     * and estimate its stall cycles from the cycle-accurate stratum just
     * executed.  Returns the wall-cycle span (issue + estimated stall)
     * the caller must advance the rest of the machine across.
     */
    uint64_t executeFold();
    /** Move the per-kernel fold records out (cleared afterwards). */
    std::vector<KernelFoldRecord> drainFoldReport();

  private:
    enum class Phase : uint8_t
    {
        Idle, Startup, Prologue, Loop, LoopDrain, Epilogue, Shutdown,
        Done
    };

    /**
     * Re-derive every launch table that is a pure function of the bound
     * kernel, trip count, config and bind-cache entry: the lowered
     * micro-op trace, loop extents, steady-state window and fold plan.
     * Called by start() at launch and by
     * loadState() after a restore (the lowered trace is re-fetched from
     * the process-wide CompileCache rather than serialized, so a
     * restored run rebinds deterministically).
     */
    void bindDerived();

    /**
     * Fetch the value of node @p id for consumer iteration @p iter by
     * walking the graph: the escape for operands the lowering does not
     * pre-resolve (Generic, and AccNext at iteration 0).
     */
    Word value(uint32_t id, uint32_t iter, int lane) const;
    uint32_t streamElem(uint32_t iter, int lane, uint16_t rec,
                        uint16_t elemIdx) const;
    void accountMix(const kernelc::OpMix &mix, uint64_t times);
    void finishLoopBookkeeping();

    // --- pre-decoded micro-op engine (DESIGN.md section 9) ------------
    /**
     * Resolve one micro-op operand to an 8-lane row: either a pointer
     * straight into values_ or @p scratch filled by splat/fallback.
     */
    const Word *resolveSrc(const kernelc::MicroSrc &s, uint32_t iter,
                           uint32_t rowSlot, Word *scratch) const;
    /** Execute one micro-op for all lanes. */
    void execMicro(const kernelc::MicroOp &m, uint32_t iter,
                   uint32_t rowSlot);
    /** Stream-readiness check for loop bucket @p b at iteration base. */
    bool microLoopCanIssue(size_t b, uint64_t iterBase,
                           bool filter) const;
    /** Stream-readiness check for a block-region micro-op group. */
    bool microBlockCanIssue(const kernelc::LoweredRegion &L,
                            size_t begin, size_t end) const;
    /** Execute every live micro-op at loop position @p p. */
    void execLoopPositionMicro(uint64_t p);

    const MachineConfig &cfg_;
    Srf &srf_;
    std::vector<Word> ucrs_;

    // Active-kernel state ------------------------------------------------
    const kernelc::CompiledKernel *kernel_ = nullptr;
    std::vector<Binding> ins_, outs_;
    uint32_t trip_ = 0;
    Phase phase_ = Phase::Idle;
    uint64_t t_ = 0;            ///< cycle within the current phase
    uint64_t kernelCycles_ = 0; ///< cycles since start()
    bool restart_ = false;

    std::vector<Word> values_;  ///< [node][iter % depth][lane]
    std::vector<std::array<Word, numClusters>> scratchpad_;
    /**
     * Per-kernel bind-time state: run history (Restart guard), saved
     * accumulator finals for restart carry-over, the shared lowered
     * micro-op trace, and an LRU stamp.  Entries past
     * cfg.clusterBindCacheKernels are evicted least-recently-launched
     * first (the previous design grew without bound across a session's
     * kernel population).
     */
    struct KernelBind
    {
        bool hasRun = false;
        uint64_t lastUse = 0;
        std::unordered_map<uint32_t, std::array<Word, numClusters>>
            accSaved;
        std::shared_ptr<const kernelc::LoweredKernel> lowered;
    };
    std::unordered_map<const kernelc::CompiledKernel *, KernelBind>
        binds_;
    uint64_t bindClock_ = 0;
    KernelBind *curBind_ = nullptr;
    const kernelc::CompiledKernel *lastKernel_ = nullptr;
    bool skipPrologue_ = false;
    /**
     * False for a zero-trip run of a real loop: the prologue/epilogue
     * schedules reference iterations that never execute, so both phases
     * are skipped.  Loop-less kernels keep their prologue: it IS the
     * computation.
     */
    bool blocksLive_ = true;
    uint64_t loopWindow_ = 0;   ///< total issue window of the main loop
    uint64_t loopTotal_ = 0;    ///< main-loop cycle count for this launch
    /**
     * Steady-state window [steadyLo_, steadyHi_): loop cycles where
     * every bucket op is live (past its first issue, before its last
     * iteration retires), so stream checks need no stage filter.
     */
    uint64_t steadyLo_ = 0;
    uint64_t steadyHi_ = 0;
    uint64_t stallWatchdog_ = 0;
    /** Lowered trace of the current kernel (owned by curBind_). */
    const kernelc::LoweredKernel *low_ = nullptr;
    /** Row slot epilogue consumers read: (trip-1) & mask (0 if trip 0). */
    uint32_t epiRowSlot_ = 0;
    /** Issue cursors into low_->prologue / low_->epilogue. */
    size_t proCursor_ = 0, epiCursor_ = 0;

    // --- sampled fidelity (DESIGN.md section 12) ----------------------
    /** One analytically folded region of the current launch's loop. */
    struct FoldRegion
    {
        uint64_t arm = 0;       ///< loop position where the fold starts
        uint64_t span = 0;      ///< issue positions folded (iters * ii)
        uint64_t iters = 0;     ///< iterations folded
        /**
         * Loop position where the stall-rate measurement window for
         * this fold begins.  Only the trailing part of the preceding
         * cycle-accurate stratum is measured, so the loop-entry (or
         * post-fold) buffer transient has died out by the time the
         * rate is sampled.
         */
        uint64_t measureFrom = 0;
    };
    /**
     * One loop-region stream op (In or OutLoop micro-op of low_->loop)
     * in bucket (per-position issue) order.  Fold replay walks these per
     * folded position block so the SRF sees exactly the consume/produce
     * sequence of real execution.
     */
    struct LoopStreamOp
    {
        const kernelc::MicroOp *m = nullptr;
        uint32_t stage = 0;     ///< schedule time / ii
    };
    /** Plan fold regions for the current launch (end of bindDerived). */
    void planSampling();
    bool allowSampling_ = false;
    double sampleFraction_ = 0.05;
    std::vector<FoldRegion> foldPlan_;  ///< empty: full fidelity
    size_t foldNext_ = 0;               ///< next unexecuted fold region
    std::vector<LoopStreamOp> foldStreamOps_;
    /** Measurement marks: loop position / stallCycles at the start of
     *  the cycle-accurate stratum feeding the next fold's stall rate. */
    uint64_t foldPosMark_ = 0;
    uint64_t foldStallMark_ = 0;
    // Per-launch fold accumulators, finalized in finishLoopBookkeeping.
    uint64_t launchFoldedIters_ = 0;
    uint64_t launchFoldedCycles_ = 0;
    double launchRateMin_ = 0.0;
    double launchRateMax_ = 0.0;
    std::vector<KernelFoldRecord> foldReport_;
    std::unordered_map<const kernelc::CompiledKernel *, size_t>
        foldReportIdx_;

    // --- tracing (DESIGN.md section 10; all dead when trace_ null) ----
    /** Close the open phase span and (unless null) open @p name. */
    void tracePhase(const char *name);
    /** Compute per-FU busy cycles for the launch from the schedule. */
    void traceKernelStart();
    /** Emit kernel span, per-FU busy spans, and the drain close. */
    void traceKernelRetire();
    trace::TraceSink *trace_ = nullptr;
    uint32_t tPhase_ = 0;       ///< phase segments (startup..drain)
    uint32_t tKernel_ = 0;      ///< one span per launch, op deltas
    uint32_t tIssue_ = 0;       ///< coalesced issue buckets
    uint32_t tStall_ = 0;       ///< coalesced lockstep stalls
    std::vector<uint32_t> fuTracks_;    ///< one per FU instance
    uint32_t fuOff_[8] = {};    ///< FuClass -> first fuTracks_ index
    std::vector<uint64_t> traceFuBusy_; ///< busy cycles this launch
    Cycle traceKernelStart_ = 0;
    uint64_t traceArith0_ = 0, traceFp0_ = 0;

    ClusterStats stats_;
};

} // namespace imagine

#endif // IMAGINE_CLUSTER_CLUSTER_HH
