/**
 * @file
 * Machine configuration for the Imagine stream processor model.
 *
 * Two presets mirror the paper's two measurement vehicles:
 *  - MachineConfig::devBoard(): the prototype on the dual-Imagine
 *    development board, including its measured warts (memory-controller
 *    precharge bug, stream-controller issue pipeline latency, ~2 MIPS
 *    effective host-interface bandwidth).
 *  - MachineConfig::isim(): the authors' cycle-accurate simulator, which
 *    idealizes exactly those warts (Table 6 discussion, section 5.5).
 */

#ifndef IMAGINE_SIM_CONFIG_HH
#define IMAGINE_SIM_CONFIG_HH

#include <string>

#include "sim/types.hh"

namespace imagine
{

/**
 * Simulation fidelity tier.  Cycle runs every cluster cycle; Sampled
 * executes each kernel launch's prologue, epilogue and a stratified
 * sample of steady-state loop iterations cycle-accurately and
 * fast-forwards the rest analytically (II x skipped trips), trading a
 * bounded cycle-count error for a large wall-clock speedup
 * (DESIGN.md section 12).
 */
enum class Fidelity : uint8_t
{
    Cycle,      ///< full cycle-accurate execution (the default)
    Sampled     ///< strided steady-state sampling + analytic fold
};

/** Error protection modeled on a storage array. */
enum class EccMode : uint8_t
{
    None,       ///< flips corrupt data silently
    Parity,     ///< flips are detected; the owning op is retried
    Secded      ///< single-bit flips are corrected in place
};

/**
 * Fault-injection campaign description (see sim/fault.hh).  All rates
 * are per-opportunity probabilities in [0, 1]; with enabled == false
 * the resilience layer is completely inert and the machine's cycle
 * counts are bit-identical to a build without it.
 */
struct FaultPlan
{
    bool enabled = false;
    uint64_t seed = 0x5eed;

    double srfFlipRate = 0.0;       ///< per word written into the SRF
    double dramFlipRate = 0.0;      ///< per word crossing the SDRAM pins
    double ucodeCorruptRate = 0.0;  ///< per completed microcode load
    double stuckSlotRate = 0.0;     ///< per scoreboard-slot completion
    double agStallRate = 0.0;       ///< per AG address-generation cycle
    int agStallBurstCycles = 64;    ///< stall length per AgStall fault

    EccMode srfEcc = EccMode::Secded;
    EccMode memEcc = EccMode::Secded;
    /** Re-issues of a fault-flagged op before giving up to SimError. */
    int maxRetries = 2;
};

/** All architecture and board parameters, defaulted to the prototype. */
struct MachineConfig
{
    // ------------------------------------------------------------------
    // Clocks
    // ------------------------------------------------------------------
    /** Core clock in Hz (prototype runs at 200 MHz). */
    double coreClockHz = 200e6;
    /** Core cycles per SDRAM cycle (100 MHz SDRAM -> 2). */
    int memClockDivider = 2;

    // ------------------------------------------------------------------
    // Arithmetic clusters
    // ------------------------------------------------------------------
    int numAdders = 3;          ///< fp/int adders per cluster
    int numMultipliers = 2;     ///< fp/int multipliers per cluster
    int sbInPorts = 2;          ///< simultaneous input-stream reads/cycle
    int sbOutPorts = 2;         ///< simultaneous output-stream writes/cycle
    int scratchpadWords = 256;  ///< per-cluster scratchpad capacity
    /** LRF capacity per cluster in words (9.7 KB total / 8 / 4B). */
    int lrfWordsPerCluster = 304;

    // Functional-unit latencies, in core cycles.
    int latFpAdd = 4;       ///< fp add/sub/compare/min/max
    int latFpMul = 4;       ///< fp multiply
    int latDsq = 17;        ///< fp divide / square root result latency
    int dsqOccupancy = 16;  ///< DSQ is not pipelined; busy cycles per op
    int latIntAdd = 2;      ///< integer add/sub/logic/select/shift
    int latIntMul = 4;      ///< integer multiply
    int latSubword = 2;     ///< packed 8/16-bit media ops
    int latSpRead = 2;      ///< scratchpad indexed read
    int latSpWrite = 1;     ///< scratchpad indexed write
    int latComm = 2;        ///< inter-cluster communication hop
    int latSbRead = 2;      ///< stream-buffer (SRF) read into cluster
    int latSbWrite = 1;     ///< stream-buffer write from cluster
    int latMov = 1;         ///< register move / immediate materialize

    /** Fixed micro-controller cost to start a kernel (decode, SB bind). */
    int kernelStartupCycles = 12;
    /** Fixed micro-controller cost to retire a kernel. */
    int kernelShutdownCycles = 8;

    // ------------------------------------------------------------------
    // Stream register file
    // ------------------------------------------------------------------
    int srfSizeWords = 32 * 1024;       ///< 128 KB
    int srfBandwidthWordsPerCycle = 16; ///< 12.8 GB/s @ 200 MHz
    int streamBufferWords = 16;         ///< per-client FIFO depth

    // ------------------------------------------------------------------
    // Memory system
    // ------------------------------------------------------------------
    int numAddressGenerators = 2;
    int numChannels = 4;        ///< 32-bit SDRAM channels
    int banksPerChannel = 4;
    int rowWords = 512;         ///< words per DRAM row (per channel/bank)
    int tRcd = 3;               ///< activate-to-CAS, mem cycles
    int tCas = 2;               ///< CAS-to-data, mem cycles
    int tRp = 3;                ///< precharge, mem cycles
    int mcPipelineCycles = 12;  ///< controller front-end latency, core cyc
    int mcCacheWords = 64;      ///< on-chip controller cache capacity
    /**
     * The prototype's memory controller inserts unnecessary precharges
     * between some same-row accesses, costing ~20% of unit-stride
     * bandwidth (section 3.3).  ISIM does not model the bug.
     */
    bool quirkPrechargeBug = true;

    // ------------------------------------------------------------------
    // Microcode store
    // ------------------------------------------------------------------
    int ucodeStoreInstrs = 2048;    ///< capacity in VLIW instructions
    int ucodeWordsPerInstr = 18;    ///< transfer size per instruction

    // ------------------------------------------------------------------
    // Host interface and stream controller
    // ------------------------------------------------------------------
    /** Effective host stream-instruction bandwidth, MIPS. */
    double hostMips = 2.03;
    int scoreboardSlots = 32;
    /** Stream-controller issue overhead per stream instruction, cycles. */
    int scIssueOverhead = 12;
    /**
     * Extra issue pipeline latency per kernel / memory stream
     * instruction present in hardware but not modeled by ISIM
     * (section 5.5).
     */
    int quirkIssueLatency = 16;
    /** Host read-compute-write round trip for host dependencies. */
    int hostRoundTripCycles = 900;
    /**
     * Extra host compute cycles per stream instruction when the full
     * dispatcher runs application C++ between instructions instead of
     * the lightweight playback dispatcher (section 2.3).
     */
    int nonPlaybackHostOverheadCycles = 60;
    int numSdrs = 32;   ///< stream descriptor registers
    int numMars = 8;    ///< memory address registers
    int numUcrs = 32;   ///< micro-controller (kernel parameter) registers

    // ------------------------------------------------------------------
    // Resilience
    // ------------------------------------------------------------------
    /** Fault-injection campaign; inert unless faults.enabled. */
    FaultPlan faults;
    /**
     * Forward-progress watchdog: cycles without any retirement, issue,
     * or memory progress before run() throws a Hang SimError with a
     * structured HangReport.  Kept below the cluster array's internal
     * 2M-cycle wedge detector so the structured report fires first.
     */
    uint64_t watchdogStagnationCycles = 1'500'000;

    // ------------------------------------------------------------------
    // Simulator engine (no architectural effect)
    // ------------------------------------------------------------------
    /**
     * Cap on per-kernel cluster bind-cache entries (lowered-trace
     * handles, restart accumulator carry-over, run history).  Least
     * recently launched kernels are evicted past the cap; a Restart of
     * an evicted kernel fails the prior-run assertion loudly instead
     * of silently resetting its accumulators.  Engine-only: no
     * architectural effect below the cap, and far above any real
     * program's kernel count by default.
     */
    int clusterBindCacheKernels = 128;
    /**
     * Structured event tracing (DESIGN.md section 10): attach a
     * trace::TraceSink recording per-FU busy spans, kernel phases,
     * SRF grant bursts, memory-channel/AG activity, scoreboard-slot
     * lifetimes and host issues, exportable as Perfetto trace_event
     * JSON and distilled into RunResult::trace analytics.  Off (the
     * default) every hook is a dead branch on a latched pointer and
     * cycle counts / stats / toJson() are bit-identical
     * (tests/trace_test.cc).
     */
    bool trace = false;
    /**
     * Per-component cap on buffered trace events; past it events are
     * counted in the trace.dropped stat instead of growing without
     * bound, so long traced runs degrade gracefully.
     */
    uint64_t traceMaxEvents = 1'000'000;
    /**
     * Fidelity tier (DESIGN.md section 12).  Sampled keeps stream data
     * movement, issued-op mix and SRF occupancy exact while folding
     * most steady-state loop iterations analytically; cycle counts and
     * stall attribution become estimates with a per-kernel error bound
     * reported in RunResult.  Launches with armed fault sites, an
     * active checkpoint window, data-dependent loop output (conditional
     * streams) or short loops fall back to full fidelity automatically.
     * Cycle (the default) is bit-identical to builds without this tier.
     */
    Fidelity fidelity = Fidelity::Cycle;
    /**
     * Sampled tier only: the target fraction of each launch's
     * steady-state loop iterations to execute cycle-accurately
     * (clamped to a small per-launch minimum spread over head, middle
     * and tail strata).  The rest are folded analytically.
     */
    double sampleLoopFraction = 0.05;
    /**
     * Periodic checkpointing (DESIGN.md section 11): every this many
     * cycles of a run, serialize full machine state to checkpointPath.
     * 0 (the default) disables it.  Checkpoints land on exact cycle
     * multiples of the run (periodic checkpointing forces the
     * per-cycle Cycle tier).
     */
    uint64_t checkpointEveryCycles = 0;
    /**
     * Where periodic checkpoints are written (each overwrites the
     * last, so the file always holds the latest interval).  On an
     * abnormal run exit - watchdog hang, exhausted fault budget - the
     * engine additionally writes "<checkpointPath>.crash": the
     * at-failure state plus the HangReport and error message, for
     * post-mortem inspection (diagnostic only; not resumable, since it
     * is taken mid-iteration).  Empty disables all checkpoint output.
     */
    std::string checkpointPath;
    /**
     * Restore a checkpoint at the start of the next run(): session
     * setup (kernels, program load, data staging) replays normally,
     * then the saved mid-run state is overlaid and the run continues
     * bit-identically to the run that wrote the file.  Consumed by the
     * matching run (one-shot); the config/program fingerprints in the
     * file must match or run() throws SimError(Fatal).
     */
    std::string restorePath;

    // ------------------------------------------------------------------
    // Derived quantities
    // ------------------------------------------------------------------
    /** Core cycles consumed by the host interface per stream instr. */
    double hostCyclesPerInstr() const
    {
        return coreClockHz / (hostMips * 1e6);
    }

    /** Peak single-precision FLOP rate (adders + multipliers). */
    double peakFlops() const
    {
        return (numAdders + numMultipliers) * numClusters * coreClockHz;
    }

    /** Peak packed-integer op rate (4x8-bit adds, 2x16-bit mults). */
    double peakOps() const
    {
        return (4.0 * numAdders + 2.0 * numMultipliers) * numClusters *
               coreClockHz;
    }

    /** Peak SRF bandwidth in bytes/s. */
    double peakSrfBytes() const
    {
        return srfBandwidthWordsPerCycle * 4.0 * coreClockHz;
    }

    /** Peak DRAM bandwidth in bytes/s. */
    double peakMemBytes() const
    {
        return numChannels * 4.0 * coreClockHz / memClockDivider;
    }

    /** Peak LRF bandwidth in words per cycle (section 2, figure 2). */
    double peakLrfWordsPerCycle() const { return 272.0; }

    // ------------------------------------------------------------------
    // Presets
    // ------------------------------------------------------------------
    /** The prototype measured in the lab, warts and all. */
    static MachineConfig
    devBoard()
    {
        return MachineConfig{};
    }

    /** The authors' idealized cycle-accurate simulator (Table 6). */
    static MachineConfig
    isim()
    {
        MachineConfig cfg;
        cfg.quirkPrechargeBug = false;
        cfg.quirkIssueLatency = 0;
        cfg.hostRoundTripCycles = 780;  // optimistic host model
        return cfg;
    }
};

} // namespace imagine

#endif // IMAGINE_SIM_CONFIG_HH
