/**
 * @file
 * Host processor model.
 *
 * The host executes the scalar side of a StreamC program and transfers
 * stream instructions to the Imagine stream controller over a finite-
 * bandwidth interface (about 500 ns per instruction, i.e. ~2 MIPS, on
 * the development board; 20 MIPS theoretical - section 3.1).
 *
 * Host dependencies - cases where the host must read a kernel result or
 * a produced stream length before deciding what to issue next - are
 * modeled as RegRead instructions that stall the host for a full
 * read-compute-write round trip (section 5.4; the dominant overhead of
 * the RTSL application).
 */

#ifndef IMAGINE_HOST_HOST_PROCESSOR_HH
#define IMAGINE_HOST_HOST_PROCESSOR_HH

#include "host/stream_controller.hh"
#include "isa/stream.hh"
#include "sim/component.hh"
#include "sim/config.hh"

namespace imagine
{

class StatsRegistry;
namespace trace { class TraceSink; }

/** Host-side statistics. */
struct HostStats
{
    uint64_t instrsSent = 0;
    uint64_t scoreboardFullCycles = 0;  ///< host had data, no free slot
    uint64_t dependencyStallCycles = 0; ///< read-compute-write stalls
    uint64_t interfaceBusyCycles = 0;   ///< cycles transferring instrs

    /** Register every counter on @p reg under @p prefix. */
    void registerOn(StatsRegistry &reg, const std::string &prefix);
};

/** The host CPU feeding the stream controller. */
class HostProcessor : public Component
{
  public:
    HostProcessor(const MachineConfig &cfg, StreamController &sc);

    /**
     * Begin executing @p program.
     * @param playback true for the lightweight playback dispatcher
     *        (static control flow); false adds per-instruction host
     *        compute overhead for the full dispatcher
     */
    void loadProgram(const StreamProgram &program, bool playback = true);

    /** All instructions transferred (scoreboard may still drain). */
    bool finished() const
    {
        return program_ && next_ >= program_->instrs.size();
    }

    void tick(Cycle now) override;

    // --- Component ------------------------------------------------------
    const char *componentName() const override { return "host"; }
    void registerStats(StatsRegistry &reg) override;
    void resetStats() override { stats_ = {}; }
    void saveState(ckpt::Serializer &s) const override;
    void loadState(ckpt::Deserializer &d) override;

    /** Next program instruction to dispatch (hang diagnostics). */
    size_t nextInstr() const { return next_; }
    /** End of the current host-dependency round trip, if any. */
    Cycle blockedUntil() const { return blockedUntil_; }

    const HostStats &stats() const { return stats_; }

    /** Attach the session trace sink (null by default: hooks dead). */
    void setTrace(trace::TraceSink *sink);

  private:
    /** Derive cost_ and budgetCap_ from the config and playback_. */
    void setCost();

    const MachineConfig &cfg_;
    StreamController &sc_;
    const StreamProgram *program_ = nullptr;
    size_t next_ = 0;
    double budget_ = 0.0;       ///< accumulated interface capacity
    /** Interface cycles per instruction, and twice that (the budget
     *  cap), set by loadProgram() and loadState(). */
    double cost_ = 0.0;
    double budgetCap_ = 0.0;
    Cycle blockedUntil_ = 0;    ///< host-dependency round trip
    bool playback_ = true;
    trace::TraceSink *trace_ = nullptr;
    uint32_t hostTrack_ = 0;
    HostStats stats_;
};

} // namespace imagine

#endif // IMAGINE_HOST_HOST_PROCESSOR_HH
