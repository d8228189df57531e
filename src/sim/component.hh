/**
 * @file
 * Component: the engine-side interface every hardware module of a
 * session implements (ClusterArray, Srf, MemorySystem,
 * StreamController, HostProcessor).
 *
 * A component is a self-contained piece of one ImagineSystem session:
 * it advances on tick(), publishes every counter it owns on a
 * StatsRegistry under its own name prefix, and can zero those counters
 * between runs.  Nothing a component touches is shared across
 * sessions, which is what makes whole systems re-entrant and lets
 * SimBatch (sim/runner.hh) run many of them concurrently.
 *
 * ImagineSystem's cycle loop still calls each module's concrete tick
 * so the hot path stays devirtualized; the interface exists for the
 * uniform stats/reset/diagnostics surface.
 */

#ifndef IMAGINE_SIM_COMPONENT_HH
#define IMAGINE_SIM_COMPONENT_HH

#include "sim/types.hh"

namespace imagine
{

class StatsRegistry;
namespace ckpt
{
class Serializer;
class Deserializer;
} // namespace ckpt

/** One hardware module of a session. */
class Component
{
  public:
    virtual ~Component() = default;

    /** Stable short name; also the stat-name prefix ("cluster", ...). */
    virtual const char *componentName() const = 0;
    /** Advance one core cycle. */
    virtual void tick(Cycle now) = 0;
    /** Register every counter on @p reg under componentName(). */
    virtual void registerStats(StatsRegistry &reg) = 0;
    /** Zero all counters (does not touch architectural state). */
    virtual void resetStats() = 0;

    // --- checkpoint/restore (DESIGN.md section 11) ---------------------
    /**
     * Serialize all architectural and engine state into the current
     * checkpoint section.  Counters registered on the StatsRegistry are
     * captured centrally by the engine, not here; everything else a
     * resumed run reads must be written, in a fixed field order that
     * loadState() mirrors exactly.
     */
    virtual void saveState(ckpt::Serializer &s) const = 0;
    /**
     * Restore state written by saveState() on an identically-configured
     * component.  The engine has already replayed session setup
     * (program load, kernel registration); loadState() overlays the
     * mid-run state so the next tick() continues bit-identically.
     */
    virtual void loadState(ckpt::Deserializer &d) = 0;

  protected:
    Component() = default;
    Component(const Component &) = default;
    Component &operator=(const Component &) = default;
};

} // namespace imagine

#endif // IMAGINE_SIM_COMPONENT_HH
