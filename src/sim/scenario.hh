/**
 * @file
 * Deterministic scenario interventions: pins and audits that probe
 * the paper's mechanisms through the full controller access path.
 *
 * ScenarioSchedule   - a declarative list of tick-scheduled
 *                      interventions: RSM factor pins, MDM decision
 *                      pins, and quiesce-point audit requests.
 *                      Built programmatically or parsed from a
 *                      config file (one `key=value ...` line per
 *                      intervention; see fromFile()).
 * ScenarioConfig     - the scenario half of a run's options
 *                      (sim::RunOptions, filled from
 *                      `--scenario FILE`).  Like telemetry it
 *                      stays entirely outside SystemConfig, so
 *                      loading a scenario never changes a config
 *                      fingerprint or a derived seed; the experiment
 *                      layer mixes the schedule fingerprint into its
 *                      reference-run cache keys instead.
 * ScenarioController - one per System run.  attach() arms every
 *                      intervention as an absolute-tick event on the
 *                      system's queue.  No intervention draws a
 *                      random number, so results are bit-identical
 *                      at any `--jobs N`.  Every applied, deferred
 *                      or abandoned event is counted in a StatSet
 *                      and mirrored 1:1 into the decision trace
 *                      (TraceKind::ScenarioEvent), so counters and
 *                      trace totals always reconcile exactly
 *                      (tests/test_scenario.cc).
 *
 * Off mode: when no scenario is loaded nothing is constructed and
 * no component holds a scenario hook (DESIGN.md Sec. 4f).
 */

#ifndef PROFESS_SIM_SCENARIO_HH
#define PROFESS_SIM_SCENARIO_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace profess
{

class EventQueue;

namespace telemetry
{
class StatRegistry;
class DecisionTraceSink;
} // namespace telemetry

namespace sim
{

class System;

/** What one scheduled intervention does. */
enum class InterventionKind : unsigned
{
    PinRsm = 0,   ///< pin a program's SF_A/SF_B
    UnpinRsm,     ///< release a pinned program
    PinMdm,       ///< force every MDM decision
    UnpinMdm,     ///< release the MDM decision pin
    QuiesceAudit, ///< run cross-component audits once quiescent
    NumKinds
};

/** @return short stable name of an intervention kind. */
const char *interventionKindName(InterventionKind k);

/** One tick-scheduled intervention (fields used depend on kind). */
struct Intervention
{
    Tick at = 0;                    ///< absolute firing tick
    InterventionKind kind = InterventionKind::QuiesceAudit;
    int program = -1;               ///< Pin/UnpinRsm (-1 = all)
    double sfA = 1.0, sfB = 1.0;    ///< PinRsm factors
    bool decisionSwap = true;       ///< PinMdm: force Swap vs NoSwap
};

/** Declarative intervention schedule (builder API + file parser). */
class ScenarioSchedule
{
  public:
    /** Append one fully specified intervention. */
    ScenarioSchedule &add(const Intervention &iv);

    /** Pin a program's slowdown factors (-1 = every program). */
    ScenarioSchedule &pinRsmFactors(Tick at, int program, double sf_a,
                                    double sf_b);

    /** Release pinned factors (-1 = every program). */
    ScenarioSchedule &unpinRsmFactors(Tick at, int program = -1);

    /** Force every MDM decision to Swap (true) or NoSwap. */
    ScenarioSchedule &pinMdmDecision(Tick at, bool swap);

    /** Release the MDM decision pin. */
    ScenarioSchedule &unpinMdmDecision(Tick at);

    /** Request a cross-component audit at the next quiesce point at
     *  or after `at`. */
    ScenarioSchedule &quiesceAudit(Tick at);

    /** @return true when no interventions are scheduled. */
    bool empty() const { return ivs_.empty(); }

    /** @return the interventions, in insertion order. */
    const std::vector<Intervention> &interventions() const
    {
        return ivs_;
    }

    /**
     * Order-sensitive hash of every intervention field; mixed into
     * reference-run cache keys so runs under different schedules can
     * never alias (0 only for the empty schedule).
     */
    std::uint64_t fingerprint() const;

    /**
     * Parse a schedule file: one intervention per line as
     * whitespace-separated `key=value` tokens ('#' starts a
     * comment).  Keys: at, kind (pin_rsm, unpin_rsm, pin_mdm,
     * unpin_mdm, quiesce_audit), program, sf_a, sf_b and decision
     * (swap|noswap).  Values parse by their field's type (valueAs:
     * program=1.0 is not an int).  Fatal, with file:line, on any
     * malformed line, unknown key or kind, or unreadable file.
     */
    static ScenarioSchedule fromFile(const std::string &path);

  private:
    std::vector<Intervention> ivs_;
};

/** Scenario options of a run (see file comment). */
struct ScenarioConfig
{
    std::string file;          ///< schedule path ("" = programmatic)
    ScenarioSchedule schedule; ///< in force when loaded()

    /** @return true when a schedule is in force. */
    bool loaded() const { return active; }

    /** Install a schedule (RunOptions::fromArgs, tests). */
    void
    setSchedule(ScenarioSchedule s)
    {
        schedule = std::move(s);
        file.clear();
        active = true;
    }

    /** @return schedule fingerprint, 0 when nothing is loaded. */
    std::uint64_t
    fingerprint() const
    {
        return active ? schedule.fingerprint() : 0;
    }

    /**
     * A default instance (no schedule) that is never written.  Its
     * only reader is perfbench/perfbench.cc:77, which checks that
     * no scenario is loaded; everything else takes its options as a
     * value.
     */
    static const ScenarioConfig &global();

    bool active = false;
};

/**
 * The intervention engine of one run (see file comment).  Construct
 * with the schedule, attach() to the System before run(), and keep
 * it alive for the whole run.
 */
class ScenarioController
{
  public:
    /** Trace `detail` codes of scenario events (stable). */
    enum class EventCode : unsigned
    {
        RsmPin = 0,
        RsmUnpin,
        MdmPin,
        MdmUnpin,
        PinUnsupported, ///< pin on a policy without that mechanism
        QuiesceAuditRun,
        QuiesceDeferred,
        QuiesceGiveup,
        NumCodes
    };

    /** @param schedule Interventions to arm (copied). */
    explicit ScenarioController(const ScenarioSchedule &schedule);

    /**
     * Wire into a freshly built system: schedule every intervention
     * at its absolute tick.  Call once, before System::run().  The
     * controller must outlive the run.
     */
    void attach(System &sys);

    /** @return one event counter by name ("rsm_pin"); the counters
     *  are never reset (warm-up immune). */
    std::uint64_t
    counter(const std::string &name) const
    {
        return stats_.counter(name);
    }

    /**
     * @return total scenario events across every counter; equals
     *         the sink's kindTotal(TraceKind::ScenarioEvent) exactly
     *         whenever a sink was attached before the run.
     */
    std::uint64_t eventTotal() const;

    /** Mirror every event into `sink` (null = off). */
    void
    setTraceSink(telemetry::DecisionTraceSink *sink)
    {
        trace_ = sink;
    }

    /** Register the event counters under `prefix` ("scenario"). */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix);

    /** @return counter name of an event code. */
    static const char *eventName(EventCode c);

  private:
    void fire(const Intervention &iv);
    void runQuiesceAudit(const Intervention &iv, unsigned deferrals);
    void note(EventCode code, Tick now, double a = 0.0,
              double b = 0.0);

    ScenarioSchedule schedule_;
    System *sys_ = nullptr;
    EventQueue *eq_ = nullptr;

    StatSet stats_;
    telemetry::DecisionTraceSink *trace_ = nullptr;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_SCENARIO_HH
