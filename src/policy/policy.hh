/**
 * @file
 * Migration-policy interface.
 *
 * A MigrationPolicy decides, for each access to a block in M2,
 * whether to swap it with the block currently occupying the group's
 * M1 location (Sec. 2.3: the possible address mappings define the
 * candidates; the policy merely decides).  The hybrid controller
 * invokes the hooks below; policies keep whatever per-group or
 * global state they need (conceptually stored in ST entries and MC
 * registers).
 *
 * Implementations in this repo: PoM, MemPod (MEA), CAMEO-style,
 * SILC-FM-style, OS coarse-grain, static always/never (src/policy),
 * and the paper's MDM, ProFess and RSM-guided wrapper (src/core).
 * The policy table in sim/system.cc names and builds each of them
 * (sim::policyNames(), sim::findPolicy()).
 */

#ifndef PROFESS_POLICY_POLICY_HH
#define PROFESS_POLICY_POLICY_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "hybrid/st.hh"
#include "hybrid/stc.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
class DecisionTraceSink;
} // namespace telemetry

namespace core
{
class Guidance;
class Mdm;
class Rsm;
} // namespace core

namespace policy
{

/** Everything a policy may inspect about one served access. */
struct AccessInfo
{
    std::uint64_t group = 0;
    unsigned slot = 0;       ///< accessed original slot
    unsigned m1Slot = 0;     ///< slot currently resident in M1
    unsigned region = 0;     ///< RSM region of the group
    bool isWrite = false;
    bool fromM1 = false;     ///< served from M1 (else M2)
    ProgramId accessor = invalidProgram;  ///< c_M2 on M2 accesses
    ProgramId m1Owner = invalidProgram;   ///< c_M1 (invalid = vacant)
    const hybrid::StcMeta *meta = nullptr;
    Tick now = 0;
};

/** Outcome of a migration consultation. */
enum class Decision : std::uint8_t { NoSwap = 0, Swap = 1 };

/**
 * Services the controller offers to policies (e.g., MemPod performs
 * interval-based migrations outside the access path).
 */
class SwapHost
{
  public:
    virtual ~SwapHost() = default;

    /**
     * Request promotion of (group, slot); ignored if the slot is
     * already in M1 or a swap is in flight for the group.
     *
     * @return true if a swap was scheduled.
     */
    virtual bool requestSwap(std::uint64_t group, unsigned slot) = 0;

    /** @return current simulation tick. */
    virtual Tick hostNow() const = 0;
};

/** The policy interface proper. */
class MigrationPolicy
{
  public:
    virtual ~MigrationPolicy() = default;

    /** @return short policy name for reports. */
    virtual const char *name() const = 0;

    /**
     * Weight of a write access in access counters (ProFess and PoM
     * count each write as eight accesses, Sec. 4.1; MemPod as one).
     */
    virtual unsigned writeWeight() const { return 8; }

    /**
     * Swap type (Table 1).  Fast swaps remap blocks directly; slow
     * swaps (SILC-FM's set-associative relaxation) must restore the
     * group's original mapping first, doubling the migration cost.
     */
    virtual bool slowSwap() const { return false; }

    /** Called once by the controller before simulation starts. */
    virtual void setHost(SwapHost *host) { host_ = host; }

    /**
     * Consulted on every access served from M2.
     *
     * @return Decision::Swap to promote the accessed block.
     */
    virtual Decision onM2Access(const AccessInfo &info) = 0;

    /** Notification of an access served from M1. */
    virtual void onM1Access(const AccessInfo &info) { (void)info; }

    /** Notification of every served access (RSM counting). */
    virtual void onServed(const AccessInfo &info) { (void)info; }

    /** ST entry of `group` was inserted into the STC. */
    virtual void
    onStcInsert(std::uint64_t group, hybrid::StcMeta &meta)
    {
        (void)group;
        (void)meta;
    }

    /**
     * ST entry of `group` was evicted from the STC.  Policies that
     * maintain QAC values (MDM) update `entry.qac` here from the
     * final access counts in `meta` (Sec. 3.2.1).
     */
    virtual void
    onStcEvict(std::uint64_t group, const hybrid::StcMeta &meta,
               hybrid::StEntry &entry)
    {
        (void)group;
        (void)meta;
        (void)entry;
    }

    /**
     * A swap completed: `promoted_slot` moved to M1 and
     * `demoted_slot` to M2.
     *
     * @param private_region True when the group lies in some
     *        program's private region (RSM does not count those).
     */
    virtual void
    onSwapComplete(std::uint64_t group, unsigned promoted_slot,
                   unsigned demoted_slot, ProgramId promoted_owner,
                   ProgramId demoted_owner, bool private_region)
    {
        (void)group;
        (void)promoted_slot;
        (void)demoted_slot;
        (void)promoted_owner;
        (void)demoted_owner;
        (void)private_region;
    }

    /** Period of onPeriodic() callbacks in ticks (0 = none). */
    virtual Cycles periodicInterval() const { return 0; }

    /** Periodic callback (MemPod's interval migrations). */
    virtual void onPeriodic() {}

    /**
     * Register the policy's statistics under a dotted prefix.
     * Default: nothing (policies expose stats opt-in).
     */
    virtual void
    registerTelemetry(telemetry::StatRegistry &registry,
                      const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }

    /**
     * Attach (or detach, with nullptr) a decision-trace sink.
     * Policies that trace their decisions forward the pointer to
     * their sub-components; the default ignores it.
     */
    virtual void
    setTraceSink(telemetry::DecisionTraceSink *sink)
    {
        (void)sink;
    }

    /**
     * Audit the policy's internal invariants (panic on violation).
     * Called from System teardown in PROFESS_AUDIT builds and from
     * tests in any build; the default has nothing to check.
     */
    virtual void auditInvariants() const {}

    /**
     * @return the policy's RSM slowdown estimator, or nullptr if it
     *         has none (fairness gauges, scenario pins, reports).
     */
    virtual core::Rsm *rsm() { return nullptr; }

    /** @return the policy's MDM predictor, or nullptr if it has none. */
    virtual core::Mdm *mdm() { return nullptr; }

    /** @return the policy's Table 7 guidance (case counts), or
     *  nullptr if RSM does not guide it. */
    virtual const core::Guidance *guidance() const { return nullptr; }

  protected:
    SwapHost *host_ = nullptr;
};

} // namespace policy

} // namespace profess

#endif // PROFESS_POLICY_POLICY_HH
