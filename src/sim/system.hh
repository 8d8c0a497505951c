/**
 * @file
 * Full-system assembly: cores + OS allocator + hybrid controller +
 * migration policy + memory channels, per Table 8.
 *
 * Default configurations scale the paper's Table 8 by 1/100
 * together with the workload footprints and instruction counts
 * (DESIGN.md Secs. 2 and 4b): quad-core = 2 channels x (1.5 MiB M1
 * + 12 MiB M2); single-core = 1 channel x (1 MiB M1 + 8 MiB M2).
 * The M1:M2 capacity ratio is set by slotsPerGroup (9 -> 1:8).
 */

#ifndef PROFESS_SIM_SYSTEM_HH
#define PROFESS_SIM_SYSTEM_HH

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/event.hh"
#include "cpu/core_model.hh"
#include "hybrid/hybrid_controller.hh"
#include "mem/memory_system.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"
#include "trace/access.hh"

namespace profess
{

struct KeyValue;

namespace sim
{

class RunTelemetry;

/** Everything needed to build a System. */
struct SystemConfig
{
    unsigned numChannels = 2;
    std::uint64_t m1BytesPerChannel = 1536 * KiB;
    std::uint64_t m2BytesPerChannel = 12 * MiB;
    unsigned slotsPerGroup = 9; ///< 1:(slots-1) capacity ratio
    unsigned numRegions = 32;   ///< RSM regions (paper: 128)
    double m2WriteScale = 1.0;  ///< tWR_M2 sensitivity knob
    hybrid::StCache::Params stc{1 * KiB, 8, 8};
    cpu::CoreParams core{};
    bool modelStTraffic = true;
    std::uint64_t msamp = 4096;    ///< RSM Msamp (paper: 128K)
    Cycles statsFoldInterval = 25000; ///< see HybridController
    /** Table 7 hysteresis thresholds (paper: 1/32 and 1/16). */
    double professFactorThreshold = 1.0 + 1.0 / 32.0;
    double professProductThreshold = 1.0 + 1.0 / 16.0;
    unsigned minBenefit = 8;       ///< MDM min_benefit = PoM K
    std::uint64_t allocSeed = 7;
    bool rsmPerRegionStats = false; ///< Table 4 instrumentation

    /**
     * Fatal unless a System can run this config: each module
     * capacity is a nonzero multiple of its banks x row bytes,
     * every knob the components divide by or size a table with is
     * at least 1,
     * slots_per_group is odd and at most hybrid::maxSlots, the STC
     * holds at least one set, and m2_write_scale is finite and not
     * negative.  `where(knob)`, when
     * given, names the input that set the offending knob
     * (file:line) and prefixes the message.  The System constructor
     * and SweepSpec::fromFile (for every sweep point) call it, so a
     * sweep spec dies at parse, not mid-sweep.
     */
    void validate(const std::function<std::string(const char *knob)>
                      &where = {}) const;

    /** Quad-core two-channel configuration (Table 8, scaled). */
    static SystemConfig quadCore();

    /** Single-core one-channel configuration (Sec. 4.1, scaled). */
    static SystemConfig singleCore();
};

/**
 * The knob table: every SystemConfig field with its one string name,
 * in configFingerprint's order.  Calls f(name, field) for each, the
 * field by reference (const when `cfg` is).  key=value overrides
 * (applyKnob), the keys a sweep spec accepts, configJson and
 * configFingerprint all derive from this list.
 */
template <typename Config, typename F>
void
forEachKnob(Config &cfg, F &&f)
{
    f("num_channels", cfg.numChannels);
    f("m1_bytes_per_channel", cfg.m1BytesPerChannel);
    f("m2_bytes_per_channel", cfg.m2BytesPerChannel);
    f("slots_per_group", cfg.slotsPerGroup);
    f("num_regions", cfg.numRegions);
    f("m2_write_scale", cfg.m2WriteScale);
    f("stc_capacity_bytes", cfg.stc.capacityBytes);
    f("stc_ways", cfg.stc.ways);
    f("stc_entry_bytes", cfg.stc.entryBytes);
    f("core_width", cfg.core.width);
    f("rob_size", cfg.core.robSize);
    f("max_outstanding", cfg.core.maxOutstanding);
    f("core_cycles_per_tick", cfg.core.coreCyclesPerTick);
    f("instr", cfg.core.instrQuota);
    f("warmup", cfg.core.warmupInstr);
    f("model_st_traffic", cfg.modelStTraffic);
    f("msamp", cfg.msamp);
    f("stats_fold_interval", cfg.statsFoldInterval);
    f("factor_threshold", cfg.professFactorThreshold);
    f("product_threshold", cfg.professProductThreshold);
    f("min_benefit", cfg.minBenefit);
    f("alloc_seed", cfg.allocSeed);
    f("rsm_per_region_stats", cfg.rsmPerRegionStats);
}

/**
 * Set the knob named kv.key from kv.value, parsed by the field's own
 * type (valueAs).  Fatal, citing kv.where, on an unknown key or a
 * value that does not parse or fit.
 */
void applyKnob(SystemConfig &cfg, const KeyValue &kv);

/**
 * Derive min_benefit (= PoM's K) from the timing parameters, as
 * Sec. 4.1 does: ceil(swap latency / (M2 - M1 64-B read latency)).
 */
unsigned deriveMinBenefit(const mem::TimingParams &m1,
                          const mem::TimingParams &m2,
                          std::uint64_t block_bytes);

/**
 * Builds a run's migration policy from the parts of its System: the
 * configuration, the swap-group layout, the page allocator (the
 * block-ownership oracle MDM consults) and the number of programs.
 */
using PolicyFactoryFn = std::unique_ptr<policy::MigrationPolicy>(
    const SystemConfig &cfg, const hybrid::HybridLayout &layout,
    const os::PageAllocator &alloc, unsigned num_programs);

/** A PolicyFactoryFn that may carry state (custom policies). */
using PolicyFactory = std::function<PolicyFactoryFn>;

/**
 * @return the names of the built-in policies, in the order of the
 *         one policy table (system.cc) that System and sweep specs
 *         read.
 */
std::vector<const char *> policyNames();

/**
 * @return the factory of the built-in policy called `name`.  Fatal,
 *         listing every known name, when there is none; `where`
 *         (file:line), when given, prefixes the message.
 */
PolicyFactoryFn *findPolicy(std::string_view name,
                            const std::string &where = "");

/** A built system running one multiprogrammed workload. */
class System : public cpu::MemPort
{
  public:
    /**
     * @param cfg Configuration.
     * @param policy_name A built-in policy (policyNames()).
     * @param sources One trace source per core (ownership taken).
     * @param core_program Program id of each core; empty means core
     *        i runs program i.  Ids must be dense starting at 0;
     *        threads of one program share its private region,
     *        statistics and ownership (Sec. 3.1.1: all threads of a
     *        program appear to RSM/MDM as one program).
     */
    System(const SystemConfig &cfg, const std::string &policy_name,
           std::vector<std::unique_ptr<trace::TraceSource>> sources,
           std::vector<ProgramId> core_program = {});

    /** As above, running the policy that `make` builds. */
    System(const SystemConfig &cfg, const PolicyFactory &make,
           std::vector<std::unique_ptr<trace::TraceSource>> sources,
           std::vector<ProgramId> core_program = {});

    ~System() override;

    /**
     * Run until every core reaches its instruction quota.
     *
     * @param max_ticks Safety limit (0 = none).
     * @return true if all quotas were reached.
     */
    bool run(Tick max_ticks = 0);

    /** @return number of cores. */
    unsigned numCores() const
    {
        return static_cast<unsigned>(cores_.size());
    }

    /** @return number of distinct programs. */
    unsigned numPrograms() const { return numPrograms_; }

    /** @return program running on a core. */
    ProgramId programOfCore(unsigned core) const
    {
        return coreProgram_[core];
    }

    /** @return per-core model (IPC, counts). */
    const cpu::CoreModel &core(unsigned i) const { return *cores_[i]; }

    /** @return the hybrid controller. */
    const hybrid::HybridController &controller() const
    {
        return *controller_;
    }

    /** @return the hybrid controller (scenario audits). */
    hybrid::HybridController &controller() { return *controller_; }

    /** @return the memory system. */
    const mem::MemorySystem &memory() const { return *memory_; }

    /** @return the memory system. */
    mem::MemorySystem &memory() { return *memory_; }

    /** @return the page allocator. */
    const os::PageAllocator &allocator() const { return *allocator_; }

    /** @return the migration policy. */
    policy::MigrationPolicy &policy() { return *policy_; }

    /** @return simulated seconds elapsed. */
    double seconds() const;

    /** @return seconds elapsed since the measurement window began
     *  (all cores past warm-up; equals seconds() if warm-up is 0
     *  or incomplete). */
    double measuredSeconds() const;

    /** @return tick at which measurement began. */
    Tick measureStartTick() const { return measureStart_; }

    /** @return current tick. */
    Tick now() const { return eq_.now(); }

    /** @return the configuration. */
    const SystemConfig &config() const { return cfg_; }

    /** @return the event queue (tests). */
    EventQueue &eventQueue() { return eq_; }

    /**
     * Audit every component's structural invariants: the hybrid
     * controller (ST, STC, policy) and the event queue.  Panics on
     * violation.  run() calls this at teardown in PROFESS_AUDIT
     * builds; tests may call it in any build.
     */
    void auditInvariants() const;

    /**
     * Attach a telemetry bundle: registers every component's
     * statistics (controller under "hybrid", channels under
     * "mem.chN", cores under "coreN", the allocator under
     * "os.alloc", the policy under "policy.<name>"), forwards the
     * decision/chrome trace sinks and hot-path timers, and starts
     * the epoch sampler when run() begins.  The bundle must outlive
     * the system's run.
     */
    void attachTelemetry(RunTelemetry &telemetry);

    // cpu::MemPort
    void issue(ProgramId program, Addr vaddr, bool is_write,
               InlineCallback done) override;

  private:
    SystemConfig cfg_;
    EventQueue eq_;
    std::unique_ptr<mem::MemorySystem> memory_;
    hybrid::HybridLayout layout_;
    std::unique_ptr<os::PageAllocator> allocator_;
    std::unique_ptr<policy::MigrationPolicy> policy_;
    std::unique_ptr<hybrid::HybridController> controller_;
    std::vector<std::unique_ptr<trace::TraceSource>> sources_;
    std::vector<std::unique_ptr<cpu::CoreModel>> cores_;
    std::vector<ProgramId> coreProgram_;
    unsigned numPrograms_ = 0;
    unsigned coresWarm_ = 0;
    unsigned coresAtQuota_ = 0;
    Tick measureStart_ = 0;
    RunTelemetry *telemetry_ = nullptr;
};

} // namespace sim

} // namespace profess

#endif // PROFESS_SIM_SYSTEM_HH
