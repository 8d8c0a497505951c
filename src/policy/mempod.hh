/**
 * @file
 * MemPod migration algorithm (Prodromou et al., HPCA 2017; Table 2).
 *
 * MemPod tracks hot far-memory blocks with the Majority Element
 * Algorithm (MEA, Karp et al.): a fixed pool of counters per pod; an
 * access to a tracked block increments its counter, an access to an
 * untracked block either claims a free counter or decrements all
 * counters.  Every interval (50 us, Sec. 4.1) the tracked blocks are
 * migrated (up to 64 per pod per interval) and the counters are
 * cleared.  Writes count as one access and, per the paper's
 * optimistic setup, MemPod's ST-update overhead on swaps is ignored
 * (our controller already charges only the swap itself).
 *
 * Pods map to channels; migrations are restricted to the swap-group
 * candidates of the shared PoM organization (Sec. 2.3: mappings are
 * orthogonal to the migration algorithm).
 */

#ifndef PROFESS_POLICY_MEMPOD_HH
#define PROFESS_POLICY_MEMPOD_HH

#include <cstdint>
#include <vector>

#include "policy/policy.hh"

namespace profess
{

namespace policy
{

/** MEA-driven interval migration. */
class MemPodPolicy : public MigrationPolicy
{
  public:
    struct Params
    {
        unsigned countersPerPod = 128;
        unsigned maxMigrationsPerInterval = 64;
        Cycles intervalTicks = 40000; ///< 50 us at 0.8 GHz
    };

    /**
     * @param num_pods Number of pods (one per channel).
     * @param pod_of Function mapping a group to its pod: here the
     *        group's channel, supplied by the system builder.
     */
    MemPodPolicy(unsigned num_pods, unsigned channels,
                 const Params &p);

    /** Default-parameter convenience constructor. */
    MemPodPolicy(unsigned num_pods, unsigned channels)
        : MemPodPolicy(num_pods, channels, Params{})
    {
    }

    const char *name() const override { return "mempod"; }
    unsigned writeWeight() const override { return 1; }

    Decision onM2Access(const AccessInfo &info) override;
    Cycles periodicInterval() const override
    {
        return params_.intervalTicks;
    }
    void onPeriodic() override;

    /** @return migrations requested so far. */
    std::uint64_t migrationsRequested() const { return requested_; }

  private:
    /** Key identifying a block: group and slot. */
    using BlockKey = std::uint64_t;

    static BlockKey
    keyOf(std::uint64_t group, unsigned slot)
    {
        return group * hybrid::maxSlots + slot;
    }

    /** One MEA counter: a tracked block and its count. */
    struct Counter
    {
        BlockKey key;
        std::uint32_t count;
    };

    /** A pod's counters, in no order: at most countersPerPod, all
     *  reserved at construction. */
    using Pod = std::vector<Counter>;

    Params params_;
    unsigned channels_;
    std::vector<Pod> pods_;
    std::uint64_t requested_ = 0;
};

} // namespace policy

} // namespace profess

#endif // PROFESS_POLICY_MEMPOD_HH
