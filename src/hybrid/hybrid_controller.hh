/**
 * @file
 * The hardware memory controller managing the flat migrating hybrid
 * memory (Fig. 1), transparently to the OS (Sec. 2.2).
 *
 * For every demand access it:
 *   1. translates the original address through the STC (a miss fills
 *      the ST entry from M1 and may write back a dirty victim);
 *   2. serves the 64-B request from the block's actual location;
 *   3. bumps the block's STC access counter and notifies the
 *      migration policy, which may decide to swap the accessed M2
 *      block with the group's M1-resident block;
 *   4. executes decided swaps through the channel (which is blocked
 *      for the swap duration; accesses to a group mid-swap wait).
 *
 * The controller is policy-agnostic: PoM, MemPod, MDM, ProFess, etc.
 * plug in through policy::MigrationPolicy.
 *
 * Hot-path organization: the per-access path performs zero heap
 * allocations in the steady state.  PendingAccess nodes and channel
 * requests are recycled through ObjectPools; accesses waiting on a
 * fill or swap sit on intrusive per-group FIFO lists inside a flat
 * GroupInfo table, which also caches every layout_-derived value
 * (region, channel, private bit, device base addresses) so the
 * address math is shifts, masks and one multiply-shift division.
 */

#ifndef PROFESS_HYBRID_HYBRID_CONTROLLER_HH
#define PROFESS_HYBRID_HYBRID_CONTROLLER_HH

#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fastdiv.hh"
#include "common/inline_function.hh"
#include "common/pool.hh"
#include "common/stats.hh"
#include "hybrid/layout.hh"
#include "hybrid/st.hh"
#include "hybrid/stc.hh"
#include "mem/memory_system.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
class ChromeTraceSink;
class LatencyAttribution;
struct TimerSlot;
} // namespace telemetry

namespace hybrid
{

/** Memory controller for the hybrid memory. */
class HybridController : public policy::SwapHost
{
  public:
    struct Params
    {
        StCache::Params stc{};
        bool modelStTraffic = true; ///< STC misses touch M1
        unsigned numPrograms = 4;   ///< private regions 0..n-1
        /**
         * Fold the access counters of long-resident STC entries
         * into the policy statistics every this many ticks
         * (0 = off).  Implements the paper's Sec. 5.2 observation
         * that a lack of evictions starves MDM of updates ("forcing
         * MDM counters' updates every 10M processor cycles ...
         * would increase the IPC"); 10M core cycles scale to 25K
         * MC ticks at the repo's 1/100 run scale.
         */
        Cycles statsFoldInterval = 25000;
    };

    /** Per-program service counters. */
    struct ProgramStats
    {
        std::uint64_t served = 0;
        std::uint64_t servedFromM1 = 0;
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
    };

    HybridController(EventQueue &eq, mem::MemorySystem &memory,
                     const HybridLayout &layout, const Params &params,
                     policy::MigrationPolicy &policy,
                     const os::BlockOwnerOracle &oracle);

    /**
     * Drops any requests still queued in the channels: they were
     * acquired from this controller's pool, and the controller (a
     * channel user, constructed after the memory system) is always
     * destroyed first, so they must be recycled while the pool is
     * alive.
     */
    ~HybridController() override;

    /**
     * Serve one 64-B demand access.
     *
     * @param program Accessing program.
     * @param original_addr Original physical byte address.
     * @param is_write True for writes.
     * @param done Completion callback (may be empty for writes).
     */
    void access(ProgramId program, Addr original_addr, bool is_write,
                InlineCallback done);

    /** Begin periodic policy callbacks (MemPod intervals). */
    void startPeriodic();

    /** Stop periodic policy callbacks. */
    void stopPeriodic();

    // SwapHost
    bool requestSwap(std::uint64_t group, unsigned slot) override;
    Tick hostNow() const override { return eq_.now(); }

    /** @return STC hit rate over all demand translations. */
    double stcHitRate() const { return stc_.hitRate(); }

    /** @return total swaps executed. */
    std::uint64_t swapCount() const { return swaps_; }

    /** @return served demand accesses (all programs). */
    std::uint64_t servedTotal() const;

    /** @return Request / PendingAccess nodes ever allocated: each
     *  recycling pool's high-water mark. */
    std::size_t requestPoolNodes() const { return reqPool_.capacity(); }
    std::size_t pendingPoolNodes() const { return paPool_.capacity(); }

    /** @return per-program counters. */
    const ProgramStats &programStats(ProgramId p) const;

    /** @return misc counters (st_fills, st_writebacks, ...). */
    const StatSet &stats() const { return stats_; }

    /** @return the layout in force. */
    const HybridLayout &layout() const { return layout_; }

    /** @return the swap-group table (tests, debugging). */
    const SwapGroupTable &table() const { return st_; }

    /** @return the STC (tests, debugging). */
    const StCache &stCache() const { return stc_; }

    /**
     * Zero all service statistics (per-program counters, swap
     * count, STC hit/miss, misc counters); ST/STC contents and
     * policy state are untouched.  Used at the warm-up boundary.
     */
    void resetStats();

    /** Register controller + STC + per-program statistics under
     *  `prefix` ("hybrid"); forwards to the migration policy. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix);

    /**
     * Full structural audit: every swap group's ATB permutation and
     * QAC range, ST/STC residency coherence across all sets, and
     * the migration policy's internal invariants.  Panics on
     * violation.  Wired into System teardown in PROFESS_AUDIT
     * builds; callable from tests in any build.
     */
    void
    auditInvariants() const
    {
        st_.auditInvariants();
        stc_.auditInvariants(st_);
        policy_.auditInvariants();
    }

    /** Emit swap/fill spans to a Chrome trace (null disables). */
    void setChromeTrace(telemetry::ChromeTraceSink *sink)
    {
        chrome_ = sink;
    }

    /** Wall-clock profile the access path (null disables). */
    void setAccessTimer(telemetry::TimerSlot *slot)
    {
        accessTimer_ = slot;
    }

    /**
     * Attribute time accesses spend parked behind STC fills and
     * in-flight swaps (null disables; observational only — parked
     * timestamps are pool-resident and only written under a
     * PROFESS_UNLIKELY branch).
     */
    void setLatencyAttribution(telemetry::LatencyAttribution *attr)
    {
        attr_ = attr;
    }

    /**
     * @return true when no translation fill or swap is in flight on
     *         any group — the quiesce condition under which
     *         cross-component audits (auditStcQacCoherence) are
     *         guaranteed to hold.
     */
    bool quiescent() const;

    /**
     * Audit that every cached, non-swapping group's STC q_I
     * snapshots agree with the owning ST entry's live QACs (valid
     * exactly at quiesce points: QACs only change through eviction
     * updates, which re-sync the snapshots).  Panics on violation.
     */
    void auditStcQacCoherence() const;

  private:
    /** One access waiting for translation or a swap (pooled). */
    struct PendingAccess
    {
        ProgramId program;
        unsigned slot;
        std::uint64_t offset; ///< byte offset within the block
        bool isWrite;
        InlineCallback done;
        PendingAccess *next = nullptr; ///< intrusive FIFO link
        /** First tick this access parked on a wait list
         *  (tickNever = not parked).  Only maintained while
         *  latency attribution is attached. */
        Tick parkTick = tickNever;
        bool parkedOnSwap = false; ///< parked behind a swap
    };

    /** Intrusive FIFO of pooled PendingAccess nodes. */
    struct WaitList
    {
        PendingAccess *head = nullptr;
        PendingAccess *tail = nullptr;

        bool empty() const { return head == nullptr; }

        void
        append(PendingAccess *pa)
        {
            pa->next = nullptr;
            if (tail != nullptr)
                tail->next = pa;
            else
                head = pa;
            tail = pa;
        }

        /** Detach and return the whole chain. */
        PendingAccess *
        take()
        {
            PendingAccess *h = head;
            head = tail = nullptr;
            return h;
        }
    };

    /**
     * Per-group hot-path state: every layout_-derived value the
     * access path needs, precomputed, plus the group's wait lists.
     * (The M2 device address of location L is m1Addr + L *
     * m2Stride_, so only the M1 base is stored per group.)
     */
    struct GroupInfo
    {
        Addr m1Addr = 0;          ///< layout_.m1BlockAddr(group)
        Addr stAddr = 0;          ///< layout_.stEntryAddr(group)
        mem::Channel *chan = nullptr;
        std::uint16_t region = 0; ///< layout_.regionOfGroup(group)
        bool isPrivate = false;   ///< region < numPrograms
        bool fillInFlight = false;
        WaitList fillWaiters;
        WaitList swapWaiters;
    };

    void serve(std::uint64_t group, StcMeta &meta, PendingAccess *pa);
    void startFill(std::uint64_t group, PendingAccess *pa);
    void finishFill(std::uint64_t group);
    void startSwap(std::uint64_t group, unsigned promote_slot,
                   unsigned m1_slot, StcMeta &meta);
    void finishSwap(std::uint64_t group, unsigned promote_slot,
                    unsigned m1_slot);
    void schedulePeriodic();
    void scheduleStatsFold();
    void foldLongResidents();

    bool
    privateRegion(std::uint64_t group) const
    {
        return groups_[group].isPrivate;
    }

    mem::Channel &
    channelOf(std::uint64_t group)
    {
        return *groups_[group].chan;
    }

    EventQueue &eq_;
    mem::MemorySystem &memory_;
    HybridLayout layout_;
    Params params_;
    policy::MigrationPolicy &policy_;
    const os::BlockOwnerOracle &oracle_;

    SwapGroupTable st_;
    StCache stc_;

    std::vector<GroupInfo> groups_;
    ObjectPool<PendingAccess> paPool_;
    ObjectPool<mem::Request> reqPool_;

    // Precomputed address math (see GroupInfo).
    FastDivMod groupDiv_;          ///< divides by numGroups
    unsigned blockShift_ = 0;      ///< log2(blockBytes)
    std::uint64_t offsetMask_ = 0; ///< blockBytes - 1
    Addr m2Stride_ = 0; ///< m2BlockAddr(g, L) - m1BlockAddr(g) per L

    std::vector<ProgramStats> perProgram_;
    std::uint64_t swaps_ = 0;
    bool periodicEnabled_ = false;
    bool foldEnabled_ = false;
    StatSet stats_;
    std::uint64_t &ctrStFills_;
    // Dumps list every counter name, so these join stats_ only at
    // their first increment, as StatSet::inc() would.
    LazyCounter ctrStcEvictions_{stats_, "stc_evictions"};
    LazyCounter ctrStWritebacks_{stats_, "st_writebacks"};
    LazyCounter ctrStatsFolds_{stats_, "stats_folds"};
    telemetry::ChromeTraceSink *chrome_ = nullptr;
    telemetry::TimerSlot *accessTimer_ = nullptr;
    telemetry::LatencyAttribution *attr_ = nullptr;
};

} // namespace hybrid

} // namespace profess

#endif // PROFESS_HYBRID_HYBRID_CONTROLLER_HH
