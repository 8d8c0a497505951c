/**
 * @file
 * Event-driven timing model of one hybrid memory channel.
 *
 * One channel hosts one M1 (DRAM) module and one M2 (NVM) module
 * sharing command and data buses, as in Intel Purley (Sec. 2.2).
 * Scheduling is FR-FCFS-Cap (Sec. 4.1): row-buffer hits are preferred
 * but at most `rowHitCap` consecutive hits to one row are served
 * before the oldest request wins; writes are buffered and drained
 * between high/low watermarks; banks across both modules operate in
 * parallel, arbitrating for the shared data bus.
 *
 * Swaps (block migrations) are modelled per Sec. 4.1: the channel is
 * blocked for the duration of the swap, whose latency is derived from
 * the timing parameters using the paper's overlap structure (read
 * phase dominated by tRCD_M2, write phase dominated by tWR_M2); the
 * resulting ~796 ns for default parameters is validated by tests.
 *
 * When the scheduler runs.  Only on a state change that can let a
 * request commit or a swap start: a request's completion, a swap's
 * completion, a new swap, the end of an injected bank-busy window,
 * and a push that finds a free in-flight slot or a queued swap.  A
 * push that finds every slot busy only enqueues, and no wake-up is
 * scheduled for a swap's end because its completion event re-runs
 * the scheduler at that tick.
 *
 * Refresh is lazy: the tREFI boundaries that have passed are applied
 * at the first push or scheduler entry at or after them.  The bank
 * state this yields does not depend on when that happens, but the
 * `m1_refreshes` counter does whenever resetStats() falls between a
 * boundary and its application, so refresh is not an event of its
 * own: that would move the counter of warm-up-reset runs.
 *
 * FR-FCFS-Cap pick.  Queue entries carry their request's bank and
 * row inline.  A per-bank table holds each bank's hittable row: the
 * open row while it has served fewer than rowHitCap consecutive
 * hits, else a sentinel no row equals.  The pick is the oldest entry
 * whose row equals its bank's table entry, else the oldest entry;
 * every scan step is one load and one compare.
 */

#ifndef PROFESS_MEM_CHANNEL_HH
#define PROFESS_MEM_CHANNEL_HH

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/event.hh"
#include "common/fifo.hh"
#include "common/inline_function.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/energy.hh"
#include "mem/geometry.hh"
#include "mem/request.hh"
#include "mem/timing.hh"

namespace profess
{

namespace telemetry
{
class LatencyAttribution;
class StatRegistry;
struct TimerSlot;
} // namespace telemetry

namespace mem
{

/** Scheduling and buffering knobs of a channel. */
struct ChannelConfig
{
    unsigned rowHitCap = 4;     ///< FR-FCFS-Cap limit
    unsigned writeHighMark = 32; ///< start draining writes
    /** Stop draining writes; must be below writeHighMark, which
     *  also makes a scheduler entry with nothing changed a no-op. */
    unsigned writeLowMark = 16;
    unsigned maxInflight = 4;    ///< concurrently committed requests
};

/** One memory channel with an M1 and an M2 module. */
class Channel
{
  public:
    /**
     * @param eq Shared event queue.
     * @param m1t M1 timing parameters.
     * @param m2t M2 timing parameters.
     * @param m1g M1 geometry.
     * @param m2g M2 geometry.
     * @param ep Energy parameters.
     * @param cfg Scheduling configuration.
     */
    Channel(EventQueue &eq, const TimingParams &m1t,
            const TimingParams &m2t, const ModuleGeometry &m1g,
            const ModuleGeometry &m2g, const EnergyParams &ep = {},
            const ChannelConfig &cfg = {});

    /** Drops queued requests (see dropQueued()). */
    ~Channel();

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    /** Enqueue a request; completion reported via req->onComplete. */
    void push(RequestPtr req);

    /** Convenience overload for plain heap-allocated requests
     *  (tests and microbenchmarks); ownership transfers as above. */
    void
    push(std::unique_ptr<Request> req)
    {
        push(RequestPtr(req.release()));
    }

    /**
     * Execute a block swap between an M1 location and an M2 location.
     *
     * The channel is blocked for the duration (fast swap, Sec. 2.3);
     * queued demand requests wait.  Multiple swap requests queue.
     *
     * @param m1_addr M1 device byte address of the 2-KB block.
     * @param m2_addr M2 device byte address of the 2-KB block.
     * @param block_bytes Swap block size in bytes.
     * @param done Invoked when the swap completes.
     * @param slow Slow swap (Table 1): the original mapping must be
     *        restored first, doubling the occupancy.
     */
    void executeSwap(Addr m1_addr, Addr m2_addr,
                     std::uint64_t block_bytes,
                     InlineCallback done,
                     bool slow = false);

    /** @return true while a swap occupies the channel. */
    bool swapActive() const { return eq_.now() < swapEndTick_; }

    /** @return analytic latency of one swap, in MC cycles. */
    Cycles swapLatency(std::uint64_t block_bytes) const;

    /** @return number of queued read requests. */
    std::size_t readQueueSize() const { return readQ_.size(); }

    /** @return number of queued write requests. */
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /** Statistics of this channel. */
    const StatSet &stats() const { return stats_; }

    /** Register all channel statistics plus live queue-depth probes
     *  under `prefix` ("mem.ch0"). */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    /** Wall-clock profile the scheduler hot path (null disables). */
    void setSchedulerTimer(telemetry::TimerSlot *slot)
    {
        schedTimer_ = slot;
    }

    /**
     * Attribute demand-request lifecycle phases (queue, bank-busy,
     * transfer) per program and tier (null disables; observational
     * only — one PROFESS_UNLIKELY branch per committed request).
     */
    void setLatencyAttribution(telemetry::LatencyAttribution *attr)
    {
        attr_ = attr;
    }

    /**
     * @return scheduler entries since construction.  A count of host
     * work for benchmarks, kept out of stats(), which holds only
     * simulated quantities and is folded into result digests.
     */
    std::uint64_t schedulerCalls() const { return schedulerCalls_; }

    /** Demand-read latency distribution (MC cycles). */
    const RunningStat &readLatency() const { return readLat_; }

    /** Energy account of this channel. */
    const EnergyAccount &energy() const { return energy_; }

    /** M1/M2 timing in force (read-only). */
    const TimingParams &m1Timing() const { return m1t_; }
    const TimingParams &m2Timing() const { return m2t_; }

    /**
     * Hold every bank of a module busy until `until` (test hook:
     * drives the scheduler's wake-up dedup).  In-flight requests
     * complete; new activations and column commands wait out the
     * window.
     */
    void injectBankBusy(Module m, Tick until);

    /**
     * Zero all statistics and energy tallies (device and queue
     * state are untouched).  Used to exclude warm-up from
     * measurement windows.
     */
    void resetStats();

    /**
     * Drop all queued (not yet committed) requests and swaps
     * without executing them, and the completion callbacks of
     * started swaps (their channel occupancy still ends as
     * scheduled).  Called by request producers on teardown so
     * pooled requests return to their pool while it is still alive
     * and no callback reaches the producer; the channel itself
     * stays usable.
     */
    void dropQueued();

  private:
    /** Per-bank device state. */
    struct Bank
    {
        bool open = false;
        std::uint32_t row = 0;
        Tick readyCol = 0;      ///< earliest next column command
        Tick readyAct = 0;      ///< earliest next activation
        Tick lastAct = 0;       ///< last activation tick (tRAS/tRC)
        Tick wrRecoverEnd = 0;  ///< write recovery for precharge
        unsigned consecHits = 0;
    };

    /**
     * A queued request.  The decoded bank and row sit inline so the
     * FR-FCFS scan never touches the request.  The entry owns `req`
     * as a raw pointer, which keeps it trivially copyable: push()
     * releases it from its RequestPtr, and the completion event or
     * dropQueued() hands it back to RequestDeleter.
     */
    struct Queued
    {
        std::uint32_t row;
        std::uint32_t bank; ///< index into banks_
        Request *req;
    };
    static_assert(std::is_trivially_copyable_v<Queued>);

    /** hitRow_ value of a bank that cannot serve a row hit now. */
    static constexpr std::uint32_t noRow = ~std::uint32_t{0};

    /** A queued swap awaiting the channel. */
    struct PendingSwap
    {
        Addr m1Addr;
        Addr m2Addr;
        std::uint64_t blockBytes;
        InlineCallback done;
        bool slow;
    };

    const TimingParams &timing(Module m) const
    {
        return m == Module::M1 ? m1t_ : m2t_;
    }
    const ModuleGeometry &geometry(Module m) const
    {
        return m == Module::M1 ? m1g_ : m2g_;
    }
    /** @return index into banks_ of bank b of module m. */
    std::uint32_t
    bankIndex(Module m, std::uint32_t b) const
    {
        return m == Module::M1 ? b : m1g_.banks + b;
    }

    /** Recompute hitRow_[i] after bank i's open, row or consecHits
     *  changed. */
    void
    updateHitRow(std::uint32_t i)
    {
        const Bank &b = banks_[i];
        hitRow_[i] =
            b.open && b.consecHits < cfg_.rowHitCap ? b.row : noRow;
    }

    /** Apply any M1 refresh windows that have begun by now. */
    void
    applyRefresh(Tick now)
    {
        if (nextRefresh_ <= now)
            applyDueRefreshes(now);
    }

    /** applyRefresh()'s slow path: at least one window is due. */
    void applyDueRefreshes(Tick now);

    /**
     * Record a scheduler wake-up at `when` unless an earlier or
     * equal one is pending.  @return whether it was recorded (the
     * caller then owns scheduling it).
     */
    bool claimWake(Tick when);

    /** Ensure a scheduler wake-up at the given tick. */
    void requestWake(Tick when);

    /** Main scheduling entry: commit as many requests as allowed. */
    void trySchedule();

    /** @return index of q's next request per FR-FCFS-Cap (q is
     *  not empty). */
    std::size_t pickNext(const std::vector<Queued> &q) const;

    /** Commit one request: update state, schedule completion. */
    void commit(const Queued &e);

    /** Start the next queued swap (one is queued and the channel
     *  is free). */
    void startSwap();

    EventQueue &eq_;
    TimingParams m1t_, m2t_;
    ModuleGeometry m1g_, m2g_;
    ChannelConfig cfg_;

    std::vector<Bank> banks_; ///< M1 banks, then M2 banks
    /** Per bank: the row a queued request must target to be a
     *  FR-FCFS-Cap hit now, or noRow (see updateHitRow). */
    std::vector<std::uint32_t> hitRow_;
    std::vector<Queued> readQ_, writeQ_;
    /** Swaps awaiting the channel, reserved for 16 like the request
     *  queues for 64; MemPod's and the OS baseline's interval bursts
     *  (up to 64 swaps) grow it. */
    Fifo<PendingSwap> swapQ_;

    Tick busFreeAt_ = 0;
    bool lastBusWrite_ = false;
    bool drainingWrites_ = false;
    unsigned inflight_ = 0;
    Tick swapEndTick_ = 0;
    Tick nextRefresh_ = 0;
    /** Latest recorded wake-up (see claimWake).  While a swap runs
     *  its end counts as one, since the swap's completion event
     *  re-runs the scheduler then. */
    Tick wakeAt_ = tickNever;
    std::uint64_t schedulerCalls_ = 0;

    /** Completion callbacks of started swaps, FIFO, one slot per
     *  started swap (dropQueued() empties a slot but keeps it).
     *  Swaps finish in start order (ends strictly increase), so the
     *  completion event captures only `this` and pops the front.
     *  Usually one entry; two when a successor starts at the same
     *  tick an older event fires. */
    Fifo<InlineCallback> activeSwapDones_;

    StatSet stats_;
    RunningStat readLat_;
    EnergyAccount energy_;
    telemetry::TimerSlot *schedTimer_ = nullptr;
    telemetry::LatencyAttribution *attr_ = nullptr;

    // Hot-path counters resolved once (StatSet::counterRef); refs
    // stay valid across resetStats() because reset() zeroes in
    // place.
    std::uint64_t &ctrDemandReads_;
    std::uint64_t &ctrDemandWrites_;
    std::uint64_t &ctrStReads_;
    std::uint64_t &ctrStWrites_;
    std::uint64_t &ctrRowHits_;
    std::uint64_t &ctrRowMisses_;
    std::uint64_t &ctrM1Activates_;
    std::uint64_t &ctrM2Activates_;
    std::uint64_t &ctrM1Accesses_;
    std::uint64_t &ctrM2Accesses_;
    std::uint64_t &ctrBusBusyCycles_;
    // Swap counters join stats_ at the first swap: every per-channel
    // counter name enters the result digests, so a run without swaps
    // must not list them.
    LazyCounter ctrSwaps_{stats_, "swaps"};
    LazyCounter ctrSwapBusyCycles_{stats_, "swap_busy_cycles"};
};

} // namespace mem

} // namespace profess

#endif // PROFESS_MEM_CHANNEL_HH
