/**
 * @file
 * Trace-driven out-of-order core model (Table 8: 4-wide, ROB 256).
 *
 * The paper's mechanisms live in the memory controller; what they
 * need from the core is a realistic request stream whose timing
 * reflects ROB-limited run-ahead and MSHR-limited memory-level
 * parallelism.  The model retires non-miss instructions at the core
 * width, issues main-memory reads without blocking until either all
 * MSHRs are busy or the run-ahead distance from the oldest
 * outstanding read exceeds the ROB size, and posts writes to the
 * controller's write path without stalling (store buffer).
 *
 * The core runs at coreCyclesPerTick x the memory-controller clock
 * (3.2 GHz vs 0.8 GHz, Table 8).
 */

#ifndef PROFESS_CPU_CORE_MODEL_HH
#define PROFESS_CPU_CORE_MODEL_HH

#include <functional>
#include <string>
#include <vector>

#include "common/event.hh"
#include "common/fastdiv.hh"
#include "common/inline_function.hh"
#include "common/types.hh"
#include "trace/access.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
} // namespace telemetry

namespace cpu
{

/** Where a core sends its main-memory accesses. */
class MemPort
{
  public:
    virtual ~MemPort() = default;

    /**
     * Issue a 64-B access.
     *
     * @param program Issuing program.
     * @param vaddr Virtual byte address.
     * @param is_write True for writes.
     * @param done Completion callback (empty allowed for writes).
     */
    virtual void issue(ProgramId program, Addr vaddr, bool is_write,
                       InlineCallback done) = 0;
};

/** Core configuration. */
struct CoreParams
{
    unsigned width = 4;            ///< retire width (instr/cycle)
    unsigned robSize = 256;
    unsigned maxOutstanding = 16;  ///< MSHRs (outstanding reads)
    unsigned coreCyclesPerTick = 4;
    std::uint64_t instrQuota = 5'000'000;
    /**
     * Instructions executed before measurement begins.  The paper's
     * 500M-instruction runs amortize M1/statistics warm-up within
     * the first ~2% of execution; at the repo's 1/100 scale the
     * same warm-up would occupy a large fraction of the run, so IPC
     * (and, via System, the memory-side statistics) is measured
     * over [warmupInstr, warmupInstr + instrQuota).
     */
    std::uint64_t warmupInstr = 1'000'000;
};

/**
 * A core's compute-time frontier: retired instructions converted to
 * core cycles at the core width, with sub-cycle fractions carried
 * across accesses, and the first MC tick at or after it.  The
 * frontier is kept split at MC tick boundaries and each charge is
 * split with reciprocal multiplies on 32-bit values, so no step
 * divides 64-bit numbers; the results are exact for every width and
 * cycles-per-tick (tests/test_core_model.cc checks them against the
 * plain divides).
 */
class CoreFrontier
{
  public:
    CoreFrontier(unsigned width, unsigned cycles_per_tick);

    /** Account one access and the `gap` instructions before it. */
    void charge(std::uint32_t gap);

    /** Move the frontier forward to tick `now` if it is behind. */
    void
    syncTo(Tick now)
    {
        // cycles() < now * cpt exactly when tick_ < now (rem_ < cpt).
        if (tick_ < now) {
            tick_ = now;
            rem_ = 0;
        }
    }

    /** @return the frontier in core cycles. */
    std::uint64_t cycles() const { return tick_ * cpt_ + rem_; }

    /** @return ceil(cycles() / cycles_per_tick). */
    Tick issueTick() const { return tick_ + (rem_ != 0); }

  private:
    std::uint32_t width_;
    std::uint32_t cpt_;      ///< core cycles per MC tick
    FastDivMod widthDiv_;
    FastDivMod cptDiv_;
    Tick tick_ = 0;          ///< whole MC ticks of the frontier
    std::uint32_t rem_ = 0;  ///< core cycles past tick_, < cpt_
    std::uint32_t debt_ = 0; ///< instructions short of a cycle
};

/** The core proper. */
class CoreModel
{
  public:
    /**
     * @param eq Shared event queue.
     * @param params Core configuration.
     * @param source The program's access stream (not owned).
     * @param port Memory-side interface (not owned).
     * @param id Program/core identifier.
     */
    CoreModel(EventQueue &eq, const CoreParams &params,
              trace::TraceSource &source, MemPort &port,
              ProgramId id);

    /** Begin execution (schedules the first advance). */
    void start();

    /** @return instructions retired so far. */
    std::uint64_t retired() const { return instrCount_; }

    /** @return true once the warm-up window has completed. */
    bool warmupDone() const { return warmupDone_; }

    /** @return true once warm-up + quota instructions retired. */
    bool quotaReached() const { return quotaReached_; }

    /** @return IPC over the post-warm-up measurement window. */
    double ipcAtQuota() const;

    /** @return tick at which the quota was reached. */
    Tick quotaTick() const { return quotaTick_; }

    /** @return core cycles elapsed when the quota was reached. */
    std::uint64_t quotaCycles() const { return quotaCycles_; }

    /** @return memory reads / writes issued so far. */
    std::uint64_t memReads() const { return memReads_; }
    std::uint64_t memWrites() const { return memWrites_; }

    /** @return times the source was restarted (repetitions). */
    std::uint64_t repetitions() const { return repetitions_; }

    /** Invoked once when the quota is reached. */
    void setOnQuota(std::function<void()> cb) { onQuota_ = std::move(cb); }

    /** Invoked once when the warm-up window completes. */
    void
    setOnWarmup(std::function<void()> cb)
    {
        onWarmup_ = std::move(cb);
    }

    /** Pause issuing new work (used when a workload ends). */
    void halt() { halted_ = true; }

    const CoreParams &params() const { return params_; }

    /** Register retired/read/write progress probes under `prefix`. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

  private:
    void advance();
    void onReadComplete(std::uint64_t instr_idx);

    EventQueue &eq_;
    CoreParams params_;
    trace::TraceSource &source_;
    MemPort &port_;
    ProgramId id_;

    trace::MemAccess pending_{};
    bool pendingValid_ = false;
    bool pendingCharged_ = false; ///< gap compute time accounted

    std::uint64_t instrCount_ = 0;
    CoreFrontier frontier_;
    /** Outstanding read instruction indices.  Reads issue with
     *  strictly increasing indices, so the vector stays sorted and
     *  the oldest is front(); completion removes by linear scan
     *  (bounded by maxOutstanding, 16 by default). */
    std::vector<std::uint64_t> outstanding_;

    bool waiting_ = false;   ///< blocked on MSHR/ROB
    bool scheduled_ = false; ///< an advance event is pending
    bool halted_ = false;
    bool syncFrontier_ = true; ///< snap frontier to now on resume

    bool warmupDone_ = false;
    bool quotaReached_ = false;
    Tick quotaTick_ = 0;
    std::uint64_t warmupCycles_ = 0;
    std::uint64_t warmupInstrCount_ = 0;
    std::uint64_t quotaCycles_ = 0;
    std::uint64_t quotaInstrCount_ = 0;
    std::uint64_t memReads_ = 0;
    std::uint64_t memWrites_ = 0;
    std::uint64_t repetitions_ = 0;
    std::function<void()> onQuota_;
    std::function<void()> onWarmup_;
};

} // namespace cpu

} // namespace profess

#endif // PROFESS_CPU_CORE_MODEL_HH
