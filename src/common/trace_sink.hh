/**
 * @file
 * Decision tracing and Chrome trace-event export.
 *
 * DecisionTraceSink - compact binary ring buffer of policy-level
 *                     events: every MDM swap evaluation (group,
 *                     QACs, predicted remaining accesses,
 *                     min_benefit margin, decision path), every
 *                     Table-7 guidance classification, and every RSM
 *                     period rollover.  Records are fixed-size PODs
 *                     written into a preallocated ring — zero
 *                     allocations and no formatting on the hot path.
 *                     The ring is flushable to JSONL; per-kind and
 *                     per-path running totals survive ring wraps so
 *                     flushed summaries always reconcile with the
 *                     aggregate counters (test_telemetry.cc).
 * ChromeTraceSink   - accumulates trace-event objects in the Chrome
 *                     trace-event JSON format (chrome://tracing /
 *                     Perfetto).  Timestamps are simulation ticks
 *                     reported as microseconds — 1 tick == 1 us in
 *                     the viewer — since the viewer needs a time
 *                     unit and the interesting axis is sim time.
 *
 * Both sinks are attached by pointer; the producing components test
 * `if (PROFESS_UNLIKELY(sink_))` so the disabled configuration costs
 * a single predictable branch per candidate site.
 */

#ifndef PROFESS_COMMON_TRACE_SINK_HH
#define PROFESS_COMMON_TRACE_SINK_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "common/types.hh"

namespace profess
{

namespace telemetry
{

/** What a decision-trace record describes. */
enum class TraceKind : std::uint8_t
{
    MdmDecide = 0,   ///< one MDM swap evaluation (Sec. 3.2.3)
    GuidanceCase,    ///< Table-7 classification (core::Guidance)
    RsmPeriod,       ///< RSM sampling-period rollover (Sec. 3.1.3)
    ScenarioEvent,   ///< scenario intervention / injected fault
    NumKinds
};

/** One fixed-size binary trace record. */
struct TraceRecord
{
    Tick tick = 0;
    std::uint64_t group = 0;   ///< swap group (MdmDecide/Guidance)
    double a = 0.0;            ///< rem_M2 | SF_A
    double b = 0.0;            ///< rem_M1 | SF_B
    double margin = 0.0;       ///< rem_M2 - rem_M1 - min_benefit
    std::int32_t accessor = -1;  ///< program issuing / sampled
    std::int32_t m1Owner = -1;   ///< program owning the M1 block
    std::uint32_t detail = 0;  ///< DecidePath | GuidanceCase | period
    std::uint8_t kind = 0;     ///< TraceKind
    std::uint8_t qI = 0;       ///< QAC of the M2 block at insert
    std::uint8_t swapped = 0;  ///< decision was Swap (MdmDecide)
    std::uint8_t pad = 0;
};

static_assert(sizeof(TraceRecord) <= 64,
              "trace records should stay within one cache line");

/**
 * Preallocated ring of TraceRecords with wrap-immune totals.
 *
 * push() is the only hot-path entry point: one store into the ring
 * plus counter bumps, no allocation, no branch on capacity (the ring
 * index wraps with a mask when capacity is a power of two, modulo
 * otherwise).
 */
class DecisionTraceSink
{
  public:
    /** @param capacity Ring size in records (> 0). */
    explicit DecisionTraceSink(std::size_t capacity = 1 << 16);

    /** Record one event (overwrites the oldest once full). */
    void
    push(const TraceRecord &r)
    {
        ring_[head_] = r;
        head_ = (head_ + 1) % ring_.size();
        ++total_;
        ++kindTotals_[r.kind];
        if (r.kind ==
            static_cast<std::uint8_t>(TraceKind::MdmDecide)) {
            ++pathTotals_[r.detail];
            if (r.swapped)
                ++swapTotals_[r.detail];
        }
    }

    /** @return records pushed since construction (wrap-immune). */
    std::uint64_t total() const { return total_; }

    /** @return records pushed of one kind (wrap-immune). */
    std::uint64_t
    kindTotal(TraceKind k) const
    {
        return kindTotals_[static_cast<std::uint8_t>(k)];
    }

    /** @return MdmDecide records recording a given path. */
    std::uint64_t pathTotal(std::uint32_t path) const
    {
        return path < numPaths ? pathTotals_[path] : 0;
    }

    /** @return MdmDecide records per path that decided Swap. */
    std::uint64_t swapTotal(std::uint32_t path) const
    {
        return path < numPaths ? swapTotals_[path] : 0;
    }

    /** @return records currently retained (<= capacity). */
    std::size_t retainedCount() const;

    /** @return ring capacity in records. */
    std::size_t capacity() const { return ring_.size(); }

    /** @return retained records, oldest first (tests). */
    std::vector<TraceRecord> retained() const;

    /**
     * Write retained records as JSONL, one object per line, then a
     * trailing summary object {"summary":...} carrying the
     * wrap-immune totals (total, per-kind, per-path, per-path swap
     * counts, dropped = total - retained).
     */
    void flushJsonl(std::FILE *f) const;

  private:
    static constexpr std::size_t numPaths = 8;

    std::vector<TraceRecord> ring_;
    std::size_t head_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t kindTotals_[static_cast<std::size_t>(
        TraceKind::NumKinds)] = {};
    std::uint64_t pathTotals_[numPaths] = {};
    std::uint64_t swapTotals_[numPaths] = {};
};

/**
 * Chrome trace-event accumulation (JSON Array Format).
 *
 * Complete events ("ph":"X") carry begin tick + duration; instant
 * events ("ph":"i") mark points in time.  The sink caps stored
 * events and counts drops so a pathological run cannot exhaust
 * memory; the cap is generous (1M events ~ 64 MiB).
 */
class ChromeTraceSink
{
  public:
    explicit ChromeTraceSink(std::size_t max_events = 1 << 20);

    /** Record a complete event of `dur` ticks ending now. */
    void
    complete(const char *name, const char *category, Tick begin,
             Tick dur, std::uint32_t tid)
    {
        if (events_.size() >= max_) {
            ++dropped_;
            return;
        }
        events_.push_back(Event{name, category, begin, dur, tid,
                                /*instant=*/false});
    }

    /** Record an instant event. */
    void
    instant(const char *name, const char *category, Tick at,
            std::uint32_t tid)
    {
        if (events_.size() >= max_) {
            ++dropped_;
            return;
        }
        events_.push_back(Event{name, category, at, 0, tid,
                                /*instant=*/true});
    }

    /** @return events currently stored. */
    std::size_t size() const { return events_.size(); }

    /** @return events dropped at the cap. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * Write the trace as a chrome://tracing-loadable JSON object
     * with metadata naming the tracks; also appends wall-clock
     * profiling spans derived from the given timer slots (one
     * summary counter event per slot).
     */
    void writeJson(std::FILE *f,
                   const std::vector<std::pair<std::string,
                                               const TimerSlot *>>
                       &timers = {}) const;

  private:
    struct Event
    {
        const char *name;     ///< must be a string literal
        const char *category; ///< must be a string literal
        Tick begin;
        Tick dur;
        std::uint32_t tid;
        bool instant;
    };

    std::vector<Event> events_;
    std::size_t max_;
    std::uint64_t dropped_ = 0;
};

/** Names for TraceKind values in JSONL output. */
const char *traceKindName(TraceKind k);

} // namespace telemetry

} // namespace profess

#endif // PROFESS_COMMON_TRACE_SINK_HH
