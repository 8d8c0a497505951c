/**
 * @file
 * Per-layer instrumentation of the traced benchmark run, attached
 * from outside the simulator through its public hooks only:
 *
 *  - trace:  a timing decorator around every TraceSource (next()
 *            calls and host time; it also records the virtual-page
 *            stream for the os replay);
 *  - hybrid: HybridController::setAccessTimer;
 *  - mem:    Channel::setSchedulerTimer, plus a periodic event that
 *            samples readQueueSize()/writeQueueSize();
 *  - core:   the policy decision counters, read through
 *            HybridController::registerTelemetry into a registry
 *            owned here;
 *  - cpu, os, common: CoreModel, PageAllocator::stats and
 *            EventQueue::executed after the run.
 *
 * Every hook only observes: a traced run's simulated results equal
 * an untraced run's, which the benchmark checks by digest.  Timer
 * slots count every call but time one in TimerSlot::samplePeriod, so
 * counts are exact and host times are estimates.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/telemetry.hh"
#include "sim/system.hh"
#include "trace/access.hh"

namespace perfbench
{

/** Per-layer metrics by name. */
using LayerMetrics = std::map<std::string, double>;

/** Accumulates per-layer counts and host times over one repetition. */
class LayerProbe
{
  public:
    /** @param record_pages Record the virtual-page stream for
     *         replayTranslations(). */
    explicit LayerProbe(bool record_pages) : recordPages_(record_pages)
    {
    }

    LayerProbe(const LayerProbe &) = delete;
    LayerProbe &operator=(const LayerProbe &) = delete;

    /** Wrap one System's trace sources (core i runs program i) in
     *  the timing decorator; call once per System, before building
     *  it. */
    void wrap(
        std::vector<std::unique_ptr<profess::trace::TraceSource>>
            &sources);

    /** Install timers and the queue sampler on a built System. */
    void attach(profess::sim::System &sys);

    /** Read the System's counters after run(). */
    void collect(profess::sim::System &sys, double run_ns);

    /** @return the repetition's per-layer metrics (perfbench/
     *  README.md lists them), except the sim.* ones the caller
     *  knows. */
    LayerMetrics finish() const;

    /** @return a fold of every exact count (repeatability check). */
    std::uint64_t countsDigest() const;

    /**
     * Replay the recorded per-program virtual-page streams through
     * standalone os::PageAllocators of the same geometry and seed.
     *
     * @return host ns per PageAllocator::translate call (median of
     *         several passes), or 0 with nothing recorded.
     */
    double replayTranslations() const;

  private:
    /** The page stream of one System, for the os replay. */
    struct PageStream
    {
        std::uint64_t numGroups = 0;
        unsigned slotsPerGroup = 0;
        unsigned numRegions = 0;
        unsigned numPrograms = 0;
        std::uint64_t seed = 0;
        /** (program << 48) | vpage, in next() order. */
        std::vector<std::uint64_t> pages;
    };

    void armSampler();

    bool recordPages_;
    profess::telemetry::TimerSlot traceSlot_;
    profess::telemetry::TimerSlot accessSlot_;
    profess::telemetry::TimerSlot schedSlot_;
    std::deque<PageStream> streams_; ///< stable element addresses

    // Queue sampler state; sys_ is the System being run.
    profess::sim::System *sys_ = nullptr;
    bool sampling_ = false;
    std::uint64_t samplerEvents_ = 0; ///< of the current System
    std::uint64_t queueSamples_ = 0; ///< channel-samples
    double readQSum_ = 0.0;
    double writeQSum_ = 0.0;

    double runNs_ = 0.0;
    /** Exact counts summed over the repetition's Systems. */
    std::map<std::string, std::uint64_t> counts_;
    double readLatSum_ = 0.0; ///< MC cycles, demand reads
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
