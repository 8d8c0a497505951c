#include "layers.hh"

#include <algorithm>
#include <bit>
#include <chrono>

#include "common/rng.hh"
#include "os/page_allocator.hh"

namespace perfbench
{

using namespace profess;

namespace
{

/** Ticks between two queue-depth samples (prime, so the samples do
 *  not alias with the refresh or stats-fold periods). */
constexpr Tick queueSampleTicks = 997;

/** Timing decorator around one core's trace source. */
class TimedSource : public trace::TraceSource
{
  public:
    TimedSource(std::unique_ptr<trace::TraceSource> inner,
                telemetry::TimerSlot &slot, ProgramId program,
                std::vector<std::uint64_t> *pages)
        : inner_(std::move(inner)), slot_(slot),
          programBits_(static_cast<std::uint64_t>(program) << 48),
          pages_(pages)
    {
    }

    bool
    next(trace::MemAccess &out) override
    {
        bool ok;
        {
            telemetry::ScopedTimer span(&slot_);
            ok = inner_->next(out);
        }
        if (pages_ != nullptr && ok)
            pages_->push_back(programBits_ | (out.vaddr / os::pageBytes));
        return ok;
    }

    std::uint64_t
    footprintBytes() const override
    {
        return inner_->footprintBytes();
    }

    void reset() override { inner_->reset(); }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    telemetry::TimerSlot &slot_;
    std::uint64_t programBits_;
    std::vector<std::uint64_t> *pages_;
};

/** Where a policy statistic lands among the core.* metrics. */
std::string
coreMetricName(const std::string &name)
{
    auto after = [&name](const std::string &marker) {
        std::size_t at = name.find(marker);
        return at == std::string::npos
                   ? std::string()
                   : name.substr(at + marker.size());
    };
    std::string path = after(".mdm.path_");
    if (!path.empty())
        return "core.mdm.path_" + path;
    std::string guidance = after(".guidance.");
    if (!guidance.empty())
        return "core.profess.guidance_" + guidance;
    if (name.find(".rsm.") != std::string::npos &&
        name.ends_with(".periods"))
        return "core.rsm.periods";
    return "";
}

const char *const mdmPaths[] = {"no_benefit", "vacant",      "idle_m1",
                                "depleted",   "net_benefit", "rejected"};
const char *const swapPaths[] = {"vacant", "idle_m1", "depleted",
                                 "net_benefit"};
const char *const guidanceCases[] = {"same_program", "case1", "case2",
                                     "case3", "default"};

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // anonymous namespace

void
LayerProbe::wrap(std::vector<std::unique_ptr<trace::TraceSource>> &sources)
{
    std::vector<std::uint64_t> *pages = nullptr;
    if (recordPages_) {
        streams_.emplace_back();
        pages = &streams_.back().pages;
    }
    for (std::size_t i = 0; i < sources.size(); ++i) {
        sources[i] = std::make_unique<TimedSource>(
            std::move(sources[i]), traceSlot_,
            static_cast<ProgramId>(i), pages);
    }
}

void
LayerProbe::attach(sim::System &sys)
{
    sys.controller().setAccessTimer(&accessSlot_);
    for (unsigned c = 0; c < sys.memory().numChannels(); ++c)
        sys.memory().channel(c).setSchedulerTimer(&schedSlot_);
    if (recordPages_) {
        PageStream &s = streams_.back();
        s.numGroups = sys.controller().layout().numGroups;
        s.slotsPerGroup = sys.config().slotsPerGroup;
        s.numRegions = sys.config().numRegions;
        s.numPrograms = sys.numPrograms();
        s.seed = sys.config().allocSeed;
    }
    sys_ = &sys;
    sampling_ = true;
    samplerEvents_ = 0;
    armSampler();
}

void
LayerProbe::armSampler()
{
    // Sampling only reads queue sizes.  The extra events take
    // sequence numbers but keep every other event's (tick, seq)
    // order, so the simulation is unchanged.
    EventQueue &eq = sys_->eventQueue();
    eq.schedule(eq.now() + queueSampleTicks, [this]() {
        if (!sampling_)
            return;
        ++samplerEvents_;
        const mem::MemorySystem &memory = sys_->memory();
        for (unsigned c = 0; c < memory.numChannels(); ++c) {
            readQSum_ += static_cast<double>(
                memory.channel(c).readQueueSize());
            writeQSum_ += static_cast<double>(
                memory.channel(c).writeQueueSize());
            ++queueSamples_;
        }
        armSampler();
    });
}

void
LayerProbe::collect(sim::System &sys, double run_ns)
{
    sampling_ = false;
    sys_ = nullptr;
    runNs_ += run_ns;
    auto &n = counts_;

    for (unsigned i = 0; i < sys.numCores(); ++i) {
        n["instr"] += sys.core(i).retired();
        n["mem_reads"] += sys.core(i).memReads();
        n["mem_writes"] += sys.core(i).memWrites();
    }
    n["translations"] += sys.allocator().stats().counter("translations");
    n["xlate_hits"] += sys.allocator().stats().counter("cache_hits");

    // Controller and channel statistics cover the measurement window
    // (they are reset when the last core finishes warm-up).
    const hybrid::HybridController &hc = sys.controller();
    n["served"] += hc.servedTotal();
    for (unsigned p = 0; p < sys.numPrograms(); ++p) {
        n["served_m1"] +=
            hc.programStats(static_cast<ProgramId>(p)).servedFromM1;
    }
    n["stc_hits"] += hc.stCache().hits();
    n["stc_misses"] += hc.stCache().misses();
    n["st_fills"] += hc.stats().counter("st_fills");
    n["st_writebacks"] += hc.stats().counter("st_writebacks");
    n["swaps"] += hc.swapCount();
    n["events"] += sys.eventQueue().executed() - samplerEvents_;

    const mem::MemorySystem &memory = sys.memory();
    for (unsigned c = 0; c < memory.numChannels(); ++c) {
        const mem::Channel &ch = memory.channel(c);
        for (const char *k : {"demand_reads", "demand_writes", "st_reads",
                              "st_writes", "row_hits", "row_misses",
                              "bus_busy_cycles", "swap_busy_cycles"})
            n[k] += ch.stats().counter(k);
        n["read_lat_count"] += ch.readLatency().count();
        readLatSum_ += ch.readLatency().mean() *
                       static_cast<double>(ch.readLatency().count());
    }
    n["channel_ticks"] +=
        (sys.now() - sys.measureStartTick()) * memory.numChannels();

    telemetry::StatRegistry reg;
    sys.controller().registerTelemetry(reg, "hybrid");
    for (const auto &e : reg.entries()) {
        std::string key = coreMetricName(e.name);
        if (key.empty())
            continue;
        n[key] += e.counter != nullptr
                      ? *e.counter
                      : static_cast<std::uint64_t>(e.probe());
    }
}

LayerMetrics
LayerProbe::finish() const
{
    auto c = [this](const std::string &k) {
        auto it = counts_.find(k);
        return it == counts_.end() ? 0.0
                                   : static_cast<double>(it->second);
    };
    LayerMetrics m;
    const double accesses = c("mem_reads") + c("mem_writes");
    const double served = c("served");

    m["trace.next_calls"] = static_cast<double>(traceSlot_.calls);
    m["trace.ns_per_next"] = ratio(traceSlot_.estimatedNs(),
                                   static_cast<double>(traceSlot_.calls));

    m["cpu.instr"] = c("instr");
    m["cpu.mem_reads"] = c("mem_reads");
    m["cpu.mem_writes"] = c("mem_writes");
    m["cpu.accesses_per_kinstr"] = 1000.0 * ratio(accesses, c("instr"));

    m["os.translations"] = c("translations");
    m["os.xlate_cache_hit_rate"] =
        ratio(c("xlate_hits"), c("translations"));

    const double stc_hit_rate =
        ratio(c("stc_hits"), c("stc_hits") + c("stc_misses"));
    m["hybrid.served"] = served;
    m["hybrid.stc_hit_rate"] = stc_hit_rate;
    m["hybrid.st_fills_per_kaccess"] = 1000.0 * ratio(c("st_fills"), served);
    m["hybrid.st_writebacks"] = c("st_writebacks");
    m["hybrid.swaps_per_kaccess"] = 1000.0 * ratio(c("swaps"), served);
    m["hybrid.m1_fraction"] = ratio(c("served_m1"), served);
    const double access_calls = static_cast<double>(accessSlot_.calls);
    const double access_ns = accessSlot_.estimatedNs();
    m["hybrid.access_calls"] = access_calls;
    m["hybrid.ns_per_access_call"] = ratio(access_ns, access_calls);

    double decisions = 0.0;
    double swap_decisions = 0.0;
    for (const char *p : mdmPaths) {
        std::string key = std::string("core.mdm.path_") + p;
        m[key] = c(key);
        decisions += c(key);
    }
    for (const char *p : swapPaths)
        swap_decisions += c(std::string("core.mdm.path_") + p);
    for (const char *g : guidanceCases) {
        std::string key = std::string("core.profess.guidance_") + g;
        m[key] = c(key);
    }
    m["core.rsm.periods"] = c("core.rsm.periods");
    m["core.swap_accept_frac"] = ratio(swap_decisions, decisions);

    const double sched_calls = static_cast<double>(schedSlot_.calls);
    const double sched_ns = schedSlot_.estimatedNs();
    const double ns_per_sched = ratio(sched_ns, sched_calls);
    m["mem.sched_calls_per_access"] = ratio(sched_calls, accesses);
    m["mem.ns_per_sched_call"] = ns_per_sched;
    m["mem.read_q_mean"] =
        ratio(readQSum_, static_cast<double>(queueSamples_));
    m["mem.write_q_mean"] =
        ratio(writeQSum_, static_cast<double>(queueSamples_));
    m["mem.row_hit_rate"] =
        ratio(c("row_hits"), c("row_hits") + c("row_misses"));
    m["mem.demand_reads"] = c("demand_reads");
    m["mem.demand_writes"] = c("demand_writes");
    m["mem.st_reads"] = c("st_reads");
    m["mem.st_writes"] = c("st_writes");
    m["mem.bus_busy_frac"] = ratio(c("bus_busy_cycles"), c("channel_ticks"));
    m["mem.swap_busy_frac"] =
        ratio(c("swap_busy_cycles"), c("channel_ticks"));
    m["mem.read_latency_ns"] =
        ratio(readLatSum_, c("read_lat_count")) / mem::mcCyclesPerNs;

    // Self time.  Every Channel::push runs trySchedule once, and
    // HybridController::access pushes inline for an STC hit, for a
    // fill it starts and for a swap it starts, so those scheduler
    // calls sit inside the access span.  Their number is not visible
    // from outside; it is estimated from the measurement window's
    // hit rate, fill and swap ratios (an approximation).
    const double inline_pushes =
        stc_hit_rate + ratio(c("st_fills") + c("swaps"), served);
    const double nested_calls =
        std::min(sched_calls, access_calls * inline_pushes);
    const double nested_ns = nested_calls * ns_per_sched;
    m["hybrid.self_ns_per_access_call"] =
        ratio(access_ns - nested_ns, access_calls);
    m["eq.events_per_access"] = ratio(c("events"), accesses);
    m["eq.residual_ns_per_access"] =
        ratio(runNs_ - traceSlot_.estimatedNs() - access_ns -
                  (sched_ns - nested_ns),
              accesses);
    return m;
}

std::uint64_t
LayerProbe::countsDigest() const
{
    std::uint64_t h = mix64(0x1a7e5u);
    for (const auto &[k, v] : counts_)
        h = hashCombine(hashCombine(h, k), v);
    for (const telemetry::TimerSlot *s :
         {&traceSlot_, &accessSlot_, &schedSlot_})
        h = hashCombine(h, s->calls);
    h = hashCombine(h, queueSamples_);
    h = hashCombine(h, std::bit_cast<std::uint64_t>(readQSum_));
    h = hashCombine(h, std::bit_cast<std::uint64_t>(writeQSum_));
    return h;
}

double
LayerProbe::replayTranslations() const
{
    using Clock = std::chrono::steady_clock;
    constexpr int passes = 5;
    std::vector<double> ns_per_call;
    for (int pass = 0; pass < passes; ++pass) {
        double ns = 0.0;
        std::uint64_t calls = 0;
        for (const PageStream &s : streams_) {
            os::PageAllocator alloc(s.numGroups, s.slotsPerGroup,
                                    s.numRegions, s.numPrograms, s.seed);
            auto t0 = Clock::now();
            for (std::uint64_t p : s.pages) {
                alloc.translate(static_cast<ProgramId>(p >> 48),
                                        p & ((std::uint64_t{1} << 48) - 1));
            }
            ns += std::chrono::duration<double, std::nano>(Clock::now() -
                                                           t0)
                      .count();
            calls += s.pages.size();
        }
        if (calls == 0)
            return 0.0;
        ns_per_call.push_back(ns / static_cast<double>(calls));
    }
    std::sort(ns_per_call.begin(), ns_per_call.end());
    return ns_per_call[ns_per_call.size() / 2];
}

} // namespace perfbench
