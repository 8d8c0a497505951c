/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot
 * components: STC lookups, channel scheduling, pattern generation,
 * MDM decisions, and whole-system simulation throughput.
 */

#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <memory>

#include "common/event.hh"
#include "core/mdm.hh"
#include "hybrid/stc.hh"
#include "mem/channel.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "trace/spec_profiles.hh"

using namespace profess;

namespace
{

void
BM_StcLookup(benchmark::State &state)
{
    hybrid::StCache stc(hybrid::StCache::Params{2 * KiB, 8, 8});
    std::uint8_t qac[hybrid::maxSlots] = {};
    hybrid::StcEviction ev;
    for (std::uint64_t g = 0; g < 256; ++g)
        stc.insert(g, qac, ev);
    std::uint64_t g = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stc.find(g));
        g = (g + 17) % 512;
    }
}
BENCHMARK(BM_StcLookup);

void
BM_ChannelRead(benchmark::State &state)
{
    EventQueue eq;
    mem::ModuleGeometry g1 = mem::ModuleGeometry::withCapacity(MiB);
    mem::ModuleGeometry g2 =
        mem::ModuleGeometry::withCapacity(8 * MiB);
    mem::Channel ch(eq, mem::m1Timing(), mem::m2Timing(), g1, g2);
    Addr a = 0;
    for (auto _ : state) {
        auto r = std::make_unique<mem::Request>();
        r->module = mem::Module::M2;
        r->addr = a;
        ch.push(std::move(r));
        eq.run();
        a = (a + 8 * KiB) % g2.capacity();
    }
}
BENCHMARK(BM_ChannelRead);

void
BM_PatternGeneration(benchmark::State &state)
{
    auto src = trace::makeSpecSource("soplex", trace::defaultScale,
                                     1);
    trace::MemAccess a;
    for (auto _ : state) {
        src->next(a);
        benchmark::DoNotOptimize(a.vaddr);
    }
}
BENCHMARK(BM_PatternGeneration);

void
BM_MdmDecision(benchmark::State &state)
{
    core::Mdm::Params p;
    p.numPrograms = 4;
    core::Mdm mdm(p);
    for (int i = 0; i < 3000; ++i)
        mdm.recordEviction(0, 3, 40);
    hybrid::StcMeta meta{};
    std::memset(meta.ac, 0, sizeof(meta.ac));
    meta.qacAtInsert[2] = 3;
    meta.ac[2] = 5;
    meta.ac[0] = 10;
    policy::AccessInfo info{};
    info.slot = 2;
    info.m1Slot = 0;
    info.accessor = 0;
    info.m1Owner = 1;
    info.meta = &meta;
    for (auto _ : state)
        benchmark::DoNotOptimize(mdm.decide(info, false));
}
BENCHMARK(BM_MdmDecision);

void
BM_EventQueue(benchmark::State &state)
{
    for (auto _ : state) {
        EventQueue eq;
        int sink = 0;
        for (Tick t = 0; t < 1000; ++t)
            eq.schedule(t * 7 % 997, [&sink]() { ++sink; });
        eq.run();
        benchmark::DoNotOptimize(sink);
    }
}
BENCHMARK(BM_EventQueue);

void
BM_EventQueueModelShape(benchmark::State &state)
{
    // The simulator's pending set (about 13 keys, EventQueue::
    // peakSize() in the quad-core runs): four core wake-ups 1-3
    // ticks ahead, eight memory completions 10-60 ticks ahead and
    // one far periodic sweep.  Each event schedules its successor,
    // so one iteration is one pop and one insert; the time is ns
    // per event.
    struct Shape
    {
        EventQueue eq;
        std::uint64_t lcg = 12345;

        Cycles
        draw(Cycles lo, Cycles span)
        {
            lcg = lcg * 6364136223846793005ull +
                  1442695040888963407ull;
            return lo + (((lcg >> 32) * span) >> 32);
        }
        void core() { eq.scheduleIn(draw(1, 3), [this]() { core(); }); }
        void
        completion()
        {
            eq.scheduleIn(draw(10, 51), [this]() { completion(); });
        }
        void periodic() { eq.scheduleIn(100000, [this]() { periodic(); }); }
    };
    Shape s;
    for (int i = 0; i < 4; ++i)
        s.core();
    for (int i = 0; i < 8; ++i)
        s.completion();
    s.periodic();
    for (auto _ : state)
        s.eq.runOne();
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_EventQueueModelShape);

void
BM_EventQueueSteadyState(benchmark::State &state)
{
    // Hold `range(0)` events pending and measure one pop + one
    // schedule per iteration, at uniform delays of 1-8000 ticks.
    // Inserts are O(pending): the deep cases show where the sorted
    // key array stops paying off, far beyond the model's depth.
    const std::uint64_t pending =
        static_cast<std::uint64_t>(state.range(0));
    EventQueue eq;
    std::uint64_t sink = 0;
    std::uint64_t lcg = 12345;
    auto delay = [&lcg]() {
        lcg = lcg * 6364136223846793005ull +
              1442695040888963407ull;
        return static_cast<Cycles>(1 + (lcg >> 33) % 8000);
    };
    for (std::uint64_t i = 0; i < pending; ++i)
        eq.scheduleIn(delay(), [&sink]() { ++sink; });
    for (auto _ : state) {
        eq.runOne();
        eq.scheduleIn(delay(), [&sink]() { ++sink; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_EventQueueSteadyState)->Arg(13)->Arg(100)->Arg(1000);

template <std::size_t Bytes>
void
eventQueueCaptureBench(benchmark::State &state)
{
    // Schedule+run 1000 events whose lambdas capture `Bytes` of
    // payload plus a reference.  40 B of capture stays inside the
    // InlineCallback buffer (48 B); 104 B spills to the heap path.
    // At most 8 events are pending, as in the model, so the time is
    // the callbacks' and not an O(pending) insert into a deep queue.
    std::array<std::uint64_t, Bytes / 8> payload{};
    payload[0] = 1;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        EventQueue eq;
        for (Tick t = 0; t < 1000; ++t) {
            eq.schedule(t, [payload, &sink]() { sink += payload[0]; });
            if (eq.size() == 8)
                eq.runOne();
        }
        eq.run();
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 1000);
}

void
BM_EventQueueCaptureInline(benchmark::State &state)
{
    eventQueueCaptureBench<32>(state); // +8 B ref = 40 B: inline
}
BENCHMARK(BM_EventQueueCaptureInline);

void
BM_EventQueueCaptureHeap(benchmark::State &state)
{
    eventQueueCaptureBench<96>(state); // +8 B ref = 104 B: heap
}
BENCHMARK(BM_EventQueueCaptureHeap);

void
BM_SystemThroughput(benchmark::State &state)
{
    // Whole-system simulation rate: instructions per wall second.
    std::uint64_t instr = 0;
    for (auto _ : state) {
        sim::SystemConfig cfg = sim::SystemConfig::singleCore();
        cfg.core.instrQuota = 100000;
        cfg.core.warmupInstr = 0;
        sim::ExperimentRunner runner(cfg);
        sim::RunResult r = runner.run("profess", {"soplex"});
        benchmark::DoNotOptimize(r.ipc[0]);
        instr += 100000;
    }
    state.counters["instr/s"] = benchmark::Counter(
        static_cast<double>(instr), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SystemThroughput)->Unit(benchmark::kMillisecond);

void
BM_ParallelRunnerBatch(benchmark::State &state)
{
    // Whole-batch throughput: 4 tiny single-program jobs per
    // iteration through the full RunJob/seed-derivation path.
    sim::SystemConfig cfg = sim::SystemConfig::singleCore();
    cfg.core.instrQuota = 20000;
    cfg.core.warmupInstr = 0;
    std::vector<sim::RunJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(sim::singleJob(cfg, "pom", "soplex", i));
    sim::ParallelRunner runner(
        static_cast<unsigned>(state.range(0)));
    runner.setProgress(false);
    for (auto _ : state) {
        auto res = runner.run(jobs);
        benchmark::DoNotOptimize(res[0].run.servedTotal);
    }
}
BENCHMARK(BM_ParallelRunnerBatch)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
