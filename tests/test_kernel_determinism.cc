/**
 * @file
 * Determinism contract of the simulation kernel.
 *
 * The event queue (common/event.hh) promises that the globally
 * minimal (when, seq) event always runs next, so same-tick events
 * keep FIFO scheduling order however far ahead they were scheduled.
 * These tests pin that contract directly (tie-breaking, far-future
 * events, long self-rescheduling chains), differentially against an
 * ordered set of (when, seq) pairs, and end to end: the golden
 * metrics must come out bit-identical through the serial (--jobs 1)
 * and threaded (--jobs 8) experiment paths.  The quick kernel
 * matrix (bench/quick_matrix.hh) pins the kernel's exact work counts
 * and every final statistic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/detsan.hh"
#include "common/event.hh"
#include "common/rng.hh"
#include "common/telemetry.hh"
#include "quick_matrix.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"

using namespace profess;
using namespace profess::sim;

// ---------------------------------------------------------------
// Event ordering.
// ---------------------------------------------------------------

TEST(EventOrder, SameTickFifoBySeq)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 64; ++i)
        eq.schedule(100, [&order, i]() { order.push_back(i); });
    eq.run();
    ASSERT_EQ(order.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    EXPECT_EQ(eq.now(), 100u);
}

TEST(EventOrder, TickOrderBeatsInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    // Insert out of tick order, including same-tick pairs.
    const Tick ticks[] = {50, 10, 50, 10, 30, 0};
    for (int i = 0; i < 6; ++i) {
        eq.schedule(ticks[i],
                    [&order, i]() { order.push_back(i); });
    }
    eq.run();
    // Sorted by (tick, insertion seq): t0:5, t10:1,3, t30:4, t50:0,2
    std::vector<int> expect{5, 1, 3, 4, 0, 2};
    EXPECT_EQ(order, expect);
}

TEST(EventOrder, FarEventsRunAfterNearOnes)
{
    EventQueue eq;
    std::vector<int> order;
    // Far ahead (periodic policy events live this far out) ...
    for (int i = 0; i < 8; ++i) {
        eq.schedule(1000000 + 10 * i,
                    [&order, i]() { order.push_back(i); });
    }
    // ... scheduled before near ones.
    for (int i = 8; i < 12; ++i) {
        eq.schedule(static_cast<Tick>(i),
                    [&order, i]() { order.push_back(i); });
    }
    EXPECT_EQ(eq.size(), 12u);
    EXPECT_EQ(eq.nextTick(), 8u);
    eq.run();
    // Near events first, then the far events in tick order.
    std::vector<int> expect{8, 9, 10, 11, 0, 1, 2, 3, 4, 5, 6, 7};
    EXPECT_EQ(order, expect);
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.peakSize(), 12u);
}

TEST(EventOrder, FarSameTickKeepsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i) {
        eq.schedule(500000,
                    [&order, i]() { order.push_back(i); });
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventOrder, SelfReschedulingChain)
{
    // A self-rescheduling event that runs far past its start; time
    // must advance strictly monotonically.
    EventQueue eq;
    int fired = 0;
    Tick last = 0;
    std::function<void()> impl = [&]() {
        EXPECT_GE(eq.now(), last);
        last = eq.now();
        if (++fired < 200)
            eq.scheduleIn(1777, [&impl]() { impl(); });
    };
    eq.schedule(0, [&impl]() { impl(); });
    eq.run();
    EXPECT_EQ(fired, 200);
    EXPECT_EQ(eq.now(), 199u * 1777u);
    EXPECT_EQ(eq.peakSize(), 1u);
}

TEST(EventOrder, MixedDelaysGlobalOrdering)
{
    // Pseudo-random ticks, most of them more than 16384 ahead;
    // execution order must be globally nondecreasing in time with
    // now() == when.
    EventQueue eq;
    std::uint64_t lcg = 99;
    std::vector<Tick> fireTicks;
    for (int i = 0; i < 500; ++i) {
        lcg = lcg * 6364136223846793005ull +
              1442695040888963407ull;
        Tick when = (lcg >> 33) % 40000;
        eq.schedule(when, [&eq, &fireTicks]() {
            fireTicks.push_back(eq.now());
        });
    }
    eq.run();
    ASSERT_EQ(fireTicks.size(), 500u);
    for (std::size_t i = 1; i < fireTicks.size(); ++i)
        EXPECT_LE(fireTicks[i - 1], fireTicks[i]);
}

TEST(EventOrder, RunUntilAdvancesToLimitWhenDrained)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&fired]() { ++fired; });
    EXPECT_EQ(eq.runUntil(5), 0u);
    EXPECT_EQ(eq.now(), 0u); // pending event: clock holds
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 100u); // drained: clock moves to the limit
}

namespace
{

/**
 * Drives an EventQueue and a reference std::set of (when, seq)
 * pairs with the same seeded schedule, and checks every extraction
 * against the set's minimum.  Events schedule more events from
 * inside their callbacks.
 */
class OrderOracle
{
  public:
    explicit OrderOracle(std::uint64_t seed) : rng_(seed, 17) {}

    /** Schedule one event at `when` in both queues. */
    void
    add(Tick when)
    {
        std::uint64_t seq = nextSeq_++;
        ref_.emplace(when, seq);
        eq_.schedule(when, [this, when, seq]() { fire(when, seq); });
    }

    /** A delay mix: same tick, near, within 16384, far beyond. */
    Tick
    delay()
    {
        std::uint32_t r = rng_.below(100);
        if (r < 30)
            return 0;
        if (r < 70)
            return rng_.below(64);
        if (r < 90)
            return rng_.below(16384);
        return 16384 + rng_.below(200000);
    }

    /** Schedule a burst of 1-24 events at one tick. */
    void
    burst()
    {
        Tick when = eq_.now() + delay();
        unsigned n = 1 + rng_.below(24);
        for (unsigned i = 0; i < n; ++i)
            add(when);
    }

    void
    fire(Tick when, std::uint64_t seq)
    {
        ASSERT_FALSE(ref_.empty());
        EXPECT_EQ(*ref_.begin(), std::make_pair(when, seq));
        EXPECT_EQ(eq_.now(), when);
        ref_.erase(ref_.begin());
        ++fired_;
        if (nextSeq_ >= cap)
            return;
        unsigned kids = rng_.below(3);
        for (unsigned i = 0; i < kids; ++i)
            add(eq_.now() + delay());
        if (rng_.below(16) == 0)
            burst();
    }

    /** Queue and reference agree on size and next tick. */
    void
    checkAgree() const
    {
        ASSERT_EQ(eq_.size(), ref_.size());
        EXPECT_EQ(eq_.nextTick(),
                  ref_.empty() ? tickNever : ref_.begin()->first);
        eq_.auditInvariants();
    }

    static constexpr std::uint64_t cap = 20000;

    Rng rng_;
    EventQueue eq_;
    std::set<std::pair<Tick, std::uint64_t>> ref_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t fired_ = 0;
};

} // anonymous namespace

TEST(EventOrder, DifferentialAgainstOrderedSet)
{
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        OrderOracle o(seed);
        for (int i = 0; i < 100; ++i)
            o.burst();
        o.checkAgree();
        std::size_t most_pending = o.ref_.size();
        while (!o.ref_.empty()) {
            if (o.rng_.below(2) == 0) {
                Tick before = o.eq_.now();
                Tick limit = before + o.rng_.below(5000);
                o.eq_.runUntil(limit);
                if (o.ref_.empty())
                    EXPECT_EQ(o.eq_.now(), limit);
                else
                    EXPECT_GT(o.ref_.begin()->first, limit);
            } else {
                EXPECT_TRUE(o.eq_.runOne());
            }
            o.checkAgree();
            most_pending = std::max(most_pending, o.ref_.size());
        }
        EXPECT_FALSE(o.eq_.runOne());
        EXPECT_EQ(o.fired_, o.nextSeq_) << "seed " << seed;
        EXPECT_EQ(o.eq_.executed(), o.nextSeq_);
        EXPECT_GE(o.nextSeq_, OrderOracle::cap);
        EXPECT_GE(o.eq_.peakSize(), most_pending);
    }
}

// ---------------------------------------------------------------
// Differential golden run: serial vs threaded experiment paths.
//
// Seeds are pinned to 1 (the ExperimentRunner default), so the
// integer counters below are the same goldens pinned in
// test_golden_metrics.cc; any kernel-ordering change shows up as
// a counter drift here before it shows up in a figure.
// ---------------------------------------------------------------

namespace
{

std::vector<RunJob>
goldenBatch()
{
    SystemConfig cfg = SystemConfig::singleCore();
    cfg.core.instrQuota = 150000;
    cfg.core.warmupInstr = 50000;
    std::vector<RunJob> batch;
    for (const char *policy : {"pom", "mdm", "profess"}) {
        RunJob j = singleJob(cfg, policy, "mcf");
        j.seed = 1; // pin to the ExperimentRunner default
        batch.push_back(j);
    }
    return batch;
}

} // anonymous namespace

TEST(KernelDeterminism, GoldenMetricsSerialAndThreaded)
{
    std::vector<RunJob> batch = goldenBatch();

    ParallelRunner serial(1);
    serial.setProgress(false);
    std::vector<MultiMetrics> r1 = serial.run(batch);

    ParallelRunner threaded(8);
    threaded.setProgress(false);
    std::vector<MultiMetrics> r8 = threaded.run(batch);

    ASSERT_EQ(r1.size(), 3u);
    ASSERT_EQ(r8.size(), 3u);

    // Serial results must equal the pinned goldens ...
    EXPECT_EQ(r1[0].run.servedTotal, 9085u);
    EXPECT_EQ(r1[0].run.swaps, 323u);
    EXPECT_NEAR(r1[0].run.ipc[0], 0.061480317103094567, 1e-12);
    EXPECT_NEAR(r1[0].run.m1Fraction, 0.29730324711062189, 1e-12);
    EXPECT_EQ(r1[1].run.servedTotal, 9085u);
    EXPECT_EQ(r1[1].run.swaps, 29u);
    EXPECT_NEAR(r1[1].run.ipc[0], 0.079062858010098852, 1e-12);
    EXPECT_EQ(r1[2].run.swaps, 29u);
    EXPECT_NEAR(r1[2].run.ipc[0], 0.079062858010098852, 1e-12);

    // ... and the threaded run must be bit-identical to serial.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(r1[i].run.servedTotal, r8[i].run.servedTotal);
        EXPECT_EQ(r1[i].run.swaps, r8[i].run.swaps);
        ASSERT_EQ(r1[i].run.ipc.size(), r8[i].run.ipc.size());
        EXPECT_EQ(r1[i].run.ipc[0], r8[i].run.ipc[0]);
        EXPECT_EQ(r1[i].run.m1Fraction, r8[i].run.m1Fraction);
        EXPECT_EQ(r1[i].run.stcHitRate, r8[i].run.stcHitRate);
        EXPECT_EQ(r1[i].run.meanReadLatencyNs,
                  r8[i].run.meanReadLatencyNs);
        EXPECT_EQ(r1[i].run.joules, r8[i].run.joules);
    }
}

// ---------------------------------------------------------------
// The quick kernel matrix, pinned exactly.
//
// Work counts are deterministic, so they are gated exactly where
// host time cannot be: a change to what the kernel does (another
// scheduler pick, one more event, a higher pool high-water mark)
// fails here even when every simulated result stays the same.
// With telemetry attached, the digest of the final registry covers
// every statistic, and the named series say which layer moved.
// ---------------------------------------------------------------

namespace
{

struct QuickPin
{
    const char *label;
    // The bare run's work.
    std::uint64_t accesses, swaps, events, schedCalls, peakEvents,
        requestPoolNodes, pendingPoolNodes;
    // The telemetry-attached run's final registry.
    std::uint64_t registryDigest;
    double stcHits, stFills, ch0RowHits, translations;
};

const QuickPin quickPins[] = {
    {"single_mcf_pom", 7361, 304, 16088, 14694, 7, 54, 19,
     0xbff0c7815640aaa7ull, 4289, 1970, 6827, 7361},
    {"single_mcf_mdm", 7226, 17, 15519, 13087, 7, 58, 20,
     0x86635e652272348bull, 4284, 1927, 6604, 7226},
    {"single_mcf_profess", 7133, 14, 15425, 13082, 7, 53, 21,
     0xaadbc27dadcc0f7full, 4129, 1972, 6594, 7133},
    {"quad_w01_pom", 12060, 794, 22333, 23436, 13, 104, 62,
     0x478c216974f67cb2ull, 9656, 1607, 4456, 12063},
    {"quad_w01_mdm", 11715, 1, 21046, 16732, 13, 109, 37,
     0x74b1ecc7791ad84bull, 9500, 1544, 4099, 11731},
    {"quad_w01_profess", 12009, 1, 21563, 17215, 13, 106, 48,
     0x148c0bcecb88cc97ull, 9672, 1602, 4335, 12048},
};

} // anonymous namespace

TEST(KernelDeterminism, QuickMatrixWorkAndRegistryPinned)
{
    ASSERT_EQ(std::size(bench::quickMatrix), std::size(quickPins));
    for (std::size_t i = 0; i < std::size(quickPins); ++i) {
        const bench::QuickRun &r = bench::quickMatrix[i];
        const QuickPin &pin = quickPins[i];
        SCOPED_TRACE(pin.label);
        ASSERT_EQ(r.label(), pin.label);

        std::unique_ptr<System> bare = r.build();
        bare->run();
        std::uint64_t sched_calls = 0;
        for (unsigned c = 0; c < bare->memory().numChannels(); ++c)
            sched_calls += bare->memory().channel(c).schedulerCalls();
        EXPECT_EQ(bare->controller().servedTotal(), pin.accesses);
        EXPECT_EQ(bare->controller().swapCount(), pin.swaps);
        EXPECT_EQ(bare->eventQueue().executed(), pin.events);
        EXPECT_EQ(sched_calls, pin.schedCalls);
        EXPECT_EQ(bare->eventQueue().peakSize(), pin.peakEvents);
        EXPECT_EQ(bare->controller().requestPoolNodes(),
                  pin.requestPoolNodes);
        EXPECT_EQ(bare->controller().pendingPoolNodes(),
                  pin.pendingPoolNodes);

        std::unique_ptr<System> sys = r.build();
        RunTelemetry telemetry(TelemetryConfig{}, r.label());
        sys->attachTelemetry(telemetry);
        sys->run();
        const telemetry::StatRegistry &reg = telemetry.registry();
        EXPECT_EQ(reg.value("hybrid.stc.hits"), pin.stcHits);
        EXPECT_EQ(reg.value("hybrid.st_fills"), pin.stFills);
        EXPECT_EQ(reg.value("mem.ch0.row_hits"), pin.ch0RowHits);
        EXPECT_EQ(reg.value("os.alloc.translations"), pin.translations);
        EXPECT_EQ(detsan::registryDigest(reg), pin.registryDigest);
    }
}
