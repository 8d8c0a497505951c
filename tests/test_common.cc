/**
 * @file
 * Unit tests for src/common: RNG, statistics, key=value parsing,
 * event queue, inline callbacks, FIFO, fast division.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/event.hh"
#include "common/fastdiv.hh"
#include "common/fifo.hh"
#include "common/inline_function.hh"
#include "common/key_value.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

using namespace profess;

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(64));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(9), 3u);
    EXPECT_EQ(ceilLog2(9), 4u);
    EXPECT_EQ(ceilLog2(8), 3u);
}

TEST(Rng, Deterministic)
{
    Rng a(42, 7), b(42, 7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, StreamsIndependent)
{
    Rng a(42, 1), b(42, 2);
    int same = 0;
    for (int i = 0; i < 1000; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BelowBounds)
{
    Rng r(1);
    for (std::uint32_t bound : {1u, 2u, 3u, 7u, 1000u}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(r.below(bound), bound);
    }
}

TEST(Rng, Below64Bounds)
{
    Rng r(2);
    std::uint64_t bound = 1ull << 40;
    for (int i = 0; i < 200; ++i)
        EXPECT_LT(r.below64(bound), bound);
}

TEST(Rng, BoundedDrawMatchesBelow)
{
    const std::uint32_t bounds[] = {1u,   2u,      3u,
                                    4u,   7u,      64u,
                                    448u, 1u << 31, 0xffffffffu};
    for (std::uint32_t b : bounds) {
        BoundedDraw d(b);
        EXPECT_EQ(d.bound(), b);
        Rng x(77, b), y(77, b);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(x.below(d), y.below(b)) << b;
        // Same raw draws consumed, rejections included.
        EXPECT_EQ(x.next(), y.next()) << b;
    }
}

TEST(Rng, Below64DrawsHighWordFirst)
{
    const std::uint64_t bound = (1ull << 40) + 12345;
    Rng pinned(5);
    EXPECT_EQ(pinned.below64(bound), 0xc2fc0cc8c6ull);
    Rng r(6), words(6);
    for (int i = 0; i < 100; ++i) {
        std::uint64_t hi = words.next();
        std::uint64_t lo = words.next();
        ASSERT_EQ(r.below64(bound), ((hi << 32) | lo) % bound);
    }
}

TEST(Rng, GeometricDrawMatchesClosedForm)
{
    for (double p : {1.0, 0.999, 0.5, 0.25, 1.0 / 31.0}) {
        GeometricDraw g(p);
        Rng x(9), ref(9);
        for (int i = 0; i < 2000; ++i) {
            std::uint64_t want = 0;
            if (p < 1.0) {
                double u = ref.uniform();
                if (u <= 0.0)
                    u = 1e-12;
                double v = std::log(u) / std::log(1.0 - p);
                want = v < 0 ? 0 : static_cast<std::uint64_t>(v);
            }
            ASSERT_EQ(x.geometric(g), want) << p;
        }
        EXPECT_EQ(x.next(), ref.next()) << p;
    }
}

TEST(Rng, UniformRange)
{
    Rng r(3);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, GeometricMean)
{
    Rng r(4);
    double p = 0.25;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.geometric(p));
    // Mean of failures-before-success is (1-p)/p = 3.
    EXPECT_NEAR(sum / n, 3.0, 0.15);
}

TEST(RunningStat, MeanAndStddev)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
}

TEST(ExpSmoother, FirstSamplePrimes)
{
    ExpSmoother e(0.125);
    EXPECT_FALSE(e.primed());
    EXPECT_DOUBLE_EQ(e.add(10.0), 10.0);
    EXPECT_TRUE(e.primed());
    // 10 + 0.125 * (18 - 10) = 11
    EXPECT_DOUBLE_EQ(e.add(18.0), 11.0);
}

TEST(ExpSmoother, ConvergesToConstant)
{
    ExpSmoother e(0.125);
    for (int i = 0; i < 200; ++i)
        e.add(42.0);
    EXPECT_NEAR(e.value(), 42.0, 1e-9);
}

TEST(Histogram, BucketsAndQuantiles)
{
    Histogram h(10.0, 10);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<double>(i));
    EXPECT_EQ(h.summary().count(), 100u);
    EXPECT_EQ(h.bucket(0), 10u);
    EXPECT_NEAR(h.quantile(0.5), 60.0, 10.0);
    // Overflow bucket.
    h.add(1e9);
    EXPECT_EQ(h.bucket(h.numBuckets() - 1), 1u);
}

TEST(BoxSummary, KnownSeries)
{
    BoxSummary s = boxSummary({1, 2, 3, 4, 5});
    EXPECT_DOUBLE_EQ(s.min, 1);
    EXPECT_DOUBLE_EQ(s.max, 5);
    EXPECT_DOUBLE_EQ(s.median, 3);
    EXPECT_DOUBLE_EQ(s.q1, 2);
    EXPECT_DOUBLE_EQ(s.q3, 4);
    EXPECT_NEAR(s.gmean, std::pow(120.0, 0.2), 1e-9);
}

TEST(BoxSummary, Empty)
{
    BoxSummary s = boxSummary({});
    EXPECT_EQ(s.n, 0u);
}

TEST(GeometricMeanFn, Basic)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_EQ(geometricMean({}), 0.0);
}

TEST(KeyValue, TypedParseTakesWholeTokensThatFit)
{
    std::uint64_t u = 0;
    EXPECT_TRUE(parseValue("9007199254740993", u));
    EXPECT_EQ(u, 9007199254740993ull); // not rounded through double
    EXPECT_TRUE(parseValue("18446744073709551615", u));
    EXPECT_EQ(u, ~0ull);
    unsigned narrow = 7;
    EXPECT_TRUE(parseValue("4294967295", narrow));
    EXPECT_FALSE(parseValue("4294967296", narrow));
    EXPECT_EQ(narrow, 4294967295u);
    int i = 0;
    EXPECT_TRUE(parseValue("-1", i));
    EXPECT_EQ(i, -1);
    // Octal-looking spellings are rejected, not read as decimal.
    for (const char *bad : {"010", "00", "-01", "0x10"})
        EXPECT_FALSE(parseValue(bad, i)) << bad;
    EXPECT_TRUE(parseValue("0", i));
    double d = 0.0;
    EXPECT_TRUE(parseValue("0.5", d));
    EXPECT_EQ(d, 0.5);
    EXPECT_TRUE(parseValue("2e6", d));
    EXPECT_EQ(d, 2e6);
    EXPECT_FALSE(parseValue("0.5x", d));
    EXPECT_FALSE(parseValue("", d));
}

TEST(KeyValue, BoolsAreZeroOrOne)
{
    bool b = false;
    EXPECT_TRUE(parseValue("1", b));
    EXPECT_TRUE(b);
    EXPECT_TRUE(parseValue("0", b));
    EXPECT_FALSE(b);
    for (const char *bad : {"true", "yes", "on", "2", "", "01"})
        EXPECT_FALSE(parseValue(bad, b)) << bad;
}

TEST(KeyValueDeathTest, MalformedIntegerIsFatal)
{
    // The parser behind every integer knob (instr=) and
    // profess_sweep --max-runs.
    for (const char *bad :
         {"2e6", "12abc", "", "-1", "010", "18446744073709551616"}) {
        KeyValue kv{"instr", bad, "command line"};
        EXPECT_DEATH(valueAs<std::uint64_t>(kv),
                     "command line: bad value '.*' for "
                     "'instr' \\(needs a non-negative integer")
            << bad;
    }
}

TEST(EventQueue, OrderedExecution)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&]() { order.push_back(3); });
    eq.schedule(10, [&]() { order.push_back(1); });
    eq.schedule(20, [&]() { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i]() { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&]() {
        ++fired;
        eq.scheduleIn(5, [&]() { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 6u);
}

TEST(EventQueue, RunUntil)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&]() { ++fired; });
    eq.schedule(20, [&]() { ++fired; });
    eq.runUntil(15);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.nextTick(), 20u);
    eq.runUntil(100);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, StopPredicate)
{
    EventQueue eq;
    int fired = 0;
    for (Tick t = 1; t <= 10; ++t)
        eq.schedule(t, [&]() { ++fired; });
    eq.run([&]() { return fired == 3; });
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eq.size(), 7u);
}

TEST(EventQueue, EmptyBehaviour)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTick(), tickNever);
    EXPECT_FALSE(eq.runOne());
}

namespace
{

/** Counts live instances so tests can check destruction. */
struct Tracked
{
    explicit Tracked(int *live) : live_(live) { ++*live_; }
    Tracked(const Tracked &o) : live_(o.live_) { ++*live_; }
    Tracked(Tracked &&o) noexcept : live_(o.live_) { ++*live_; }
    ~Tracked() { --*live_; }
    Tracked &operator=(const Tracked &) = delete;

    int *live_;
};

} // anonymous namespace

TEST(InlineFunction, TrivialTargetMovesByCopy)
{
    int hits = 0;
    int *p = &hits;
    auto add = [p, n = 3]() { *p += n; };
    static_assert(std::is_trivially_copyable_v<decltype(add)>);
    static_assert(InlineCallback::storedInline<decltype(add)>());
    InlineCallback a = add;
    InlineCallback b = std::move(a);
    EXPECT_FALSE(a); // moved-from is empty
    ASSERT_TRUE(b);
    b();
    EXPECT_EQ(hits, 3);
    InlineCallback c;
    c = std::move(b);
    EXPECT_FALSE(b);
    c();
    EXPECT_EQ(hits, 6);
    c.reset();
    EXPECT_FALSE(c);
    c = add; // reusable after reset
    c();
    EXPECT_EQ(hits, 9);
}

TEST(InlineFunction, NonTrivialCaptureDestroyedExactlyOnce)
{
    int live = 0;
    int calls = 0;
    {
        InlineCallback a = [t = Tracked(&live), &calls]() {
            ++calls;
        };
        EXPECT_EQ(live, 1);
        InlineCallback b = std::move(a);
        EXPECT_EQ(live, 1); // the move destroyed the source capture
        EXPECT_FALSE(a);
        b();
        InlineCallback c;
        c = std::move(b);
        EXPECT_EQ(live, 1);
        c();
        EXPECT_EQ(calls, 2);
        c = nullptr;
        EXPECT_EQ(live, 0);
        c = [t = Tracked(&live)]() {};
        EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0);
}

TEST(InlineFunction, HeapTargetWorks)
{
    int live = 0;
    long sum = 0;
    {
        // 64 bytes of capture: past the 48-byte buffer.
        std::array<long, 8> big{1, 2, 3, 4, 5, 6, 7, 8};
        auto fn = [big, t = Tracked(&live), &sum]() {
            for (long v : big)
                sum += v;
        };
        static_assert(!InlineCallback::storedInline<decltype(fn)>());
        InlineCallback a = std::move(fn);
        InlineCallback b = std::move(a);
        EXPECT_FALSE(a);
        b();
        EXPECT_EQ(sum, 36);
        EXPECT_EQ(live, 2); // fn's moved-from copy and the heap one
    }
    EXPECT_EQ(live, 0);
}

TEST(InlineFunction, EventQueueRunsEveryKind)
{
    int live = 0;
    std::vector<int> order;
    std::array<long, 8> big{};
    {
        EventQueue eq;
        eq.schedule(3, [&order]() { order.push_back(3); });
        eq.schedule(1, [&order, t = Tracked(&live)]() {
            order.push_back(1);
        });
        eq.schedule(2, [&order, big]() {
            order.push_back(2 + static_cast<int>(big[0]));
        });
        EXPECT_EQ(live, 1);
        eq.run();
        EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
        EXPECT_EQ(live, 0); // run callbacks are destroyed
        eq.schedule(10, [t = Tracked(&live)]() {});
        EXPECT_EQ(live, 1);
    }
    EXPECT_EQ(live, 0); // so are pending ones, with the queue
}

TEST(Fifo, WrapsGrowsInFlightAndKeepsOrder)
{
    Fifo<std::unique_ptr<int>> q; // move-only, like InlineCallback
    int next = 0, expect = 0;
    auto pop = [&]() {
        ASSERT_FALSE(q.empty());
        EXPECT_EQ(*q.pop(), expect++);
    };
    // Wrap around the first ring: the head walks past its end.
    for (int round = 0; round < 6; ++round) {
        q.push(std::make_unique<int>(next++));
        q.push(std::make_unique<int>(next++));
        pop();
        pop();
    }
    EXPECT_EQ(q.capacity(), 4u);
    // Fill it with the head mid-ring, then grow twice while
    // elements are in flight.
    q.push(std::make_unique<int>(next++));
    pop();
    for (int i = 0; i < 11; ++i)
        q.push(std::make_unique<int>(next++));
    EXPECT_EQ(q.capacity(), 16u);
    EXPECT_EQ(q.size(), 11u);
    EXPECT_EQ(*q[0], expect);
    EXPECT_EQ(*q[10], expect + 10);
    while (!q.empty())
        pop();
    EXPECT_EQ(expect, next);
    // The storage stays: refilling to the old depth does not grow.
    for (int i = 0; i < 16; ++i)
        q.push(std::make_unique<int>(next++));
    EXPECT_EQ(q.capacity(), 16u);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.capacity(), 16u);
}

TEST(FastDivMod, MatchesHardwareDivision)
{
    const std::uint32_t divisors[] = {1u,          2u,
                                      3u,          448u,
                                      1472u,       1u << 31,
                                      0xffffffffu};
    Rng rng(2024, 5);
    for (std::uint32_t d : divisors) {
        FastDivMod f(d);
        EXPECT_EQ(f.divisor(), d);
        std::vector<std::uint32_t> ns = {0u,
                                         1u,
                                         2u,
                                         d - 1,
                                         d,
                                         d + 1,
                                         2 * d - 1,
                                         2 * d,
                                         0x7fffffffu,
                                         0x80000000u,
                                         0xfffffffeu,
                                         0xffffffffu};
        for (int i = 0; i < 20000; ++i)
            ns.push_back(rng.next());
        for (std::uint32_t n : ns) {
            ASSERT_EQ(f.div(n), n / d) << n << " / " << d;
            ASSERT_EQ(f.mod(n), n % d) << n << " % " << d;
        }
    }
}
