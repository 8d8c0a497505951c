/**
 * @file
 * Unit tests for src/common: RNG, statistics, key=value parsing,
 * event queue.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "common/event.hh"
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
    // The parser behind every integer knob, PROFESS_INSTR and
    // profess_sweep --max-runs.
    for (const char *bad :
         {"2e6", "12abc", "", "-1", "18446744073709551616"}) {
        KeyValue kv{"PROFESS_INSTR", bad, "environment"};
        EXPECT_DEATH(valueAs<std::uint64_t>(kv),
                     "environment: bad value '.*' for "
                     "'PROFESS_INSTR' \\(needs a non-negative integer")
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
