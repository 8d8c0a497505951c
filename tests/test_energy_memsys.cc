/**
 * @file
 * Tests for the energy model and the multi-channel memory-system
 * aggregation (Sec. 4.3's energy-efficiency metric inputs).
 */

#include <gtest/gtest.h>

#include "common/event.hh"
#include "mem/energy.hh"
#include "mem/memory_system.hh"

using namespace profess;
using namespace profess::mem;

TEST(EnergyAccount, DynamicEnergySums)
{
    EnergyParams p;
    p.m1ActNj = 2.0;
    p.m1ReadNj = 5.0;
    p.m1WriteNj = 6.0;
    p.m2ActNj = 4.0;
    p.m2ReadNj = 8.0;
    p.m2WriteNj = 40.0;
    EnergyAccount a(p);
    a.addActivate(false);
    a.addActivate(true);
    a.addRead(false);
    a.addRead(true);
    a.addWrite(true);
    EXPECT_DOUBLE_EQ(a.dynamicNj(), 2 + 4 + 5 + 8 + 40);
}

TEST(EnergyAccount, BackgroundDominatesWhenIdle)
{
    EnergyParams p;
    p.m1BackgroundW = 0.3;
    p.m2BackgroundW = 0.1;
    EnergyAccount a(p);
    // One second idle: 0.4 J of background, no dynamic.
    EXPECT_DOUBLE_EQ(a.totalJoules(1.0), 0.4);
    EXPECT_DOUBLE_EQ(a.averageWatts(2.0), 0.4);
    EXPECT_DOUBLE_EQ(a.averageWatts(0.0), 0.0);
}

TEST(EnergyAccount, NvmWritesCostMost)
{
    EnergyParams p; // defaults
    EnergyAccount a(p);
    a.addWrite(true);
    double m2w = a.dynamicNj();
    EnergyAccount b(p);
    b.addWrite(false);
    b.addRead(true);
    b.addRead(false);
    // One NVM write outweighs a DRAM write plus both reads.
    EXPECT_GT(m2w, b.dynamicNj());
}

namespace
{

struct MemSysFixture : public ::testing::Test
{
    EventQueue eq;
    MemorySystemConfig cfg;
    std::unique_ptr<MemorySystem> sys;

    void
    SetUp() override
    {
        cfg.numChannels = 2;
        cfg.m1BytesPerChannel = 1 * MiB;
        cfg.m2BytesPerChannel = 8 * MiB;
        sys = std::make_unique<MemorySystem>(eq, cfg);
    }

    void
    read(unsigned channel, Module m, Addr a)
    {
        auto r = std::make_unique<Request>();
        r->module = m;
        r->addr = a;
        sys->channel(channel).push(std::move(r));
    }
};

} // anonymous namespace

TEST_F(MemSysFixture, ChannelsAreIndependent)
{
    read(0, Module::M1, 0);
    read(1, Module::M2, 0);
    eq.run();
    EXPECT_EQ(sys->channel(0).stats().counter("demand_reads"), 1u);
    EXPECT_EQ(sys->channel(1).stats().counter("demand_reads"), 1u);
    EXPECT_EQ(sys->totalCounter("demand_reads"), 2u);
    EXPECT_EQ(sys->totalCounter("m1_accesses"), 1u);
    EXPECT_EQ(sys->totalCounter("m2_accesses"), 1u);
}

TEST_F(MemSysFixture, TotalJoulesAggregates)
{
    read(0, Module::M1, 0);
    read(1, Module::M1, 0);
    eq.run();
    double one = sys->channel(0).energy().totalJoules(1e-3);
    EXPECT_NEAR(sys->totalJoules(1e-3), 2 * one, 1e-12);
    EXPECT_NEAR(sys->averageWatts(1e-3),
                sys->totalJoules(1e-3) / 1e-3, 1e-9);
}

TEST_F(MemSysFixture, MeanReadLatencyWeighted)
{
    // Channel 0 serves two M1 reads (fast), channel 1 one M2 read
    // (slow): the mean must sit between, closer to the M1 value.
    read(0, Module::M1, 0);
    read(0, Module::M1, 64);
    read(1, Module::M2, 0);
    eq.run();
    double m1 = sys->channel(0).readLatency().mean();
    double m2 = sys->channel(1).readLatency().mean();
    double mean = sys->meanReadLatency();
    EXPECT_GT(mean, m1);
    EXPECT_LT(mean, m2);
    EXPECT_NEAR(mean, (2 * m1 + m2) / 3.0, 1e-9);
}

TEST_F(MemSysFixture, ConfigValidated)
{
    MemorySystemConfig bad;
    bad.numChannels = 0;
    EXPECT_EXIT(MemorySystem(eq, bad),
                ::testing::ExitedWithCode(1), "channel");
}

TEST_F(MemSysFixture, RequestCompleteTickMonotone)
{
    // Completion ticks never precede enqueue ticks, and demand
    // latency statistics only cover reads.
    Tick enq = 0, done = 0;
    auto r = std::make_unique<Request>();
    r->module = Module::M2;
    r->addr = 4096;
    r->onComplete = [&, req = r.get()]() {
        enq = req->enqueueTick;
        done = req->completeTick;
    };
    sys->channel(0).push(std::move(r));
    eq.run();
    EXPECT_GT(done, enq);
    EXPECT_EQ(sys->channel(0).readLatency().count(), 1u);
}
