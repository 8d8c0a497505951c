/**
 * @file
 * Timing-model tests for one hybrid channel: bank state machine,
 * FR-FCFS-Cap scheduling, write handling, swaps, refresh, energy.
 */

#include <gtest/gtest.h>

#include <bit>
#include <memory>
#include <vector>

#include "common/event.hh"
#include "common/rng.hh"
#include "mem/channel.hh"

using namespace profess;
using namespace profess::mem;

namespace
{

struct ChannelFixture : public ::testing::Test
{
    EventQueue eq;
    TimingParams m1 = m1Timing();
    TimingParams m2 = m2Timing();
    ModuleGeometry g1 = ModuleGeometry::withCapacity(1 * MiB);
    ModuleGeometry g2 = ModuleGeometry::withCapacity(8 * MiB);
    std::unique_ptr<Channel> ch;

    void
    SetUp() override
    {
        // Disable refresh for deterministic latency checks.
        m1.tREFI = 0;
        ch = std::make_unique<Channel>(eq, m1, m2, g1, g2);
    }

    /** Push one request; returns its completion tick via out. */
    void
    push(Module m, Addr addr, bool write, Tick *done = nullptr)
    {
        auto r = std::make_unique<Request>();
        r->module = m;
        r->addr = addr;
        r->isWrite = write;
        if (done) {
            r->onComplete = [done, req = r.get()]() {
                *done = req->completeTick;
            };
        }
        ch->push(std::move(r));
    }
};

} // anonymous namespace

TEST_F(ChannelFixture, ClosedBankReadLatencyM1)
{
    Tick done = 0;
    push(Module::M1, 0, false, &done);
    eq.run();
    // Activate + CAS + burst: tRCD + tCL + tBurst.
    EXPECT_EQ(done, m1.tRCD + m1.tCL + m1.tBurst);
}

TEST_F(ChannelFixture, ClosedBankReadLatencyM2)
{
    Tick done = 0;
    push(Module::M2, 0, false, &done);
    eq.run();
    EXPECT_EQ(done, m2.tRCD + m2.tCL + m2.tBurst);
}

TEST_F(ChannelFixture, RowHitIsFast)
{
    Tick first = 0, second = 0;
    push(Module::M1, 0, false, &first);
    eq.run();
    push(Module::M1, 64, false, &second);
    eq.run();
    // Second access hits the open row: only bus + CAS.
    EXPECT_LE(second - first, m1.tCL + m1.tBurst);
}

TEST_F(ChannelFixture, RowHitCapClosesRow)
{
    // rowHitCap = 4: the 5th consecutive access to one row must
    // re-activate (the cap precharges the row).
    std::vector<Tick> done(6, 0);
    Tick prev = 0;
    for (int i = 0; i < 6; ++i) {
        push(Module::M1, static_cast<Addr>(i) * 64, false, &done[i]);
        eq.run();
    }
    // Access 0 activates; 1..3 hit; 4 pays precharge+activate again.
    Cycles gap_hit = done[2] - done[1];
    Cycles gap_reopen = done[4] - done[3];
    EXPECT_GT(gap_reopen, gap_hit);
    EXPECT_GE(gap_reopen, m1.tRCD);
    (void)prev;
}

TEST_F(ChannelFixture, RowConflictPaysPrechargeActivate)
{
    Tick a = 0, b = 0;
    push(Module::M1, 0, false, &a);
    eq.run();
    // Same bank, different row: row chunk stride is
    // rowBytes * banks.
    Addr conflict = g1.rowBytes * g1.banks;
    push(Module::M1, conflict, false, &b);
    eq.run();
    EXPECT_GE(b - a, m1.tRP + m1.tRCD);
}

TEST_F(ChannelFixture, BankParallelismOverlapsActivations)
{
    // Two closed-bank M2 reads to different banks: their long
    // activations overlap, so total time is far below 2x single.
    Tick d1 = 0, d2 = 0;
    push(Module::M2, 0, false, &d1);
    push(Module::M2, g1.rowBytes, false, &d2); // next bank
    eq.run();
    Tick serial = 2 * (m2.tRCD + m2.tCL + m2.tBurst);
    EXPECT_LT(std::max(d1, d2), serial);
}

TEST_F(ChannelFixture, WritesAreBuffered)
{
    // A single write sits in the write queue until the read queue
    // is empty, then drains.
    Tick done = 0;
    push(Module::M1, 0, true, &done);
    eq.run();
    EXPECT_GT(done, 0u);
    EXPECT_EQ(ch->writeQueueSize(), 0u);
}

TEST_F(ChannelFixture, M2PerWriteRecoveryBlocksBank)
{
    // NVM: after a write burst the bank is busy for tWR even for
    // another column access to the same row.
    Tick w = 0, r = 0;
    push(Module::M2, 0, true, &w);
    eq.run();
    push(Module::M2, 64, false, &r);
    eq.run();
    EXPECT_GE(r - w, m2.tWR);
}

TEST_F(ChannelFixture, M1SameRowWriteThenReadIsFast)
{
    // DRAM: write recovery only gates precharge, not a same-row
    // column read.
    Tick w = 0, r = 0;
    push(Module::M1, 0, true, &w);
    eq.run();
    push(Module::M1, 64, false, &r);
    eq.run();
    EXPECT_LT(r - w, m1.tWR + m1.tCL);
}

TEST_F(ChannelFixture, SwapBlocksDemand)
{
    Tick swap_done = 0, read_done = 0;
    ch->executeSwap(0, 0, 2048, [&]() { swap_done = eq.now(); });
    push(Module::M1, 64 * 1024, false, &read_done);
    eq.run();
    EXPECT_GT(swap_done, 0u);
    // The demand read waits for the whole swap.
    EXPECT_GT(read_done, swap_done);
    EXPECT_EQ(swap_done, ch->swapLatency(2048));
}

TEST_F(ChannelFixture, SwapLatencyMatchesAnalytic)
{
    EXPECT_EQ(ch->swapLatency(2048),
              swapLatencyCycles(m1, m2, 2048));
}

TEST_F(ChannelFixture, SwapsQueue)
{
    int done = 0;
    ch->executeSwap(0, 0, 2048, [&]() { ++done; });
    ch->executeSwap(2048, 2048, 2048, [&]() { ++done; });
    eq.run();
    EXPECT_EQ(done, 2);
    EXPECT_GE(eq.now(), 2 * ch->swapLatency(2048));
}

TEST_F(ChannelFixture, SlowSwapTakesTwiceAsLong)
{
    Tick fast_done = 0, slow_done = 0;
    ch->executeSwap(0, 0, 2048, [&]() { fast_done = eq.now(); });
    eq.run();
    Tick start = eq.now();
    ch->executeSwap(2048, 2048, 2048,
                    [&]() { slow_done = eq.now(); }, true);
    eq.run();
    EXPECT_EQ(fast_done, ch->swapLatency(2048));
    EXPECT_EQ(slow_done - start, 2 * ch->swapLatency(2048));
}

TEST_F(ChannelFixture, SwapEnergyAccounted)
{
    ch->executeSwap(0, 0, 2048, {});
    eq.run();
    // 32 bursts each way on each module.
    EXPECT_EQ(ch->energy().m1ReadBursts(), 32u);
    EXPECT_EQ(ch->energy().m2ReadBursts(), 32u);
    EXPECT_EQ(ch->energy().m1WriteBursts(), 32u);
    EXPECT_EQ(ch->energy().m2WriteBursts(), 32u);
    EXPECT_GE(ch->energy().m1Activates(), 1u);
    EXPECT_GE(ch->energy().m2Activates(), 1u);
}

TEST_F(ChannelFixture, DemandEnergyAndStats)
{
    Tick d = 0;
    push(Module::M1, 0, false, &d);
    push(Module::M2, 0, true, nullptr);
    eq.run();
    EXPECT_EQ(ch->energy().m1ReadBursts(), 1u);
    EXPECT_EQ(ch->energy().m2WriteBursts(), 1u);
    EXPECT_EQ(ch->stats().counter("demand_reads"), 1u);
    EXPECT_EQ(ch->stats().counter("demand_writes"), 1u);
    EXPECT_EQ(ch->readLatency().count(), 1u);
}

TEST_F(ChannelFixture, DropQueuedMidSwapStaysUsable)
{
    // Teardown drops a started swap's callback while its completion
    // event is still queued; the channel must keep running.
    bool swap_ran = false;
    ch->executeSwap(0, 0, 2048, [&]() { swap_ran = true; });
    eq.runUntil(10);
    ASSERT_TRUE(ch->swapActive());
    ch->dropQueued();
    Tick read_done = 0;
    push(Module::M1, 64 * 1024, false, &read_done);
    eq.run();
    EXPECT_FALSE(swap_ran);
    EXPECT_GT(read_done, ch->swapLatency(2048));
    EXPECT_EQ(ch->readQueueSize(), 0u);
}

TEST_F(ChannelFixture, ResetStatsClearsCounters)
{
    push(Module::M1, 0, false, nullptr);
    eq.run();
    EXPECT_GT(ch->stats().counter("demand_reads"), 0u);
    ch->resetStats();
    EXPECT_EQ(ch->stats().counter("demand_reads"), 0u);
    EXPECT_EQ(ch->readLatency().count(), 0u);
    EXPECT_EQ(ch->energy().m1ReadBursts(), 0u);
}

TEST_F(ChannelFixture, ManyRequestsAllComplete)
{
    int completed = 0;
    for (int i = 0; i < 500; ++i) {
        auto r = std::make_unique<Request>();
        r->module = i % 2 ? Module::M2 : Module::M1;
        r->addr = static_cast<Addr>(i % 64) * 64;
        r->isWrite = i % 5 == 0;
        r->onComplete = [&]() { ++completed; };
        ch->push(std::move(r));
    }
    eq.run();
    EXPECT_EQ(completed, 500);
    EXPECT_EQ(ch->readQueueSize(), 0u);
    EXPECT_EQ(ch->writeQueueSize(), 0u);
}

TEST(ChannelRefresh, RefreshDelaysAccess)
{
    EventQueue eq;
    TimingParams m1 = m1Timing(); // refresh on
    TimingParams m2 = m2Timing();
    ModuleGeometry g1 = ModuleGeometry::withCapacity(1 * MiB);
    ModuleGeometry g2 = ModuleGeometry::withCapacity(8 * MiB);
    Channel ch(eq, m1, m2, g1, g2);

    // Idle past several refresh intervals, then access: the bank
    // must wait for the latest refresh window to finish.
    eq.schedule(m1.tREFI + 1, [&]() {
        auto r = std::make_unique<Request>();
        r->module = Module::M1;
        r->addr = 0;
        ch.push(std::move(r));
    });
    eq.run();
    EXPECT_GE(ch.stats().counter("m1_refreshes"), 1u);
    // Completion after the refresh window.
    EXPECT_GE(eq.now(), m1.tREFI + m1.tRFC);
}

TEST(ChannelRefresh, BankBusyWakeDedupsAgainstRunningSwap)
{
    // A bank-busy window requested while a swap runs, and ending
    // after the swap, shares the swap's wake-up (its completion
    // event): the window's end is no scheduler entry.  So the
    // refresh boundary passed while the channel idles is applied at
    // the next push, after the statistics reset in between, and is
    // counted.
    EventQueue eq;
    TimingParams m1 = m1Timing(); // refresh on
    TimingParams m2 = m2Timing();
    ModuleGeometry g1 = ModuleGeometry::withCapacity(1 * MiB);
    ModuleGeometry g2 = ModuleGeometry::withCapacity(8 * MiB);
    Channel ch(eq, m1, m2, g1, g2);

    const Tick boundary = m1.tREFI;
    ASSERT_LT(ch.swapLatency(2048), boundary);
    ch.executeSwap(0, 0, 2048, {});
    eq.runUntil(10);
    ch.injectBankBusy(Module::M2, boundary + 50);
    eq.schedule(boundary + 100, [&]() { ch.resetStats(); });
    eq.schedule(boundary + 200, [&]() {
        auto r = std::make_unique<Request>();
        r->addr = 64 * 1024;
        ch.push(std::move(r));
    });
    eq.run();
    EXPECT_EQ(ch.stats().counter("m1_refreshes"), 1u);
}

TEST(ChannelWriteDrain, HighWatermarkTriggersDrain)
{
    EventQueue eq;
    TimingParams m1 = m1Timing();
    m1.tREFI = 0;
    TimingParams m2 = m2Timing();
    ModuleGeometry g1 = ModuleGeometry::withCapacity(1 * MiB);
    ModuleGeometry g2 = ModuleGeometry::withCapacity(8 * MiB);
    ChannelConfig cc;
    cc.writeHighMark = 8;
    cc.writeLowMark = 2;
    Channel ch(eq, m1, m2, g1, g2, EnergyParams{}, cc);

    int writes_done = 0;
    for (int i = 0; i < 16; ++i) {
        auto r = std::make_unique<Request>();
        r->module = Module::M1;
        r->addr = static_cast<Addr>(i) * 64;
        r->isWrite = true;
        r->onComplete = [&]() { ++writes_done; };
        ch.push(std::move(r));
    }
    eq.run();
    EXPECT_EQ(writes_done, 16);
}

namespace
{

/**
 * A seeded sustained request stream on one channel with refresh on.
 * Requests spread over four banks and three rows of each module, so
 * row hits, rowHitCap closes and row conflicts all occur.  Dense
 * phases push the write queue past its high mark while reads wait;
 * sparse phases let the queues drain and leave the channel idle
 * across refresh boundaries.  Fast and slow swaps, an M2 bank-busy
 * window and a statistics reset (as at the end of warm-up) fall
 * mid-stream.
 */
class SustainedStream
{
  public:
    static constexpr unsigned requests = 6000;

    explicit SustainedStream(const ChannelConfig &cc)
        : ch_(eq_, m1_, m2_, g1_, g2_, EnergyParams{}, cc)
    {
    }

    /**
     * Run the stream to completion.  @return one hash over every
     * completion tick (in completion order, swaps included), the
     * final counters, the read-latency account and the energy
     * tallies.
     */
    std::uint64_t
    run()
    {
        eq_.schedule(1, [this]() { arrive(); });
        eq_.run();
        EXPECT_EQ(completed_, requests);
        EXPECT_EQ(swapsDone_, swapsIssued_);
        for (const auto &[name, v] : ch_.stats().counters())
            hash_ = hashCombine(hashCombine(hash_, name), v);
        const EnergyAccount &e = ch_.energy();
        for (std::uint64_t v :
             {e.m1Activates(), e.m2Activates(), e.m1ReadBursts(),
              e.m2ReadBursts(), e.m1WriteBursts(), e.m2WriteBursts()})
            hash_ = hashCombine(hash_, v);
        hash_ = hashCombine(hash_, std::bit_cast<std::uint64_t>(
                                       e.dynamicNj()));
        hash_ = hashCombine(hash_, ch_.readLatency().count());
        hash_ = hashCombine(hash_, std::bit_cast<std::uint64_t>(
                                       ch_.readLatency().mean()));
        return hashCombine(hash_, eq_.now());
    }

    const StatSet &stats() const { return ch_.stats(); }

  private:
    Addr
    addr(const ModuleGeometry &g, unsigned bank, unsigned row,
         unsigned column) const
    {
        return (static_cast<Addr>(row) * g.banks + bank) * g.rowBytes +
               static_cast<Addr>(column) * 64;
    }

    void
    arrive()
    {
        unsigned burst = 1 + rng_.below(4);
        for (unsigned i = 0; i < burst && issued_ < requests; ++i)
            issue();
        if (issued_ == requests)
            return;
        // Alternate dense and sparse phases of 400 requests.
        bool dense = (issued_ / 400) % 2 == 0;
        Tick gap = dense ? rng_.below(12) : 30 + rng_.below(400);
        eq_.schedule(eq_.now() + gap, [this]() { arrive(); });
    }

    void
    issue()
    {
        unsigned id = issued_++;
        if (id == 1500)
            ch_.resetStats();
        if (id == 2500)
            ch_.injectBankBusy(Module::M2, eq_.now() + 3000);
        if (id % 700 == 350) {
            unsigned k = swapsIssued_++;
            ch_.executeSwap(
                addr(g1_, k % 4, 4 + k % 2, 32 * (k % 4)),
                addr(g2_, (k + 1) % 4, 5, 32 * (k % 4)), 2048,
                [this, k]() {
                    ++swapsDone_;
                    hash_ = hashCombine(hashCombine(hash_, k),
                                        eq_.now());
                },
                k % 2 == 1);
        }
        auto r = std::make_unique<Request>();
        bool m2 = rng_.below(5) >= 3;
        r->module = m2 ? Module::M2 : Module::M1;
        unsigned bank = rng_.below(4);
        unsigned row = rng_.below(3);
        unsigned column = rng_.below(128);
        r->addr = addr(m2 ? g2_ : g1_, bank, row, column);
        r->isWrite = rng_.below(100) < 35;
        r->onComplete = [this, id, req = r.get()]() {
            ++completed_;
            hash_ = hashCombine(hashCombine(hash_, id),
                                req->completeTick);
        };
        ch_.push(std::move(r));
    }

    EventQueue eq_;
    TimingParams m1_ = m1Timing(); // refresh on
    TimingParams m2_ = m2Timing();
    ModuleGeometry g1_ = ModuleGeometry::withCapacity(1 * MiB);
    ModuleGeometry g2_ = ModuleGeometry::withCapacity(8 * MiB);
    Channel ch_;
    Rng rng_{2024};
    std::uint64_t hash_ = mix64(0x5eedu);
    unsigned issued_ = 0;
    unsigned completed_ = 0;
    unsigned swapsIssued_ = 0;
    unsigned swapsDone_ = 0;
};

} // anonymous namespace

// The hashes pin every scheduling decision of the channel model: a
// change to a pick, a commit tick, a counter or an energy tally
// changes them.  Only a deliberate change to the timing model may
// re-pin them.
TEST(ChannelSustained, DefaultConfigIsPinned)
{
    SustainedStream s{ChannelConfig{}};
    EXPECT_EQ(s.run(), 0x70c10e65e782ef1aull);
    EXPECT_GT(s.stats().counter("row_hits"), 0u);
    EXPECT_GT(s.stats().counter("row_misses"), 0u);
    EXPECT_GT(s.stats().counter("m1_refreshes"), 0u);
    EXPECT_GT(s.stats().counter("swaps"), 0u);
}

TEST(ChannelSustained, SingleSlotShallowDrainIsPinned)
{
    ChannelConfig cc;
    cc.maxInflight = 1;
    cc.writeHighMark = 4;
    cc.writeLowMark = 1;
    SustainedStream s{cc};
    EXPECT_EQ(s.run(), 0x71989ee3cb48b9e9ull);
    EXPECT_GT(s.stats().counter("row_hits"), 0u);
    EXPECT_GT(s.stats().counter("m1_refreshes"), 0u);
}
