/**
 * @file
 * Tests for the trace-driven core model: compute-bound IPC, MSHR and
 * ROB limits, warm-up/quota measurement, repetition, posted writes.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/event.hh"
#include "common/rng.hh"
#include "cpu/core_model.hh"
#include "trace/access.hh"

using namespace profess;
using namespace profess::cpu;

namespace
{

/** Scripted trace: fixed gap, fixed rd/wr mix, round-robin lines. */
class ScriptedSource : public trace::TraceSource
{
  public:
    ScriptedSource(std::uint32_t gap, double write_every = 0,
                   std::uint64_t limit = 0)
        : gap_(gap), writeEvery_(write_every), limit_(limit)
    {
    }

    bool
    next(trace::MemAccess &out) override
    {
        if (limit_ && produced_ >= limit_)
            return false;
        ++produced_;
        out.vaddr = (produced_ % 1024) * 64;
        out.instGap = gap_;
        out.isWrite = writeEvery_ > 0 &&
                      (produced_ % static_cast<std::uint64_t>(
                                       writeEvery_)) == 0;
        return true;
    }

    std::uint64_t footprintBytes() const override
    {
        return 1024 * 64;
    }

    void reset() override { produced_ = 0; }

    std::uint64_t produced_ = 0;

  private:
    std::uint32_t gap_;
    double writeEvery_;
    std::uint64_t limit_;
};

/** Memory port answering reads after a fixed delay. */
class FixedLatencyPort : public MemPort
{
  public:
    FixedLatencyPort(EventQueue &eq, Cycles latency)
        : eq_(eq), latency_(latency)
    {
    }

    void
    issue(ProgramId, Addr, bool is_write,
          InlineCallback done) override
    {
        if (is_write) {
            ++writes_;
            return;
        }
        ++reads_;
        ++outstanding_;
        maxOutstanding_ = std::max(maxOutstanding_, outstanding_);
        eq_.scheduleIn(latency_,
                       [this, cb = std::move(done)]() mutable {
                           --outstanding_;
                           if (cb)
                               cb();
                       });
    }

    EventQueue &eq_;
    Cycles latency_;
    unsigned outstanding_ = 0;
    unsigned maxOutstanding_ = 0;
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
};

CoreParams
fastParams(std::uint64_t quota, std::uint64_t warmup = 0)
{
    CoreParams p;
    p.instrQuota = quota;
    p.warmupInstr = warmup;
    return p;
}

} // anonymous namespace

TEST(CoreModel, ComputeBoundIpcEqualsWidth)
{
    EventQueue eq;
    // Huge gaps: memory latency negligible -> IPC ~ width.
    ScriptedSource src(10000);
    FixedLatencyPort port(eq, 1);
    CoreModel core(eq, fastParams(200000), src, port, 0);
    core.start();
    eq.run([&]() { return core.quotaReached(); });
    ASSERT_TRUE(core.quotaReached());
    EXPECT_NEAR(core.ipcAtQuota(), 4.0, 0.05);
}

TEST(CoreModel, MemoryBoundIpcReflectsLatency)
{
    EventQueue eq;
    // gap 0: every instruction is a read; latency 100 ticks with 16
    // MSHRs -> ~16 reads per 100 ticks = 0.04 instr/core-cycle.
    ScriptedSource src(0);
    FixedLatencyPort port(eq, 100);
    CoreParams p = fastParams(20000);
    p.robSize = 10000; // not the limiter here
    CoreModel core(eq, p, src, port, 0);
    core.start();
    eq.run([&]() { return core.quotaReached(); });
    ASSERT_TRUE(core.quotaReached());
    double expect = 16.0 / (100.0 * 4.0);
    EXPECT_NEAR(core.ipcAtQuota(), expect, expect * 0.2);
    EXPECT_LE(port.maxOutstanding_, 16u);
}

TEST(CoreModel, RobLimitsRunAhead)
{
    EventQueue eq;
    // gap 63: one read per 64 instructions; ROB 256 allows ~4
    // outstanding despite 16 MSHRs.
    ScriptedSource src(63);
    FixedLatencyPort port(eq, 10000);
    CoreParams p = fastParams(100000);
    CoreModel core(eq, p, src, port, 0);
    core.start();
    eq.runUntil(50000);
    EXPECT_LE(port.maxOutstanding_, 256u / 64u + 1);
    EXPECT_GE(port.maxOutstanding_, 256u / 64u - 1);
    core.halt();
    eq.run();
}

TEST(CoreModel, MshrLimitRespected)
{
    EventQueue eq;
    ScriptedSource src(0);
    FixedLatencyPort port(eq, 5000);
    CoreParams p = fastParams(100000);
    p.robSize = 100000;
    p.maxOutstanding = 5;
    CoreModel core(eq, p, src, port, 0);
    core.start();
    eq.runUntil(20000);
    EXPECT_LE(port.maxOutstanding_, 5u);
    EXPECT_EQ(port.maxOutstanding_, 5u);
    core.halt();
    eq.run();
}

TEST(CoreModel, WritesArePosted)
{
    EventQueue eq;
    // All writes (writeEvery = 1): never blocks on memory.
    ScriptedSource src(0, 1.0);
    FixedLatencyPort port(eq, 100000);
    CoreModel core(eq, fastParams(10000), src, port, 0);
    core.start();
    eq.run([&]() { return core.quotaReached(); });
    ASSERT_TRUE(core.quotaReached());
    EXPECT_GT(port.writes_, 0u);
    EXPECT_EQ(port.reads_, 0u);
    // Posted writes: IPC near width even with huge memory latency.
    EXPECT_NEAR(core.ipcAtQuota(), 4.0, 0.1);
}

TEST(CoreModel, WarmupExcludedFromIpc)
{
    EventQueue eq;
    ScriptedSource src(10000);
    FixedLatencyPort port(eq, 1);
    CoreModel core(eq, fastParams(50000, 30000), src, port, 0);
    bool warm = false;
    core.setOnWarmup([&]() { warm = true; });
    core.start();
    eq.run([&]() { return core.quotaReached(); });
    ASSERT_TRUE(warm);
    ASSERT_TRUE(core.quotaReached());
    EXPECT_TRUE(core.warmupDone());
    // Quota counts only post-warm-up instructions.
    EXPECT_GE(core.retired(), 80000u);
    EXPECT_NEAR(core.ipcAtQuota(), 4.0, 0.05);
}

TEST(CoreModel, QuotaCallbackFiresOnce)
{
    EventQueue eq;
    ScriptedSource src(100);
    FixedLatencyPort port(eq, 1);
    CoreModel core(eq, fastParams(5000), src, port, 0);
    int fired = 0;
    core.setOnQuota([&]() { ++fired; });
    core.start();
    eq.runUntil(2000000);
    EXPECT_EQ(fired, 1);
    core.halt();
    eq.run();
}

TEST(CoreModel, FiniteTraceRepeats)
{
    EventQueue eq;
    ScriptedSource src(10, 0, 1000); // ends after 1000 accesses
    FixedLatencyPort port(eq, 1);
    CoreModel core(eq, fastParams(100000), src, port, 0);
    core.start();
    eq.run([&]() { return core.quotaReached(); });
    ASSERT_TRUE(core.quotaReached());
    EXPECT_GE(core.repetitions(), 8u);
}

TEST(CoreModel, HaltStopsIssuing)
{
    EventQueue eq;
    ScriptedSource src(0);
    FixedLatencyPort port(eq, 10);
    CoreModel core(eq, fastParams(1000000), src, port, 0);
    core.start();
    eq.runUntil(1000);
    std::uint64_t reads = port.reads_;
    core.halt();
    eq.run();
    // A few in-flight completions, but no new reads.
    EXPECT_LE(port.reads_, reads + 1);
}

TEST(CoreModel, DeterministicTiming)
{
    auto run_once = []() {
        EventQueue eq;
        ScriptedSource src(7);
        FixedLatencyPort port(eq, 55);
        CoreModel core(eq, fastParams(30000), src, port, 0);
        core.start();
        eq.run([&]() { return core.quotaReached(); });
        return core.quotaTick();
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(CoreFrontier, MatchesPlainDivision)
{
    // The divide-free frontier against the 64-bit divides it
    // replaces, for odd and power-of-two widths and clock ratios,
    // gaps up to 2^32 - 1 and stall resyncs.
    const unsigned widths[] = {1, 2, 3, 4, 5, 7, 8, 0xffffffffu};
    const unsigned ratios[] = {1, 2, 3, 4, 5, 0xffffffffu};
    Rng rng(31);
    for (unsigned w : widths) {
        for (unsigned cpt : ratios) {
            CoreFrontier f(w, cpt);
            std::uint64_t cycles = 0, debt = 0;
            Tick now = 0;
            for (int i = 0; i < 3000; ++i) {
                std::uint32_t gap;
                switch (rng.below(4)) {
                case 0:
                    gap = rng.below(3);
                    break;
                case 1:
                    gap = rng.below(200);
                    break;
                case 2:
                    gap = rng.next();
                    break;
                default:
                    gap = 0xffffffffu - rng.below(2);
                    break;
                }
                debt += std::uint64_t{gap} + 1;
                cycles += debt / w;
                debt %= w;
                f.charge(gap);
                if (rng.below(8) == 0) {
                    // A stall ending at or one tick past the issue
                    // tick; either can move the frontier.
                    now = ceilDiv(cycles, cpt) + rng.below(2);
                    if (cycles < now * cpt)
                        cycles = now * cpt;
                    f.syncTo(now);
                }
                ASSERT_EQ(f.cycles(), cycles) << w << " " << cpt;
                ASSERT_EQ(f.issueTick(), ceilDiv(cycles, cpt))
                    << w << " " << cpt;
            }
        }
    }
}
