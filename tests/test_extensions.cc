/**
 * @file
 * Tests for the extensions beyond the paper's core evaluation:
 * multi-threaded programs (Sec. 3.1.1), the OS coarse-grain
 * baseline (Sec. 2.2 contrast), and the RSM-guided wrapper's
 * system-level integration.
 */

#include <gtest/gtest.h>

#include "core/rsm.hh"
#include "policy/os_coarse.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
quick()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 100000;
    c.core.warmupInstr = 30000;
    return c;
}

std::vector<std::unique_ptr<trace::TraceSource>>
makeSources(const std::vector<const char *> &names,
            std::uint64_t seed_base = 1)
{
    std::vector<std::unique_ptr<trace::TraceSource>> v;
    for (std::size_t i = 0; i < names.size(); ++i) {
        v.push_back(trace::makeSpecSource(
            names[i], trace::defaultScale, seed_base + 31 * i));
    }
    return v;
}

} // anonymous namespace

TEST(MultiThreaded, TwoThreadsOneProgram)
{
    // Cores 0+1 run threads of program 0; cores 2,3 are programs
    // 1,2.
    System sys(quick(), "profess",
               makeSources({"omnetpp", "omnetpp", "lbm", "milc"}),
               {0, 0, 1, 2});
    EXPECT_EQ(sys.numCores(), 4u);
    EXPECT_EQ(sys.numPrograms(), 3u);
    EXPECT_EQ(sys.programOfCore(1), 0);
    EXPECT_EQ(sys.programOfCore(3), 2);
    EXPECT_TRUE(sys.run());
    // Both threads' traffic lands on program 0's counters.
    const auto &ps = sys.controller().programStats(0);
    EXPECT_GT(ps.served, sys.controller().programStats(1).served / 4);
    // RSM sees three programs.
    core::Rsm *rsm = sys.policy().rsm();
    ASSERT_NE(rsm, nullptr);
    EXPECT_GE(rsm->periods(0), 1u);
}

TEST(MultiThreaded, ThreadsShareAddressSpace)
{
    // Two threads with identical traces touch the same frames: the
    // footprint in physical memory must not double.
    SystemConfig c = quick();
    auto sources = makeSources({"leslie3d", "leslie3d"}, 5);
    // Identical seeds -> identical virtual streams.
    sources[1] = trace::makeSpecSource("leslie3d",
                                       trace::defaultScale, 5);
    sources[0] = trace::makeSpecSource("leslie3d",
                                       trace::defaultScale, 5);
    System sys(c, "never", std::move(sources), {0, 0});
    sys.run();
    std::uint64_t pages = sys.allocator().allocatedFrames(0);
    // leslie3d scaled footprint ~0.76 MB = ~190 pages; shared, not
    // ~380.
    EXPECT_LE(pages, 220u);
}

TEST(MultiThreaded, BadMappingRejected)
{
    SystemConfig c = quick();
    auto sources = makeSources({"lbm", "milc"});
    EXPECT_EXIT(System(c, "never", std::move(sources), {0}),
                ::testing::ExitedWithCode(1), "per core");
}

TEST(OsCoarse, RunsAndMigrates)
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 200000;
    c.core.warmupInstr = 50000;
    ExperimentRunner runner(c);
    RunResult r = runner.run("oscoarse", {"libquantum"});
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.swaps, 0u); // hot pages do get promoted
}

TEST(OsCoarse, SlowerReactionThanHardware)
{
    // The paper's Sec. 2.2 argument: coarse, interval-based OS
    // management responds more slowly, catching fewer accesses in
    // M1 than hardware management for the same run.
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 300000;
    c.core.warmupInstr = 100000;
    ExperimentRunner runner(c);
    RunResult os = runner.run("oscoarse", {"libquantum"});
    RunResult hw = runner.run("cameo", {"libquantum"});
    EXPECT_LT(os.m1Fraction, hw.m1Fraction);
}

TEST(OsCoarse, ThresholdFiltersColdPages)
{
    hybrid::HybridLayout layout =
        hybrid::HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    policy::OsCoarsePolicy::Params p;
    p.hotThreshold = 10;
    p.maxPagesPerInterval = 8;
    policy::OsCoarsePolicy pol(layout, p);

    struct CountingHost : public policy::SwapHost
    {
        unsigned swaps = 0;
        bool
        requestSwap(std::uint64_t, unsigned) override
        {
            ++swaps;
            return true;
        }
        Tick hostNow() const override { return 0; }
    } host;
    pol.setHost(&host);

    hybrid::StcMeta meta{};
    policy::AccessInfo info{};
    info.meta = &meta;
    // Page of (group 0, slot 2): 9 accesses (below threshold).
    info.group = 0;
    info.slot = 2;
    for (int i = 0; i < 9; ++i)
        EXPECT_EQ(pol.onM2Access(info),
                  policy::Decision::NoSwap);
    // Page of (group 2, slot 4): 12 accesses (above threshold).
    info.group = 2;
    info.slot = 4;
    for (int i = 0; i < 12; ++i)
        pol.onM2Access(info);
    pol.onPeriodic();
    // Only the hot page's two blocks requested.
    EXPECT_EQ(host.swaps, 2u);
    EXPECT_EQ(pol.trackedPages(), 0u); // counters cleared
}

TEST(RsmGuidedSystem, RunsOnWorkload)
{
    ExperimentRunner runner(quick());
    const WorkloadSpec *w = findWorkload("w16");
    MultiMetrics m = runner.runMulti("rsm-pom", *w);
    EXPECT_TRUE(m.run.completed);
    EXPECT_GT(m.weightedSpeedup, 0.0);
}
