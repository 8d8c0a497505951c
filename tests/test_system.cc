/**
 * @file
 * End-to-end system tests: every policy runs a small workload to
 * completion, results are deterministic, fitting footprints migrate
 * into M1, and the experiment harness computes the Sec. 4.3 metrics
 * correctly.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/metrics.hh"
#include "sim/system.hh"
#include "sim/workloads.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
quickSingle(std::uint64_t quota = 150000)
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = quota;
    c.core.warmupInstr = 50000;
    return c;
}

} // anonymous namespace

class PolicySweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PolicySweep, RunsToCompletion)
{
    ExperimentRunner runner(quickSingle());
    RunResult r = runner.run(GetParam(), {"soplex"});
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_LT(r.ipc[0], 4.0);
    EXPECT_GT(r.servedTotal, 0u);
    EXPECT_GT(r.seconds, 0.0);
    EXPECT_GT(r.watts, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, PolicySweep,
                         ::testing::ValuesIn(policyNames()));

TEST(System, Deterministic)
{
    auto once = []() {
        ExperimentRunner runner(quickSingle());
        return runner.run("profess", {"soplex"}, 17).ipc[0];
    };
    EXPECT_DOUBLE_EQ(once(), once());
}

TEST(System, SeedChangesResultSlightly)
{
    ExperimentRunner runner(quickSingle());
    double a = runner.run("pom", {"soplex"}, 1).ipc[0];
    double b = runner.run("pom", {"soplex"}, 2).ipc[0];
    EXPECT_NE(a, b);
    EXPECT_NEAR(a, b, 0.3 * a);
}

TEST(System, FittingFootprintMigratesIntoM1)
{
    // libquantum (scaled 0.32 MB) fits in M1 entirely: under an
    // aggressive policy nearly all post-warm-up traffic must be
    // served from M1; without migration only ~1/9 can be.
    SystemConfig c = quickSingle(400000);
    ExperimentRunner runner(c);
    RunResult moving = runner.run("cameo", {"libquantum"});
    RunResult fixed = runner.run("never", {"libquantum"});
    EXPECT_GT(moving.m1Fraction, 0.9);
    EXPECT_LT(fixed.m1Fraction, 0.3);
    EXPECT_GT(moving.ipc[0], fixed.ipc[0]);
}

TEST(System, NeverPolicyNeverSwaps)
{
    ExperimentRunner runner(quickSingle());
    RunResult r = runner.run("never", {"mcf"});
    EXPECT_EQ(r.swaps, 0u);
    EXPECT_EQ(r.swapFraction, 0.0);
}

TEST(System, AlwaysSwapsMoreThanPom)
{
    ExperimentRunner runner(quickSingle());
    RunResult always = runner.run("always", {"soplex"});
    RunResult pom = runner.run("pom", {"soplex"});
    EXPECT_GT(always.swaps, pom.swaps);
}

TEST(System, MultiProgramQuadRuns)
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
    ExperimentRunner runner(c);
    const WorkloadSpec *w = findWorkload("w16");
    ASSERT_NE(w, nullptr);
    MultiMetrics m = runner.runMulti("profess", *w);
    EXPECT_TRUE(m.run.completed);
    ASSERT_EQ(m.slowdown.size(), 4u);
    for (double s : m.slowdown)
        EXPECT_GE(s, 0.8); // contention slows programs down
    EXPECT_GT(m.weightedSpeedup, 0.0);
    EXPECT_LE(m.weightedSpeedup, 4.0);
    EXPECT_GE(m.maxSlowdown, 1.0);
    EXPECT_GT(m.efficiency, 0.0);
}

TEST(System, CapacityRatioConfigurations)
{
    // 1:4 and 1:16 ratios build and run (Sec. 5.2 sensitivity).
    for (unsigned slots : {5u, 17u}) {
        SystemConfig c = quickSingle(80000);
        c.slotsPerGroup = slots;
        if (slots == 5)
            c.m1BytesPerChannel = 2 * MiB; // M1 doubles for 1:4
        ExperimentRunner runner(c);
        RunResult r = runner.run("mdm", {"omnetpp"});
        EXPECT_TRUE(r.completed) << slots;
    }
}

TEST(System, WriteLatencySensitivityChangesTiming)
{
    SystemConfig base = quickSingle(100000);
    SystemConfig slow = base;
    slow.m2WriteScale = 2.0;
    ExperimentRunner r1(base), r2(slow);
    double fast_ipc = r1.run("never", {"lbm"}).ipc[0];
    double slow_ipc = r2.run("never", {"lbm"}).ipc[0];
    EXPECT_LT(slow_ipc, fast_ipc);
}

TEST(System, AloneIpcCacheHits)
{
    ExperimentRunner runner(quickSingle());
    double a = runner.aloneIpc("pom", "zeusmp");
    double b = runner.aloneIpc("pom", "zeusmp");
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(System, FactoryConstructorMatchesNamed)
{
    // The name constructor runs the table's factory, so a System
    // built from the same factory must be the identical simulation.
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 60000;
    c.core.warmupInstr = 20000;
    auto sources = []() {
        std::vector<std::unique_ptr<trace::TraceSource>> v;
        for (const char *p : {"mcf", "lbm", "omnetpp", "zeusmp"}) {
            v.push_back(trace::makeSpecSource(
                p, trace::defaultScale, 1 + 1009 * v.size()));
        }
        return v;
    };
    System named(c, "pom", sources());
    System built(c, findPolicy("pom"), sources());
    ASSERT_TRUE(named.run());
    ASSERT_TRUE(built.run());
    EXPECT_STREQ(built.policy().name(), "pom");
    EXPECT_EQ(named.now(), built.now());
    EXPECT_EQ(named.eventQueue().executed(),
              built.eventQueue().executed());
    EXPECT_EQ(named.controller().servedTotal(),
              built.controller().servedTotal());
    EXPECT_EQ(named.controller().swapCount(),
              built.controller().swapCount());
    for (unsigned i = 0; i < named.numCores(); ++i) {
        EXPECT_EQ(named.core(i).ipcAtQuota(),
                  built.core(i).ipcAtQuota());
    }
}

TEST(SystemDeathTest, UnknownPolicyListsTheTable)
{
    EXPECT_DEATH(findPolicy("bogus"),
                 "unknown policy 'bogus' \\(known: profess, mdm, pom, "
                 "rsm-pom, mempod, cameo, silcfm, never, always, "
                 "oscoarse\\)");
}

TEST(Metrics, SlowdownAndAggregates)
{
    std::vector<double> alone = {2.0, 1.0};
    std::vector<double> contended = {1.0, 0.5};
    std::vector<double> sdn = slowdowns(alone, contended);
    EXPECT_DOUBLE_EQ(sdn[0], 2.0);
    EXPECT_DOUBLE_EQ(sdn[1], 2.0);
    EXPECT_DOUBLE_EQ(weightedSpeedup(sdn), 1.0);
    EXPECT_DOUBLE_EQ(unfairness(sdn), 2.0);
    EXPECT_DOUBLE_EQ(energyEfficiency(100, 2.0), 50.0);
}

TEST(Workloads, Table10Complete)
{
    const auto &all = multiprogramWorkloads();
    ASSERT_EQ(all.size(), 19u);
    EXPECT_STREQ(all[0].name, "w01");
    EXPECT_STREQ(all[18].name, "w19");
    // Every program of every workload is a Table 9 profile.
    for (const auto &w : all) {
        for (const char *p : w.programs)
            EXPECT_NE(trace::findProfile(p), nullptr)
                << w.name << "/" << p;
    }
    EXPECT_NE(findWorkload("w09"), nullptr);
    EXPECT_EQ(findWorkload("w99"), nullptr);
}

TEST(Workloads, W09MatchesPaper)
{
    const WorkloadSpec *w = findWorkload("w09");
    ASSERT_NE(w, nullptr);
    EXPECT_STREQ(w->programs[0], "mcf");
    EXPECT_STREQ(w->programs[1], "soplex");
    EXPECT_STREQ(w->programs[2], "lbm");
    EXPECT_STREQ(w->programs[3], "GemsFDTD");
}
