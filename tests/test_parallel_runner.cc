/**
 * @file
 * Tests for the parallel experiment runner: the fan-out of
 * forEach, deterministic per-job seed derivation, the shared
 * stand-alone reference cache, and — centrally — the differential
 * guarantee that `--jobs 1` and `--jobs N` produce bit-identical
 * RunResult/MultiMetrics under every policy.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/invariant.hh"
#include "common/key_value.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
quickQuad()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 120000;
    c.core.warmupInstr = 60000;
    return c;
}

SystemConfig
quickSingle()
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
    return c;
}

/** A writable argv for the parsers that compact it in place. */
struct Argv
{
    std::vector<std::string> args;
    std::vector<char *> ptrs;
    int argc;

    Argv(std::initializer_list<const char *> list)
        : args(list.begin(), list.end()),
          argc(static_cast<int>(args.size()))
    {
        for (std::string &a : args)
            ptrs.push_back(a.data());
        ptrs.push_back(nullptr);
    }

    char **argv() { return ptrs.data(); }
};

/** @return ParallelRunner::jobsFromArgs over `args`. */
unsigned
jobsOf(std::initializer_list<const char *> args)
{
    Argv a(args);
    return ParallelRunner::jobsFromArgs(a.argc, a.argv());
}

/** @return RunOptions::fromArgs over `args`. */
RunOptions
optionsOf(std::initializer_list<const char *> args)
{
    Argv a(args);
    return RunOptions::fromArgs(a.argc, a.argv());
}

/** Every field of a RunResult must match bit-for-bit. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.programs, b.programs);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "ipc[" << i << "]";
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.servedM1, b.servedM1);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.joules, b.joules);
    EXPECT_EQ(a.watts, b.watts);
    EXPECT_EQ(a.servedTotal, b.servedTotal);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.stcHitRate, b.stcHitRate);
    EXPECT_EQ(a.meanReadLatencyNs, b.meanReadLatencyNs);
    EXPECT_EQ(a.m1Fraction, b.m1Fraction);
    EXPECT_EQ(a.swapFraction, b.swapFraction);
    EXPECT_EQ(a.rowHitRate, b.rowHitRate);
    EXPECT_EQ(a.m2WriteFraction, b.m2WriteFraction);
    EXPECT_EQ(a.completed, b.completed);
}

void
expectIdentical(const MultiMetrics &a, const MultiMetrics &b)
{
    expectIdentical(a.run, b.run);
    ASSERT_EQ(a.aloneIpc.size(), b.aloneIpc.size());
    for (std::size_t i = 0; i < a.aloneIpc.size(); ++i)
        EXPECT_EQ(a.aloneIpc[i], b.aloneIpc[i]);
    ASSERT_EQ(a.slowdown.size(), b.slowdown.size());
    for (std::size_t i = 0; i < a.slowdown.size(); ++i)
        EXPECT_EQ(a.slowdown[i], b.slowdown[i]);
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown);
    EXPECT_EQ(a.efficiency, b.efficiency);
}

} // anonymous namespace

TEST(DeriveSeed, PureAndSensitiveToEveryInput)
{
    std::uint64_t s = deriveSeed(1, "pom", "w01", 0);
    EXPECT_EQ(s, deriveSeed(1, "pom", "w01", 0));
    EXPECT_NE(s, deriveSeed(2, "pom", "w01", 0));
    EXPECT_NE(s, deriveSeed(1, "mdm", "w01", 0));
    EXPECT_NE(s, deriveSeed(1, "pom", "w02", 0));
    EXPECT_NE(s, deriveSeed(1, "pom", "w01", 1));
    EXPECT_NE(s, 0u);
}

TEST(ConfigFingerprint, DistinguishesSweepPoints)
{
    // Every knob, set through key=value to a value its default is
    // not, must show in configJson and move the fingerprint.
    const SystemConfig a = SystemConfig::singleCore();
    const std::string json = configJson(a);
    unsigned knobs = 0;
    forEachKnob(a, [&](const char *name, auto v) {
        ++knobs;
        std::string text;
        if constexpr (std::is_same_v<decltype(v), bool>)
            text = v ? "0" : "1";
        else
            text = std::to_string(v * 2 + 1);
        SystemConfig b = a;
        applyKnob(b, KeyValue{name, text, "test"});
        EXPECT_NE(json.find("\"" + std::string(name) + "\": "),
                  std::string::npos)
            << name;
        EXPECT_NE(configJson(b), json) << name;
        EXPECT_NE(configFingerprint(b, 1.0), configFingerprint(a, 1.0))
            << name;
    });
    EXPECT_EQ(knobs, 23u);
    EXPECT_EQ(configFingerprint(a, 1.0),
              configFingerprint(SystemConfig::singleCore(), 1.0));
    EXPECT_NE(configFingerprint(a, 1.0),
              configFingerprint(a, 0.5));
}

TEST(ConfigFingerprint, PinnedPresets)
{
    // Values of the hand-written fingerprint the knob table
    // replaced: cache keys, run identities and seeds must not move.
    EXPECT_EQ(configFingerprint(SystemConfig::quadCore(),
                                trace::defaultScale),
              0x8f316e2e4018473cull);
    EXPECT_EQ(configFingerprint(SystemConfig::singleCore(),
                                trace::defaultScale),
              0x4c2d155b49be1c7dull);
}

TEST(AloneCache, ComputesOnceAndDedupsConcurrentRequests)
{
    AloneIpcCache cache;
    std::atomic<int> computes{0};
    ParallelRunner(8).forEach(32, [&cache, &computes](std::size_t) {
        double v = cache.getOrCompute("k", [&computes]() {
            ++computes;
            return 42.0;
        });
        EXPECT_EQ(v, 42.0);
    });
    EXPECT_EQ(computes.load(), 1);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
}

TEST(Jobs, EnvAndArgsParsing)
{
    // The command line is the one way to set the worker count: the
    // environment is not read, not even a malformed value.
    ::setenv("PROFESS_JOBS", "abc", 1);
    EXPECT_EQ(jobsOf({"bench"}), ParallelRunner::defaultJobs());
    ::unsetenv("PROFESS_JOBS");
    EXPECT_GE(ParallelRunner::defaultJobs(), 1u);
    // Every spelling is applied and stripped; other arguments stay.
    Argv a1{"bench", "--jobs", "3", "--keep"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(a1.argc, a1.argv()), 3u);
    ASSERT_EQ(a1.argc, 2);
    EXPECT_STREQ(a1.argv()[1], "--keep");
    EXPECT_EQ(a1.argv()[2], nullptr);
    Argv a2{"bench", "--jobs=7"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(a2.argc, a2.argv()), 7u);
    EXPECT_EQ(a2.argc, 1);
    Argv a3{"bench", "-j", "2"};
    EXPECT_EQ(ParallelRunner::jobsFromArgs(a3.argc, a3.argv()), 2u);
    EXPECT_EQ(a3.argc, 1);

    // Octal, hex, junk and zero are fatal, never misread as a
    // worker count.
    for (const char *bad : {"010", "0x3", "abc", "4x"}) {
        EXPECT_EXIT(jobsOf({"bench", "--jobs", bad}),
                    ::testing::ExitedWithCode(1),
                    "command line: bad value '" + std::string(bad) +
                        "' for '--jobs'")
            << bad;
    }
    EXPECT_EXIT(jobsOf({"bench", "--jobs=0"}),
                ::testing::ExitedWithCode(1),
                "command line: '--jobs' must be at least 1");
    EXPECT_EXIT(jobsOf({"bench", "-j"}), ::testing::ExitedWithCode(1),
                "-j needs a value");
}

TEST(RunOptions, FromArgsAppliesAndStripsSharedFlags)
{
    std::string scenario =
        ::testing::TempDir() + "/profess_run_options.scenario";
    std::FILE *f = std::fopen(scenario.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("at=1000 kind=write_spike duration=5000 scale=4.0\n", f);
    std::fclose(f);
    ScenarioSchedule want;
    want.writeSpike(1000, 5000, 4.0);

    // Flags are applied and stripped; unrelated arguments survive.
    Argv a{"bench",         "--trace",          "--telemetry-out",
           "/tmp/x",        "--jobs",           "4",
           "--epoch-ticks=123", "--metrics-out", "/tmp/m.prom",
           "--scenario",    scenario.c_str()};
    RunOptions o = RunOptions::fromArgs(a.argc, a.argv());
    EXPECT_TRUE(o.telemetry.trace);
    EXPECT_EQ(o.telemetry.outDir, "/tmp/x");
    EXPECT_EQ(o.telemetry.epochInterval, 123u);
    EXPECT_EQ(o.telemetry.metricsOut, "/tmp/m.prom");
    EXPECT_TRUE(o.scenario.loaded());
    EXPECT_EQ(o.scenario.file, scenario);
    EXPECT_EQ(o.scenario.fingerprint(), want.fingerprint());
    ASSERT_EQ(a.argc, 3);
    EXPECT_STREQ(a.argv()[1], "--jobs");
    EXPECT_STREQ(a.argv()[2], "4");
    EXPECT_EQ(a.argv()[3], nullptr);

    // The = spelling, alone, also enables telemetry.
    RunOptions eq = optionsOf({"bench", "--metrics-out=/tmp/n.prom"});
    EXPECT_EQ(eq.telemetry.metricsOut, "/tmp/n.prom");
    EXPECT_TRUE(eq.telemetry.enabled());
    EXPECT_FALSE(eq.scenario.loaded());

    // Defaults: everything off.
    RunOptions none = optionsOf({"bench"});
    EXPECT_FALSE(none.telemetry.enabled());
    EXPECT_FALSE(none.scenario.loaded());
    EXPECT_EQ(none.telemetry.epochInterval, 25000u);
    std::remove(scenario.c_str());
}

TEST(RunOptions, MissingValueOrBadPeriodIsFatal)
{
    // A valued flag at the end of argv has no value to take; left
    // in place, a figure binary would run without it.
    for (const char *flag : {"--telemetry-out", "--epoch-ticks",
                             "--metrics-out", "--scenario"}) {
        EXPECT_EXIT(optionsOf({"bench", flag}),
                    ::testing::ExitedWithCode(1),
                    std::string(flag) + " needs a value")
            << flag;
    }
    for (const char *bad : {"0x10", "1e4", "-5", "010"}) {
        EXPECT_EXIT(optionsOf({"bench", "--epoch-ticks", bad}),
                    ::testing::ExitedWithCode(1),
                    "bad value '" + std::string(bad) +
                        "' for '--epoch-ticks'")
            << bad;
    }
    EXPECT_EXIT(optionsOf({"bench", "--epoch-ticks=0"}),
                ::testing::ExitedWithCode(1),
                "'--epoch-ticks' must be positive");
}

/**
 * The tentpole guarantee: a mixed batch (multi-program mixes under
 * Pom, Mdm and ProFess, plus a single-program sweep job) produces
 * bit-identical metrics serially (--jobs 1) and with 8 workers.
 */
TEST(Differential, SerialVsParallelBitIdentical)
{
    std::vector<RunJob> batch;
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);
    for (const char *policy : {"pom", "mdm", "profess"}) {
        batch.push_back(multiJob(quickQuad(), policy, *w01));
        batch.push_back(multiJob(quickQuad(), policy, *w05));
    }
    // A sweep-style single-program job with a distinct config.
    SystemConfig sweep = quickSingle();
    sweep.m2WriteScale = 2.0;
    batch.push_back(singleJob(sweep, "mdm", "mcf", 2));

    // Each runner owns a fresh cache: the reference runs themselves
    // must be reproduced identically, not shared via memoization.
    ParallelRunner serial(1);
    serial.setProgress(false);
    ParallelRunner parallel(8);
    parallel.setProgress(false);

    std::vector<MultiMetrics> a = serial.run(batch);
    std::vector<MultiMetrics> b = parallel.run(batch);
    ASSERT_EQ(a.size(), batch.size());
    ASSERT_EQ(b.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i) + " (" +
                     batch[i].policy + "/" + batch[i].label + ")");
        EXPECT_TRUE(a[i].run.completed);
        expectIdentical(a[i], b[i]);
    }

    // And a second parallel execution is stable against schedule
    // jitter (completion order differs run to run).
    std::vector<MultiMetrics> c = parallel.run(batch);
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(b[i], c[i]);
}

TEST(Differential, JobSeedIndependentOfBatchPosition)
{
    // Reordering a batch must not change any job's result.
    const WorkloadSpec *w02 = findWorkload("w02");
    ASSERT_NE(w02, nullptr);
    RunJob jm = multiJob(quickQuad(), "mdm", *w02);
    RunJob jp = multiJob(quickQuad(), "pom", *w02);

    ParallelRunner r1(2), r2(2);
    r1.setProgress(false);
    r2.setProgress(false);
    std::vector<MultiMetrics> ab = r1.run({jm, jp});
    std::vector<MultiMetrics> ba = r2.run({jp, jm});
    expectIdentical(ab[0], ba[1]);
    expectIdentical(ab[1], ba[0]);
}

TEST(ParallelRunner, SharedCacheSkipsDuplicateReferenceRuns)
{
    // Two mixes sharing programs under one policy: the cache must
    // end up with one entry per distinct (policy, program) pair.
    const WorkloadSpec *w01 = findWorkload("w01");
    ASSERT_NE(w01, nullptr);
    ParallelRunner runner(4);
    runner.setProgress(false);
    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "pom", *w01),
        multiJob(quickQuad(), "pom", *w01, /*sweep_point=*/1),
    };
    std::vector<MultiMetrics> r = runner.run(batch);
    std::size_t distinct = 0;
    {
        std::vector<std::string> seen;
        for (const char *p : w01->programs) {
            std::string s(p);
            bool dup = false;
            for (const auto &q : seen)
                dup = dup || q == s;
            if (!dup) {
                seen.push_back(s);
                ++distinct;
            }
        }
    }
    EXPECT_EQ(runner.cache().size(), distinct);
    // Both sweep points see identical reference IPCs...
    for (std::size_t i = 0; i < r[0].aloneIpc.size(); ++i)
        EXPECT_EQ(r[0].aloneIpc[i], r[1].aloneIpc[i]);
    // ...but distinct mix seeds (sweepPoint differs).
    EXPECT_NE(deriveSeed(1, "pom", "w01", 0),
              deriveSeed(1, "pom", "w01", 1));
}

TEST(ParallelRunner, ForEachCoversAllIndices)
{
    // Every index runs exactly once, whether there are fewer
    // indices than workers, none at all, or many more.
    ParallelRunner runner(8);
    for (std::size_t n : {0, 1, 3, 64}) {
        std::vector<std::atomic<int>> hits(n);
        runner.forEach(n, [&hits](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }

    // No more bodies than workers ever run at once: the calling
    // thread is one of the `jobs` workers, never an extra one.
    for (unsigned jobs : {1u, 2u, 4u}) {
        std::atomic<unsigned> running{0};
        std::atomic<unsigned> peak{0};
        ParallelRunner(jobs).forEach(32, [&](std::size_t) {
            unsigned now = ++running;
            unsigned seen = peak.load();
            while (now > seen && !peak.compare_exchange_weak(seen, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            --running;
        });
        EXPECT_LE(peak.load(), jobs) << "jobs=" << jobs;
    }

    // A failing body reaches the caller, after every thread joined.
    EXPECT_THROW(runner.forEach(64,
                                [](std::size_t i) {
                                    if (i == 5)
                                        throw std::runtime_error("job");
                                }),
                 std::runtime_error);
}

TEST(ParallelRunner, PerWorkerQueueAuditUnderJobs)
{
    // Satellite of the scenario PR: the EventQueue extraction-order
    // audit must hold on every parallel worker's private queue, not
    // just the serial path.  Run under TSan in ci.sh stage 1: the
    // concurrent audit bookkeeping (audit::checksRun() is a relaxed
    // atomic) must be race-free across workers.
    std::uint64_t audits_before = audit::checksRun();
    ParallelRunner runner(8);
    runner.setProgress(false);
    std::atomic<unsigned> audited{0};
    runner.forEach(8, [&audited](std::size_t i) {
        SystemConfig c = SystemConfig::singleCore();
        c.core.instrQuota = 30000;
        c.core.warmupInstr = 10000;
        std::vector<std::unique_ptr<trace::TraceSource>> src;
        src.push_back(trace::makeSpecSource(
            "mcf", trace::defaultScale, 3 + i));
        System sys(c, "pom", std::move(src));
        ASSERT_TRUE(sys.run());
        sys.eventQueue().auditInvariants();
        ++audited;
    });
    EXPECT_EQ(audited.load(), 8u);
    EXPECT_GT(audit::checksRun(), audits_before);
}
