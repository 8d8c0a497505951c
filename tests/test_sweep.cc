/**
 * @file
 * SweepDriver tests: spec parsing and expansion, the sweep-axis
 * grid, and the crash-safety contract — an interrupted sweep
 * (cooperative preemption, a torn trailing journal record, or a
 * SIGKILL mid-sweep) resumes to byte-identical final outputs
 * (journal + merged exposition) at any worker count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/experiment.hh"
#include "sim/run_telemetry.hh"
#include "sim/sweep.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    if (f == nullptr)
        return "";
    std::string s;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        s.append(buf, n);
    std::fclose(f);
    return s;
}

std::string
tempBase(const std::string &tag)
{
    return ::testing::TempDir() + "profess_sweep_" + tag + "_" +
           std::to_string(::getpid());
}

std::string
writeSpecFile(const std::string &tag, const std::string &content)
{
    std::string path = tempBase(tag) + ".sweep";
    std::FILE *f = std::fopen(path.c_str(), "w");
    EXPECT_NE(f, nullptr);
    std::fputs(content.c_str(), f);
    std::fclose(f);
    return path;
}

/** The small grid every crash-safety test runs: 4 jobs. */
SweepSpec
smokeSpec(const std::string &tag)
{
    return SweepSpec::fromFile(writeSpecFile(
        tag, "# smoke grid\n"
             "preset=single\n"
             "policy=always,never\n"
             "workload=mcf\n"
             "seed=1,2\n"
             "instr=30000 warmup=5000\n"
             "slowdowns=1\n"));
}

/** Run `spec` to completion in a fresh directory; return outDir. */
std::string
runFull(const SweepSpec &spec, const std::string &tag, unsigned jobs)
{
    SweepDriver::Options opts;
    opts.outDir = tempBase(tag);
    opts.jobs = jobs;
    SweepDriver driver(spec, opts);
    EXPECT_TRUE(driver.run());
    EXPECT_EQ(driver.executedRuns(), driver.totalRuns());
    return opts.outDir;
}

/** Run `spec` to completion; return its records. */
std::vector<SweepRunRecord>
runRecords(const SweepSpec &spec, const std::string &tag)
{
    SweepDriver::Options opts;
    opts.outDir = tempBase(tag);
    opts.jobs = 2;
    opts.fresh = true;
    SweepDriver driver(spec, opts);
    EXPECT_TRUE(driver.run());
    return driver.records();
}

/** Two records hold the same results, whatever their names. */
void
expectSameResults(const SweepRunRecord &a, const SweepRunRecord &b)
{
    EXPECT_TRUE(a.completed);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);
    EXPECT_EQ(a.maxSlowdown, b.maxSlowdown);
    EXPECT_EQ(a.efficiency, b.efficiency);
    EXPECT_EQ(a.servedTotal, b.servedTotal);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.slowdown, b.slowdown);
    EXPECT_EQ(a.m1Fraction, b.m1Fraction);
    EXPECT_EQ(a.stcHitRate, b.stcHitRate);
    EXPECT_EQ(a.readLatencyNs, b.readLatencyNs);
}

bool
fileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

/** `text`'s lines with each run of blanks collapsed to one. */
std::vector<std::string>
squeezedLines(const std::string &text)
{
    std::vector<std::string> out(1);
    for (char c : text) {
        if (c == '\n')
            out.emplace_back();
        else if (c != ' ' || (!out.back().empty() && out.back().back() != ' '))
            out.back() += c;
    }
    for (std::string &l : out) {
        while (!l.empty() && l.back() == ' ')
            l.pop_back();
    }
    return out;
}

/** `report` has a line that reads `line`, blanks squeezed. */
bool
hasLine(const std::string &report, const std::string &line)
{
    std::vector<std::string> lines = squeezedLines(report);
    return std::find(lines.begin(), lines.end(), line) != lines.end();
}

} // anonymous namespace

TEST(SweepSpec, ParsesAndExpands)
{
    SweepSpec spec = smokeSpec("parse");
    EXPECT_EQ(spec.preset, "single");
    EXPECT_EQ(spec.policies,
              (std::vector<std::string>{"always", "never"}));
    EXPECT_EQ(spec.mixes, (std::vector<std::string>{"mcf"}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2}));
    EXPECT_TRUE(spec.slowdowns);
    EXPECT_EQ(spec.numSweepPoints(), 1u);
    EXPECT_EQ(spec.numRuns(), 4u);

    SystemConfig cfg = spec.configAt(0);
    EXPECT_EQ(cfg.core.instrQuota, 30000u);
    EXPECT_EQ(cfg.core.warmupInstr, 5000u);

    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 4u);
    // Canonical order: mix, then policy, then seed innermost.
    EXPECT_EQ(jobs[0].policy, "always");
    EXPECT_EQ(jobs[0].baseSeed, 1u);
    // The label seeds the run; the seed suffix only names it.
    EXPECT_EQ(jobs[0].label, "mcf");
    EXPECT_EQ(jobs[1].label, "mcf");
    EXPECT_EQ(jobLabel(jobs[0]), "mcf_r1");
    EXPECT_EQ(jobLabel(jobs[1]), "mcf_r2");
    EXPECT_EQ(jobs[2].policy, "never");
    // No swept axis: sweepPoint stays 0 (no "_s" label suffix).
    for (const RunJob &j : jobs) {
        EXPECT_EQ(j.sweepPoint, 0u);
        EXPECT_TRUE(j.slowdowns);
        EXPECT_EQ(j.programs, (std::vector<std::string>{"mcf"}));
    }

    // Fingerprint is stable for equal specs and sensitive to any
    // field change.
    SweepSpec again = smokeSpec("parse2");
    EXPECT_EQ(spec.fingerprint(), again.fingerprint());
    again.seeds.push_back(3);
    EXPECT_NE(spec.fingerprint(), again.fingerprint());
}

TEST(SweepSpec, SweptAxisExpandsPerPoint)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "axis", "preset=quad policy=pom workload=w01\n"
                "instr=10000 warmup=1000\n"
                "sweep=min_benefit:4,8\n"));
    EXPECT_EQ(spec.sweepKey, "min_benefit");
    EXPECT_EQ(spec.numSweepPoints(), 2u);
    EXPECT_EQ(spec.numRuns(), 2u);
    EXPECT_EQ(spec.configAt(0).minBenefit, 4u);
    EXPECT_EQ(spec.configAt(1).minBenefit, 8u);
    // Fixed overrides apply at every point.
    EXPECT_EQ(spec.configAt(1).core.instrQuota, 10000u);

    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    // Swept points number from 1 so each gets a distinct "_s<p>"
    // telemetry suffix downstream.
    EXPECT_EQ(jobs[0].sweepPoint, 1u);
    EXPECT_EQ(jobs[1].sweepPoint, 2u);
    EXPECT_EQ(jobs[0].cfg.minBenefit, 4u);
    EXPECT_EQ(jobs[1].cfg.minBenefit, 8u);
    EXPECT_EQ(jobs[0].label, "w01"); // one seed: no _r suffix
}

TEST(SweepSpec, SweptPointAtTheDefaultJournalsTheUnsweptResults)
{
    // A run's seed does not depend on its sweep point: the point at
    // the preset's min_benefit (8) is the unswept run, bit for bit.
    const std::string grid = "preset=single policy=pom,mdm workload=mcf\n"
                             "instr=30000 warmup=5000 slowdowns=1\n";
    std::vector<SweepRunRecord> plain = runRecords(
        SweepSpec::fromFile(writeSpecFile("plain", grid)), "plain");
    std::vector<SweepRunRecord> swept = runRecords(
        SweepSpec::fromFile(writeSpecFile(
            "swept", grid + "sweep=min_benefit:4,8\n")),
        "swept");
    ASSERT_EQ(plain.size(), 2u);
    ASSERT_EQ(swept.size(), 4u);
    expectSameResults(plain[0], swept[2]);
    expectSameResults(plain[1], swept[3]);
    EXPECT_EQ(swept[2].label, "mcf_s2");
}

TEST(SweepSpec, SeedOneOfSeveralEqualsSeedOneAlone)
{
    // Another seed in the grid leaves seed 1's run as it was.
    const std::string grid = "preset=quad policy=pom workload=w01\n"
                             "instr=20000 warmup=10000 slowdowns=1\n";
    std::vector<SweepRunRecord> one = runRecords(
        SweepSpec::fromFile(writeSpecFile("seed1", grid)), "seed1");
    std::vector<SweepRunRecord> two = runRecords(
        SweepSpec::fromFile(writeSpecFile("seed12", grid + "seed=1,2\n")),
        "seed12");
    ASSERT_EQ(one.size(), 1u);
    ASSERT_EQ(two.size(), 2u);
    expectSameResults(one[0], two[0]);
    EXPECT_EQ(two[0].label, "w01_r1");
}

TEST(SweepSpec, ArgumentsOverrideTheFile)
{
    // The command line's knobs win, and its lists replace the
    // file's.
    SweepSpec spec = SweepSpec::fromFile(
        writeSpecFile("args", "preset=quad policy=pom,mdm\n"
                              "workload=w01,w02 seed=3\n"
                              "instr=2000000 warmup=1000000\n"),
        {{"instr", "20000", "command line"},
         {"workload", "w09", "command line"},
         {"policy", "profess", "command line"},
         {"policy", "pom", "command line"}});
    EXPECT_EQ(spec.configAt(0).core.instrQuota, 20000u);
    EXPECT_EQ(spec.configAt(0).core.warmupInstr, 1000000u);
    EXPECT_EQ(spec.mixes, (std::vector<std::string>{"w09"}));
    EXPECT_EQ(spec.policies,
              (std::vector<std::string>{"profess", "pom"}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{3}));
}

TEST(SweepSpec, NightlyPointsKeepTheirFingerprints)
{
    SweepSpec spec = SweepSpec::fromFile(PROFESS_SOURCE_DIR
                                         "/bench/sweeps/nightly.sweep");
    ASSERT_EQ(spec.numSweepPoints(), 2u);
    EXPECT_EQ(configFingerprint(spec.configAt(0), trace::defaultScale),
              0xf42b068b92ed112cull);
    EXPECT_EQ(configFingerprint(spec.configAt(1), trace::defaultScale),
              0x3f59730a384eac0cull);
}

TEST(SweepSpec, KnobValuesParseByFieldType)
{
    // 2^53 + 1 is not a double: an integer knob must not pass
    // through one.
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "typed", "policy=pom workload=mcf\n"
                 "alloc_seed=9007199254740993\n"
                 "stc_capacity_bytes=4096 model_st_traffic=0\n"
                 "sweep=factor_threshold:1.5,2\n"));
    SystemConfig cfg = spec.configAt(1);
    EXPECT_EQ(cfg.allocSeed, 9007199254740993ull);
    EXPECT_EQ(cfg.stc.capacityBytes, 4096u);
    EXPECT_FALSE(cfg.modelStTraffic);
    EXPECT_EQ(spec.configAt(0).professFactorThreshold, 1.5);
    EXPECT_EQ(cfg.professFactorThreshold, 2.0);
}

TEST(SweepSpec, ProgramListMixResolves)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "mix", "preset=quad policy=pom workload=mcf+lbm\n"));
    std::vector<RunJob> jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].programs,
              (std::vector<std::string>{"mcf", "lbm"}));
}

TEST(SweepSpecDeathTest, RejectsMalformedSpecs)
{
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "badkey", "policy=pom workload=mcf "
                               "frobnicate=3\n")),
                 "unknown key");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "badmix", "policy=pom workload=notaprog\n")),
                 "neither");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twoaxes", "policy=pom workload=mcf\n"
                                "sweep=msamp:1,2\n"
                                "sweep=min_benefit:4,8\n")),
                 "at most one");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "fixedswept", "policy=pom workload=mcf\n"
                                   "msamp=512\nsweep=msamp:1,2\n")),
                 "both fixed and swept");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "nopolicy", "workload=mcf\n")),
                 "no policy");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "fracint", "policy=pom workload=mcf\n"
                                "min_benefit=2.5\n")),
                 "non-negative integer");
    // Too wide for the field: rejected at parse time, with file:line,
    // instead of wrapping to 1 — fixed or swept.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "wide", "policy=pom workload=mcf\n"
                             "num_regions=4294967297\n")),
                 "\\.sweep:2: bad value '4294967297' for "
                 "'num_regions'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "wideaxis", "policy=pom workload=mcf\n\n"
                                 "sweep=num_regions:32,4294967297\n")),
                 "\\.sweep:3: bad value '4294967297' for "
                 "'num_regions'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "stckb", "policy=pom workload=mcf stc_kb=2\n")),
                 "unknown key 'stc_kb'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "boolslow", "policy=pom workload=mcf "
                                 "slowdowns=yes\n")),
                 "needs 0 or 1");
    // An unknown policy is rejected before the first run, not
    // mid-sweep.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "badpolicy", "workload=mcf\n"
                                  "policy=pom,bogus\n")),
                 "\\.sweep:2: unknown policy 'bogus'");
    // So is a value that parses but no System can run, fixed or
    // swept.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "zeroinstr", "policy=pom workload=mcf\n"
                                  "instr=0\n")),
                 "\\.sweep:2: instr must be at least 1");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "zeroregions", "policy=pom workload=mcf\n\n"
                                    "sweep=num_regions:32,0\n")),
                 "\\.sweep:3: num_regions must be at least 1");
    // Past validate(), these divide by zero in HybridLayout::build
    // and the StCache constructor.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "oneslot", "policy=pom workload=mcf\n"
                                "sweep=slots_per_group:9,1\n")),
                 "\\.sweep:2: slots_per_group must be odd, from 3 to 17");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "zeroentry", "policy=pom workload=mcf\n\n"
                                  "stc_entry_bytes=0\n")),
                 "\\.sweep:3: stc_entry_bytes must be at least 1");
    // A NaN write-recovery scale never finishes a run.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "nanwrite", "policy=pom workload=mcf\n"
                                 "m2_write_scale=nan\n")),
                 "\\.sweep:2: m2_write_scale must be finite and at "
                 "least 0");
    // A repeated grid entry would run one job twice under one
    // journal key, and no report could pair it.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twopom", "workload=mcf\npolicy=pom,pom\n")),
                 "\\.sweep:2: repeated policy 'pom'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twow01", "policy=pom\nworkload=w01\n"
                               "workload=w01\n")),
                 "\\.sweep:3: repeated workload 'w01'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twoseeds", "policy=pom workload=mcf seed=1,1\n")),
                 "\\.sweep:1: repeated seed '1'");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "twopoints", "policy=pom workload=mcf\n"
                                  "sweep=msamp:512,512\n")),
                 "\\.sweep:2: repeated sweep '512'");
    // A baseline must name a policy or a point of the swept knob.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "basepol", "policy=pom workload=mcf\n"
                                "baseline=mdm\n")),
                 "\\.sweep:2: baseline 'mdm' is neither");
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "basept", "policy=pom workload=mcf\n"
                               "sweep=msamp:512,1024\n"
                               "baseline=msamp:2048\n")),
                 "\\.sweep:3: baseline 'msamp:2048' is neither");
    // A capacity that is not whole rows in every bank.
    EXPECT_DEATH(SweepSpec::fromFile(writeSpecFile(
                     "m2rows", "policy=pom workload=mcf\n"
                               "m2_bytes_per_channel=0\n")),
                 "\\.sweep:2: m2_bytes_per_channel must be a nonzero "
                 "multiple of banks x row bytes \\(131072\\)");
}

TEST(SweepDriverDeathTest, UnrunnableCapacityDiesBeforeAnyRun)
{
    // Point 2's module is not whole rows: the sweep dies at parse,
    // citing the axis, before it writes a journal.
    const std::string path = writeSpecFile(
        "capacity", "preset=single policy=pom workload=mcf\n"
                    "instr=20000 warmup=0\n"
                    "sweep=m1_bytes_per_channel:1048576,1000\n");
    SweepDriver::Options opts;
    opts.outDir = tempBase("capacity_dir");
    opts.jobs = 1;
    EXPECT_DEATH(
        {
            SweepDriver driver(SweepSpec::fromFile(path), opts);
            driver.run();
        },
        "\\.sweep:3: m1_bytes_per_channel must be a nonzero multiple "
        "of banks x row bytes \\(131072\\)");
    EXPECT_FALSE(fileExists(opts.outDir + "/sweep.journal"));
}

namespace
{

/** A completed record of one single-program run. */
SweepRunRecord
record(std::size_t index, double ipc, std::uint64_t swaps)
{
    SweepRunRecord r;
    r.index = index;
    r.completed = true;
    r.ipc = {ipc};
    r.servedTotal = 100;
    r.swaps = swaps;
    r.m1Fraction = 0.5;
    r.stcHitRate = 0.5;
    r.readLatencyNs = 100.0;
    return r;
}

} // anonymous namespace

TEST(SweepReport, PairsOnThePolicyAxis)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "rpol", "preset=single policy=pom,mdm baseline=pom\n"
                "workload=mcf,lbm,milc,soplex slowdowns=0\n"));
    // In expand()'s order: (mix, policy).  soplex's mdm run did not
    // complete; mcf's pom run made no swaps.
    std::vector<SweepRunRecord> recs = {
        record(0, 0.5, 0),  record(1, 1.0, 5),  // mcf
        record(2, 0.25, 10), record(3, 2.0, 5), // lbm
        record(4, 0.1, 20), record(5, 0.2, 40), // milc
        record(6, 0.4, 10), record(7, 0.9, 1),  // soplex
    };
    recs[7].completed = false;
    const std::string rep = renderReport(spec, recs);
    EXPECT_TRUE(hasLine(rep, "baseline pom: ratio columns are "
                             "<policy>/pom"));
    EXPECT_TRUE(hasLine(rep, "left out: 1 of 8 runs not completed"));
    EXPECT_TRUE(hasLine(rep, "program pom mdm mdm/pom"));
    EXPECT_TRUE(hasLine(rep, "mcf 0.500 1.000 2.000"));
    EXPECT_TRUE(hasLine(rep, "lbm 0.250 2.000 8.000"));
    EXPECT_TRUE(hasLine(rep, "milc 0.100 0.200 2.000"));
    EXPECT_TRUE(hasLine(rep, "soplex 0.400 - -"));
    // Summary rows over the values each column kept.
    EXPECT_TRUE(hasLine(rep, "n 4 3 3"));
    EXPECT_TRUE(hasLine(rep, "min 0.100 0.200 2.000"));
    EXPECT_TRUE(hasLine(rep, "median 0.325 1.000 2.000"));
    EXPECT_TRUE(hasLine(rep, "max 0.500 2.000 8.000"));
    EXPECT_TRUE(hasLine(rep, "gmean 0.266 0.737 3.175"));
    // swapfr: mcf's ratio has a zero denominator; its pom column
    // has no geometric mean.
    EXPECT_TRUE(hasLine(rep, "mcf 0.000 0.050 -"));
    EXPECT_TRUE(hasLine(rep, "lbm 0.100 0.050 0.500"));
    EXPECT_TRUE(hasLine(rep, "gmean - 0.100 1.000"));
    EXPECT_TRUE(hasLine(rep, "(left out: 1 ratio with a zero "
                             "denominator)"));
    // No stand-alone references: no slowdown tables.
    EXPECT_EQ(rep.find("\nsdn:"), std::string::npos);
    EXPECT_NE(rep.find("\nrdlat:"), std::string::npos);
}

TEST(SweepReport, PairsOnTheSweptAxis)
{
    SweepSpec spec = SweepSpec::fromFile(writeSpecFile(
        "rpt", "preset=single policy=mdm workload=mcf slowdowns=0\n"
               "sweep=stc_capacity_bytes:512,1024,2048\n"
               "baseline=stc_capacity_bytes:1024\n"));
    std::vector<SweepRunRecord> recs = {
        record(0, 0.3, 1), record(1, 0.6, 2), record(2, 0.9, 3)};
    const std::string rep = renderReport(spec, recs);
    EXPECT_TRUE(hasLine(rep, "baseline stc_capacity_bytes:1024: ratio "
                             "columns are <point>/1024"));
    EXPECT_TRUE(hasLine(rep, "program mdm@512 mdm@1024 mdm@2048 "
                             "mdm@512/1024 mdm@2048/1024"));
    EXPECT_TRUE(hasLine(rep, "mcf 0.300 0.600 0.900 0.500 1.500"));
    EXPECT_EQ(rep.find("left out"), std::string::npos);
}

TEST(SweepDriver, ResumeEqualsUninterrupted)
{
    SweepSpec spec = smokeSpec("resume");
    std::string full_dir = runFull(spec, "resume_full", 2);

    // Cooperative preemption after 2 of 4 runs, then resume.
    SweepDriver::Options opts;
    opts.outDir = tempBase("resume_part");
    opts.jobs = 2;
    opts.maxRuns = 2;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
        EXPECT_EQ(part.executedRuns(), 2u);
        EXPECT_EQ(part.resumedRuns(), 0u);
    }
    opts.maxRuns = 0;
    {
        SweepDriver rest(spec, opts);
        EXPECT_TRUE(rest.run());
        EXPECT_EQ(rest.resumedRuns(), 2u);
        EXPECT_EQ(rest.executedRuns(), 2u);
        // Journaled records round-tripped through the resume parse
        // render byte-identically in the canonical rewrite.
        EXPECT_EQ(readFile(rest.journalPath()),
                  readFile(full_dir + "/sweep.journal"));
        EXPECT_EQ(readFile(rest.metricsPath()),
                  readFile(full_dir + "/metrics.prom"));
    }
}

TEST(SweepDriver, WorkerCountLeavesNoTrace)
{
    SweepSpec spec = smokeSpec("jobs");
    std::string serial_dir = runFull(spec, "jobs1", 1);
    std::string parallel_dir = runFull(spec, "jobs8", 8);
    std::string j1 = readFile(serial_dir + "/sweep.journal");
    EXPECT_FALSE(j1.empty());
    EXPECT_EQ(j1, readFile(parallel_dir + "/sweep.journal"));
    std::string m1 = readFile(serial_dir + "/metrics.prom");
    EXPECT_FALSE(m1.empty());
    EXPECT_EQ(m1, readFile(parallel_dir + "/metrics.prom"));
}

TEST(SweepDriver, CorruptedTrailingJournalLineRecovers)
{
    SweepSpec spec = smokeSpec("torn");
    std::string full_dir = runFull(spec, "torn_full", 2);

    SweepDriver::Options opts;
    opts.outDir = tempBase("torn_part");
    opts.jobs = 1;
    opts.maxRuns = 2;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
    }
    // A crash can tear the trailing journal record mid-write; the
    // loader must drop exactly that record and re-run its job.
    std::string journal =
        opts.outDir + "/sweep.journal";
    std::FILE *f = std::fopen(journal.c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("i=2 key=truncated mid-wri", f);
    std::fclose(f);

    opts.maxRuns = 0;
    SweepDriver rest(spec, opts);
    EXPECT_TRUE(rest.run());
    EXPECT_EQ(rest.resumedRuns(), 2u);
    EXPECT_EQ(readFile(rest.journalPath()),
              readFile(full_dir + "/sweep.journal"));
    EXPECT_EQ(readFile(rest.metricsPath()),
              readFile(full_dir + "/metrics.prom"));
}

TEST(SweepDriver, RecordWithoutNewlineReruns)
{
    SweepSpec spec = smokeSpec("nonl");
    std::string full_dir = runFull(spec, "nonl_full", 1);

    SweepDriver::Options opts;
    opts.outDir = tempBase("nonl_part");
    opts.jobs = 1;
    opts.maxRuns = 1;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
    }
    // A record whose newline never reached the disk does not count:
    // its run re-executes, and the next record starts a line of its
    // own instead of running on into the torn one.
    std::string journal = opts.outDir + "/sweep.journal";
    std::string text = readFile(journal);
    ASSERT_EQ(text.back(), '\n');
    ASSERT_EQ(::truncate(journal.c_str(),
                         static_cast<off_t>(text.size() - 1)),
              0);
    opts.maxRuns = 2;
    {
        SweepDriver part(spec, opts);
        EXPECT_FALSE(part.run());
        EXPECT_EQ(part.resumedRuns(), 0u);
        EXPECT_EQ(part.executedRuns(), 2u);
    }
    opts.maxRuns = 0;
    SweepDriver rest(spec, opts);
    EXPECT_TRUE(rest.run());
    EXPECT_EQ(rest.resumedRuns(), 2u);
    EXPECT_EQ(readFile(rest.journalPath()),
              readFile(full_dir + "/sweep.journal"));
    EXPECT_EQ(readFile(rest.metricsPath()),
              readFile(full_dir + "/metrics.prom"));
}

TEST(SweepDriver, SigkillMidSweepResumesByteIdentical)
{
    SweepSpec spec = smokeSpec("kill");
    std::string full_dir = runFull(spec, "kill_full", 2);

    SweepDriver::Options opts;
    opts.outDir = tempBase("kill_part");
    opts.jobs = 1;

    // The child SIGKILLs itself the instant the first run's journal
    // line is durable — the hardest crash the driver must survive.
    pid_t pid = ::fork();
    ASSERT_NE(pid, -1);
    if (pid == 0) {
        SweepDriver victim(spec, opts);
        victim.setRunCallback([](std::size_t done, std::size_t) {
            if (done == 1)
                ::raise(SIGKILL);
        });
        victim.run();
        ::_exit(0); // never reached
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    SweepDriver rest(spec, opts);
    EXPECT_TRUE(rest.run());
    EXPECT_GE(rest.resumedRuns(), 1u);
    EXPECT_EQ(readFile(rest.journalPath()),
              readFile(full_dir + "/sweep.journal"));
    EXPECT_EQ(readFile(rest.metricsPath()),
              readFile(full_dir + "/metrics.prom"));
}

TEST(SweepDriverDeathTest, ForeignJournalIsFatal)
{
    SweepSpec spec = smokeSpec("foreign");
    std::string dir = runFull(spec, "foreign_dir", 2);

    // The same directory under a different spec must refuse to
    // "resume" someone else's journal.
    SweepSpec other = spec;
    other.seeds.push_back(3);
    SweepDriver::Options opts;
    opts.outDir = dir;
    opts.jobs = 1;
    SweepDriver driver(other, opts);
    EXPECT_DEATH(driver.run(), "different sweep");
}

TEST(SweepDriverDeathTest, CompleteCorruptRecordIsFatal)
{
    SweepSpec spec = smokeSpec("corrupt");
    std::string dir = runFull(spec, "corrupt_dir", 1);

    // Only a tail without its newline can be a torn write; a whole
    // record that does not render back to its own line is corrupt.
    std::string journal = dir + "/sweep.journal";
    std::string text = readFile(journal);
    std::size_t at = text.find(" completed=1 ");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 13, " completed=1 completed=1 ");
    std::FILE *f = std::fopen(journal.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);

    SweepDriver::Options opts;
    opts.outDir = dir;
    opts.jobs = 1;
    SweepDriver driver(spec, opts);
    EXPECT_DEATH(driver.run(),
                 "sweep.journal:2: corrupt sweep journal record");
}

TEST(SweepDriver, FreshDiscardsPriorOutputs)
{
    SweepSpec spec = smokeSpec("fresh");
    SweepSpec other = spec;
    other.seeds = {5};

    SweepDriver::Options opts;
    opts.outDir = tempBase("fresh_dir");
    opts.jobs = 2;
    {
        SweepDriver first(spec, opts);
        EXPECT_TRUE(first.run());
    }
    // --fresh makes the incompatible-spec reuse legal.
    opts.fresh = true;
    SweepDriver second(other, opts);
    EXPECT_TRUE(second.run());
    EXPECT_EQ(second.resumedRuns(), 0u);
    EXPECT_EQ(second.executedRuns(), 2u);
}
