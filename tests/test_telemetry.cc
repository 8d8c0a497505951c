/**
 * @file
 * Tests for the observability layer: stat-registry name stability,
 * the epoch series' format and determinism across worker counts,
 * decision trace ring wraparound with wrap-immune totals,
 * reconciliation of trace summaries against the policy's own
 * counters, telemetry-off
 * bit-identity, per-runner metric expositions, Chrome-trace export,
 * Histogram underflow/overflow accounting and the logging flag
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/openmetrics.hh"
#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"
#include "core/mdm.hh"
#include "core/profess.hh"
#include "sim/parallel_runner.hh"
#include "sim/run_telemetry.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;
using core::Mdm;
using core::ProfessPolicy;
using telemetry::DecisionTraceSink;
using telemetry::StatRegistry;
using telemetry::TraceKind;
using telemetry::TraceRecord;

namespace
{

SystemConfig
quickSingle()
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
    return c;
}

SystemConfig
quickQuad()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 120000;
    c.core.warmupInstr = 60000;
    return c;
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

/** Capture what a dump function writes to a FILE*. */
std::string
dumpToString(const std::function<void(std::FILE *)> &fn)
{
    std::FILE *f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    fn(f);
    long n = std::ftell(f);
    std::string s(static_cast<std::size_t>(n), '\0');
    std::rewind(f);
    EXPECT_EQ(std::fread(&s[0], 1, s.size(), f), s.size());
    std::fclose(f);
    return s;
}

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

bool
fileExists(const std::string &path)
{
    struct stat st;
    return ::stat(path.c_str(), &st) == 0;
}

std::string
tempBase(const std::string &tag)
{
    return ::testing::TempDir() + "profess_" + tag + "_" +
           std::to_string(::getpid());
}

std::unique_ptr<System>
makeSystem(const SystemConfig &cfg, const std::string &policy,
           const std::vector<std::string> &programs,
           std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::TraceSource>> sources;
    for (std::size_t i = 0; i < programs.size(); ++i) {
        sources.push_back(trace::makeSpecSource(
            programs[i], trace::defaultScale, seed + 1009 * (i + 1)));
    }
    return std::make_unique<System>(cfg, policy, std::move(sources));
}

} // anonymous namespace

TEST(StatRegistry, RegistersResolvesAndDumps)
{
    StatRegistry reg;
    std::uint64_t counter = 7;
    reg.addCounter("z.counter", counter);
    reg.addProbe("a.probe", []() { return 2.5; });

    EXPECT_EQ(reg.size(), 2u);
    EXPECT_TRUE(reg.contains("z.counter"));
    EXPECT_TRUE(reg.contains("a.probe"));
    EXPECT_FALSE(reg.contains("missing"));
    EXPECT_EQ(reg.value("z.counter"), 7.0);
    EXPECT_EQ(reg.value("a.probe"), 2.5);
    EXPECT_EQ(reg.value("missing"), 0.0);

    // Counters are live references, not snapshots.
    counter = 11;
    EXPECT_EQ(reg.value("z.counter"), 11.0);

    // names() is sorted regardless of registration order.
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.probe");
    EXPECT_EQ(names[1], "z.counter");

    // The exposition renders the live values, in name order.
    std::string text = telemetry::renderOpenMetrics(reg, "r");
    EXPECT_NE(text.find("profess_a_probe{run=\"r\"} 2.5\n"),
              std::string::npos);
    EXPECT_NE(text.find("profess_z_counter_total{run=\"r\"} 11\n"),
              std::string::npos);
    EXPECT_LT(text.find("profess_a_probe"),
              text.find("profess_z_counter"));
}

TEST(StatRegistryDeathTest, RejectsDuplicateNames)
{
    // Duplicate dotted names would silently shadow each other in
    // value() and produce ambiguous report columns; registration
    // panics instead (scripts/profess_analyze catches the literal
    // cases statically, this covers runtime-composed prefixes).
    StatRegistry reg;
    std::uint64_t c = 0;
    reg.addCounter("dup.name", c);
    EXPECT_DEATH(reg.addCounter("dup.name", c),
                 "duplicate statistic name");
    EXPECT_DEATH(reg.addProbe("dup.name", []() { return 0.0; }),
                 "duplicate statistic name");
}

TEST(StatRegistry, ScalesToThousandsOfRegistrations)
{
    // Regression for the O(n^2) duplicate scan: contains() and the
    // addEntry() duplicate check are hash-set backed, so a few
    // thousand registrations (parallel sweeps register per-channel,
    // per-core and per-policy sets) stay effectively free.
    StatRegistry reg;
    const std::size_t n = 4000;
    std::vector<std::uint64_t> storage(n);
    for (std::size_t i = 0; i < n; ++i) {
        storage[i] = i;
        reg.addCounter("bulk.c" + std::to_string(i), storage[i]);
    }
    EXPECT_EQ(reg.size(), n);
    for (std::size_t i = 0; i < n; i += 97)
        EXPECT_TRUE(reg.contains("bulk.c" + std::to_string(i)));
    EXPECT_FALSE(reg.contains("bulk.c" + std::to_string(n)));
    EXPECT_FALSE(reg.contains("bulk"));
    EXPECT_EQ(reg.value("bulk.c1234"), 1234.0);

    // names() stays fully sorted even at this size.
    std::vector<std::string> names = reg.names();
    ASSERT_EQ(names.size(), n);
    for (std::size_t i = 1; i < names.size(); ++i)
        EXPECT_LT(names[i - 1], names[i]);
}

TEST(StatRegistry, ComponentNamesStableAcrossConstruction)
{
    // Two identically-built systems must register the exact same
    // dotted names: dashboards and diff tools key on them.
    TelemetryConfig cfg; // disabled: registration is unconditional
    auto sys1 = makeSystem(quickSingle(), "profess", {"mcf"}, 42);
    auto sys2 = makeSystem(quickSingle(), "profess", {"mcf"}, 43);
    RunTelemetry t1(cfg, "a");
    RunTelemetry t2(cfg, "b");
    sys1->attachTelemetry(t1);
    sys2->attachTelemetry(t2);

    std::vector<std::string> n1 = t1.registry().names();
    std::vector<std::string> n2 = t2.registry().names();
    EXPECT_EQ(n1, n2);
    EXPECT_GT(n1.size(), 20u);

    // Spot-check the documented hierarchy.
    for (const char *name :
         {"hybrid.swaps", "hybrid.stc.hits", "hybrid.stc.hit_rate",
          "hybrid.p0.served", "core0.retired", "core0.mem_reads",
          "os.alloc.cache_hit_rate", "mem.ch0.read_queue",
          "policy.profess.guidance.case1",
          "policy.profess.mdm.path_net_benefit",
          "policy.profess.rsm.p0.sf_a",
          "policy.profess.rsm.p0.periods"}) {
        EXPECT_TRUE(t1.registry().contains(name)) << name;
    }
}

TEST(EpochSampler, WritesOneJsonlLinePerEpoch)
{
    StatRegistry reg;
    std::uint64_t counter = 0;
    reg.addCounter("z.c", counter);
    reg.addProbe("a.p", [&counter]() { return counter / 4.0; });

    telemetry::EpochSampler sampler(reg, /*interval_ticks=*/1000);
    std::string jsonl = dumpToString([&](std::FILE *f) {
        sampler.setOutput(f);
        for (std::uint64_t i = 0; i < 3; ++i) {
            counter = i * 3;
            sampler.sampleNow(static_cast<Tick>(i * 1000));
        }
    });
    EXPECT_EQ(sampler.epochs(), 3u);
    EXPECT_EQ(jsonl,
              "{\"tick\":0,\"epoch\":0,\"v\":{\"a.p\":0,\"z.c\":0}}\n"
              "{\"tick\":1000,\"epoch\":1,\"v\":{\"a.p\":0.75,\"z.c\":3}}\n"
              "{\"tick\":2000,\"epoch\":2,\"v\":{\"a.p\":1.5,\"z.c\":6}}\n");
}

TEST(TraceRing, WraparoundKeepsWrapImmuneTotals)
{
    constexpr std::uint32_t kNetBenefit =
        static_cast<std::uint32_t>(Mdm::DecidePath::NetBenefit);
    constexpr std::uint32_t kRejected =
        static_cast<std::uint32_t>(Mdm::DecidePath::Rejected);

    DecisionTraceSink sink(/*capacity=*/8);
    EXPECT_EQ(sink.capacity(), 8u);

    // 21 records: 12 MDM decides (7 net_benefit swaps, 5 rejected),
    // 6 guidance cases, 3 period rollovers.
    std::uint64_t tick = 0;
    auto push = [&sink, &tick](TraceKind kind, std::uint32_t detail,
                               bool swapped) {
        TraceRecord r;
        r.tick = tick++;
        r.kind = static_cast<std::uint8_t>(kind);
        r.detail = detail;
        r.swapped = swapped ? 1 : 0;
        sink.push(r);
    };
    for (int i = 0; i < 7; ++i)
        push(TraceKind::MdmDecide, kNetBenefit, true);
    for (int i = 0; i < 5; ++i)
        push(TraceKind::MdmDecide, kRejected, false);
    for (int i = 0; i < 6; ++i)
        push(TraceKind::GuidanceCase, 1, false);
    for (int i = 0; i < 3; ++i)
        push(TraceKind::RsmPeriod, 0, false);

    EXPECT_EQ(sink.total(), 21u);
    EXPECT_EQ(sink.retainedCount(), 8u);
    EXPECT_EQ(sink.kindTotal(TraceKind::MdmDecide), 12u);
    EXPECT_EQ(sink.kindTotal(TraceKind::GuidanceCase), 6u);
    EXPECT_EQ(sink.kindTotal(TraceKind::RsmPeriod), 3u);
    EXPECT_EQ(sink.pathTotal(kNetBenefit), 7u);
    EXPECT_EQ(sink.pathTotal(kRejected), 5u);
    EXPECT_EQ(sink.swapTotal(kNetBenefit), 7u);
    EXPECT_EQ(sink.swapTotal(kRejected), 0u);

    // The ring holds the newest 8 records, oldest first.
    std::vector<TraceRecord> kept = sink.retained();
    ASSERT_EQ(kept.size(), 8u);
    for (std::size_t i = 0; i < kept.size(); ++i)
        EXPECT_EQ(kept[i].tick, 13 + i);

    // JSONL flush: one line per retained record plus the summary,
    // whose totals are wrap-immune (they cover dropped records too).
    std::string jsonl =
        dumpToString([&sink](std::FILE *f) { sink.flushJsonl(f); });
    std::size_t lines = 0;
    for (char c : jsonl)
        lines += c == '\n';
    EXPECT_EQ(lines, 9u);
    EXPECT_NE(jsonl.find("\"summary\":{\"total\":21,\"retained\":8,"
                         "\"dropped\":13"),
              std::string::npos);
    EXPECT_NE(jsonl.find("\"rsm_period\":3"), std::string::npos);
}

TEST(TraceReconciliation, SinkTotalsMatchPolicyCounters)
{
    TelemetryConfig cfg;
    cfg.trace = true;
    cfg.epochInterval = 5000;

    auto sys = makeSystem(quickSingle(), "profess", {"mcf"}, 42);
    RunTelemetry bundle(cfg, "reconcile");
    sys->attachTelemetry(bundle);
    ASSERT_TRUE(sys->run());

    DecisionTraceSink *sink = bundle.decisionSink();
    ASSERT_NE(sink, nullptr);
    ProfessPolicy *pp = sys->professPolicy();
    ASSERT_NE(pp, nullptr);

    // Every MDM evaluation was traced: per-path counts in the sink
    // equal the policy's own path counters exactly.
    constexpr auto num_paths =
        static_cast<unsigned>(Mdm::DecidePath::NumPaths);
    std::uint64_t decides = 0, swap_decisions = 0;
    for (unsigned p = 0; p < num_paths; ++p) {
        auto path = static_cast<Mdm::DecidePath>(p);
        EXPECT_EQ(sink->pathTotal(p), pp->mdm().pathCount(path))
            << Mdm::pathName(path);
        if (!Mdm::pathSwaps(path)) {
            EXPECT_EQ(sink->swapTotal(p), 0u) << Mdm::pathName(path);
        }
        decides += sink->pathTotal(p);
        swap_decisions += sink->swapTotal(p);
    }
    EXPECT_EQ(sink->kindTotal(TraceKind::MdmDecide), decides);
    EXPECT_GT(decides, 0u);

    // Swap-deciding paths account for every executed swap (a
    // decision can still be in flight when the run ends, so the
    // decision count bounds the executed count from above).
    EXPECT_GE(swap_decisions, sys->controller().swapCount());
    EXPECT_GT(sys->controller().swapCount(), 0u);

    // Guidance-case records reconcile with the Table 7 counters.
    std::uint64_t cases = 0;
    for (unsigned c = 0; c < 5; ++c) {
        cases += pp->caseCount(
            static_cast<ProfessPolicy::GuidanceCase>(c));
    }
    EXPECT_EQ(sink->kindTotal(TraceKind::GuidanceCase), cases);

    // Period rollovers reconcile with the RSM period counter, which
    // is also what the registry probe reports.
    EXPECT_EQ(
        static_cast<double>(sink->kindTotal(TraceKind::RsmPeriod)),
        bundle.registry().value("policy.profess.rsm.p0.periods"));

    // The sampler ran.
    ASSERT_NE(bundle.sampler(), nullptr);
    EXPECT_GT(bundle.sampler()->epochs(), 0u);
}

TEST(Differential, TelemetryOffIsBitIdentical)
{
    const std::vector<std::string> programs = {"mcf"};

    // Telemetry on (tracing + sampling, no artifact directory).
    RunOptions on_opts;
    on_opts.telemetry.trace = true;
    on_opts.telemetry.epochInterval = 5000;
    ExperimentRunner on(quickSingle(), on_opts);
    RunResult a = on.run("profess", programs, 7, "mix");

    // Telemetry off, same seed: labelled and clean runs.
    ExperimentRunner off(quickSingle());
    RunResult b = off.run("profess", programs, 7, "mix");
    RunResult c = off.run("profess", programs, 7);

    EXPECT_TRUE(a.completed);
    expectIdentical(a, b);
    expectIdentical(a, c);
}

TEST(Differential, EpochSeriesIdenticalAcrossWorkerCounts)
{
    std::string base = tempBase("epochs");
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);

    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "profess", *w01),
        multiJob(quickQuad(), "mdm", *w05),
    };
    for (RunJob &j : batch)
        j.slowdowns = false; // reference runs are label-free anyway

    auto runWith = [&batch](unsigned jobs, const std::string &dir) {
        RunOptions opts;
        opts.telemetry.outDir = dir;
        opts.telemetry.epochInterval = 5000;
        ParallelRunner runner(jobs, opts);
        runner.setProgress(false);
        return runner.run(batch);
    };
    std::vector<MultiMetrics> serial = runWith(1, base + "/serial");
    std::vector<MultiMetrics> parallel = runWith(8, base + "/par");

    ASSERT_EQ(serial.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expectIdentical(serial[i].run, parallel[i].run);
        std::string run_dir =
            batch[i].label + "_" + batch[i].policy;
        SCOPED_TRACE(run_dir);
        std::string s_epochs =
            readFile(base + "/serial/" + run_dir + "/epochs.jsonl");
        std::string p_epochs =
            readFile(base + "/par/" + run_dir + "/epochs.jsonl");
        EXPECT_FALSE(s_epochs.empty());
        EXPECT_EQ(s_epochs, p_epochs);
        // The end-of-run exposition is deterministic too.
        std::string s_stats =
            readFile(base + "/serial/" + run_dir + "/metrics.prom");
        std::string p_stats =
            readFile(base + "/par/" + run_dir + "/metrics.prom");
        EXPECT_FALSE(s_stats.empty());
        EXPECT_EQ(s_stats, p_stats);
    }
}

TEST(Differential, MetricsExportIsBitIdentical)
{
    const std::vector<std::string> programs = {"mcf"};
    std::string prom = tempBase("metrics_off") + ".prom";

    // --metrics-out alone turns on the full observational stack
    // (latency-attribution spans, fairness gauges, exporter);
    // simulation results must not move at all.
    RunOptions on_opts;
    on_opts.telemetry.metricsOut = prom;
    ExperimentRunner on(quickSingle(), on_opts);
    RunResult a = on.run("profess", programs, 7, "mix");
    // The run wrote its shard; the owner of the options merges.
    mergeShards(prom, {"mix_profess"});

    ExperimentRunner off(quickSingle());
    RunResult b = off.run("profess", programs, 7, "mix");

    EXPECT_TRUE(a.completed);
    expectIdentical(a, b);

    // The exposition was written, carries latency spans and is
    // terminated (deep validation lives in tests/test_metrics.cc).
    std::string text = readFile(prom);
    EXPECT_NE(text.find("profess_latency_bucket"),
              std::string::npos);
    EXPECT_NE(text.find("# EOF"), std::string::npos);
}

TEST(Differential, MetricsFileIdenticalAcrossWorkerCounts)
{
    std::string base = tempBase("metrics_jobs");
    const WorkloadSpec *w01 = findWorkload("w01");
    const WorkloadSpec *w05 = findWorkload("w05");
    ASSERT_NE(w01, nullptr);
    ASSERT_NE(w05, nullptr);

    std::vector<RunJob> batch = {
        multiJob(quickQuad(), "profess", *w01),
        multiJob(quickQuad(), "mdm", *w05),
    };
    for (RunJob &j : batch)
        j.slowdowns = false;

    // Workers write their shards concurrently and the runner merges
    // them sorted by run label after the batch, so worker count and
    // completion order must leave no trace in the exposition: a
    // zero-threshold metrics_diff.py of these two files reports
    // nothing (here byte equality, which is stronger).
    auto runWith = [&batch](unsigned jobs, const std::string &file) {
        RunOptions opts;
        opts.telemetry.metricsOut = file;
        ParallelRunner runner(jobs, opts);
        runner.setProgress(false);
        runner.run(batch);
    };
    std::string serial = base + "_serial.prom";
    std::string parallel = base + "_par.prom";
    runWith(1, serial);
    runWith(8, parallel);

    std::string s = readFile(serial);
    std::string p = readFile(parallel);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s, p);
}

TEST(RunOptions, RunnersWriteOnlyTheirOwnExposition)
{
    // Two runners with different options in one process: each
    // exposition holds exactly its own runner's runs, over all of
    // its batches, and nothing of the other's.
    std::string base = tempBase("two_runners");
    RunOptions a_opts;
    a_opts.telemetry.metricsOut = base + "_a.prom";
    RunOptions b_opts;
    b_opts.telemetry.metricsOut = base + "_b.prom";
    b_opts.telemetry.trace = true;
    ParallelRunner a(2, a_opts);
    ParallelRunner b(2, b_opts);
    a.setProgress(false);
    b.setProgress(false);

    a.run({singleJob(quickSingle(), "pom", "mcf")});
    b.run({singleJob(quickSingle(), "mdm", "lbm")});
    a.run({singleJob(quickSingle(), "pom", "milc")});

    std::string ta = readFile(a_opts.telemetry.metricsOut);
    std::string tb = readFile(b_opts.telemetry.metricsOut);
    EXPECT_NE(ta.find("run=\"mcf_pom\""), std::string::npos);
    EXPECT_NE(ta.find("run=\"milc_pom\""), std::string::npos);
    EXPECT_EQ(ta.find("lbm_mdm"), std::string::npos);
    EXPECT_NE(tb.find("run=\"lbm_mdm\""), std::string::npos);
    EXPECT_EQ(tb.find("mcf_pom"), std::string::npos);
    EXPECT_EQ(tb.find("milc_pom"), std::string::npos);
}

TEST(RunTelemetry, WritesRunArtifacts)
{
    std::string base = tempBase("artifacts");
    TelemetryConfig cfg;
    cfg.trace = true;
    cfg.outDir = base;
    cfg.epochInterval = 5000;

    SystemConfig sys_cfg = quickSingle();
    sys_cfg.core.instrQuota = 80000;
    sys_cfg.core.warmupInstr = 0;
    auto sys = makeSystem(sys_cfg, "profess", {"mcf"}, 5);

    // Labels are sanitized into filesystem-safe directory names.
    RunTelemetry bundle(cfg, "smoke run:1");
    EXPECT_EQ(bundle.directory(), base + "/smoke_run_1");
    sys->attachTelemetry(bundle);
    ASSERT_TRUE(sys->run());
    bundle.finish("profess", "mcf", 5, configJson(sys_cfg), true);

    const std::string dir = bundle.directory();
    for (const char *f : {"manifest.json", "metrics.prom",
                          "epochs.jsonl", "decisions.jsonl",
                          "trace.json"}) {
        EXPECT_TRUE(fileExists(dir + "/" + f)) << f;
    }
    std::string manifest = readFile(dir + "/manifest.json");
    EXPECT_NE(manifest.find("\"profess-run-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(manifest.find("\"smoke run:1\""), std::string::npos);
    EXPECT_NE(manifest.find("\"seed\": 5"), std::string::npos);
    EXPECT_NE(manifest.find("\"completed\": true"), std::string::npos);
    std::string decisions = readFile(dir + "/decisions.jsonl");
    EXPECT_NE(decisions.find("\"summary\""), std::string::npos);
    std::string chrome = readFile(dir + "/trace.json");
    EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(chrome.find("controller.access"), std::string::npos);
}

TEST(ChromeTrace, CapsEventsAndCountsDrops)
{
    telemetry::ChromeTraceSink sink(/*max_events=*/4);
    for (int i = 0; i < 3; ++i)
        sink.complete("swap", "hybrid", 100 * i, 50, 0);
    for (int i = 0; i < 3; ++i)
        sink.instant("st_fill", "hybrid", 10 * i, 1);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.dropped(), 2u);

    // Call-sampled timer: 128 calls at period 64 -> 2 timed.
    telemetry::TimerSlot slot{1000, 128, 2};
    EXPECT_EQ(slot.estimatedNs(), 64000.0);
    std::string json = dumpToString([&sink, &slot](std::FILE *f) {
        sink.writeJson(f, {{"controller.access", &slot}});
    });
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ns\":1000,\"calls\":128,\"sampled\":2,"
                        "\"est_ns\":64000"),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped\":2"), std::string::npos);
}

TEST(Histogram, UnderflowOverflowAccounting)
{
    Histogram h(/*bucket_width=*/1.0, /*num_buckets=*/4);
    h.add(-0.5); // below the first edge
    h.add(0.5);  // bucket 0
    h.add(3.5);  // bucket 3
    h.add(4.0);  // at the last regular edge: overflow
    h.add(100.0);

    EXPECT_EQ(h.underflow(), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.summary().count(), 5u);
}

TEST(HistogramDeathTest, RejectsInvalidBucketEdges)
{
    EXPECT_EXIT(Histogram(0.0, 4), ::testing::ExitedWithCode(1),
                "bucket width");
    EXPECT_EXIT(Histogram(-1.0, 4), ::testing::ExitedWithCode(1),
                "bucket width");
    EXPECT_EXIT(Histogram(1.0, 0), ::testing::ExitedWithCode(1),
                "bucket");
}

TEST(Logging, WarnRateLimitCountsEveryHit)
{
    int saved = logging::verbosity;
    logging::verbosity = 1;
    logging::resetWarnHistory();

    for (int i = 0; i < 8; ++i)
        warn("telemetry test warning %d", 7);
    // All eight fired (and were counted) even though only the first
    // five were printed.
    EXPECT_EQ(logging::warnCount("telemetry test warning 7"), 8u);
    EXPECT_EQ(logging::warnCount("never emitted"), 0u);

    logging::resetWarnHistory();
    EXPECT_EQ(logging::warnCount("telemetry test warning 7"), 0u);
    logging::verbosity = saved;
}

TEST(Logging, ConfigureStripsVerbosityFlags)
{
    int saved = logging::verbosity;
    ::unsetenv("PROFESS_LOG");

    const char *raw[] = {"t", "--quiet", "--silent", "--keep"};
    std::vector<char *> argv;
    for (const char *a : raw)
        argv.push_back(const_cast<char *>(a));
    argv.push_back(nullptr);
    int argc = 4;
    logging::configure(argc, argv.data());
    EXPECT_EQ(logging::verbosity, 0);
    ASSERT_EQ(argc, 2);
    EXPECT_STREQ(argv[1], "--keep");

    const char *raw2[] = {"t", "--log-level", "2"};
    std::vector<char *> argv2;
    for (const char *a : raw2)
        argv2.push_back(const_cast<char *>(a));
    argv2.push_back(nullptr);
    int argc2 = 3;
    logging::configure(argc2, argv2.data());
    EXPECT_EQ(logging::verbosity, 2);
    EXPECT_EQ(argc2, 1);

    logging::verbosity = saved;
}
