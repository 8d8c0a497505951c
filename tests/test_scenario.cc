/**
 * @file
 * Tests for the scenario-intervention subsystem (src/sim/scenario.hh)
 * and the audits it unblocks:
 *
 *  - schedule building, file parsing (a removed or unknown kind or
 *    key dies with file:line) and fingerprinting;
 *  - off-mode differential: a run with no scenario attached is
 *    bit-identical to one with an empty schedule attached;
 *  - pin determinism: a pin schedule produces bit-identical results
 *    at --jobs 1 and --jobs 8, and differs from a clean run;
 *  - stat/trace reconciliation: scenario counters equal the
 *    decision sink's ScenarioEvent records, code by code;
 *  - Table 7 "as if vacant" forced via the RSM factor-pinning hook
 *    through the full controller path;
 *  - cross-component q_I coherence audits at quiesce points.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/invariant.hh"
#include "common/trace_sink.hh"
#include "core/profess.hh"
#include "sim/experiment.hh"
#include "sim/parallel_runner.hh"
#include "sim/scenario.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"

using namespace profess;
using namespace profess::sim;

namespace
{

SystemConfig
tinyConfig()
{
    SystemConfig c = SystemConfig::quadCore();
    c.core.instrQuota = 60000;
    c.core.warmupInstr = 20000;
    return c;
}

std::vector<std::unique_ptr<trace::TraceSource>>
fourSources(std::uint64_t seed)
{
    std::vector<std::unique_ptr<trace::TraceSource>> v;
    const char *names[] = {"mcf", "lbm", "omnetpp", "zeusmp"};
    for (unsigned i = 0; i < 4; ++i) {
        v.push_back(trace::makeSpecSource(
            names[i], trace::defaultScale, seed + i * 7));
    }
    return v;
}

/** Fingerprint of one run's externally visible outcome. */
struct RunDigest
{
    std::vector<double> ipc;
    std::uint64_t servedTotal = 0;
    std::uint64_t swaps = 0;
    Tick finalTick = 0;
    double seconds = 0.0;
};

RunDigest
digest(System &sys)
{
    RunDigest d;
    for (unsigned i = 0; i < sys.numCores(); ++i)
        d.ipc.push_back(sys.core(i).ipcAtQuota());
    d.servedTotal = sys.controller().servedTotal();
    d.swaps = sys.controller().swapCount();
    d.finalTick = sys.now();
    d.seconds = sys.measuredSeconds();
    return d;
}

void
expectIdentical(const RunDigest &a, const RunDigest &b)
{
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (std::size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "ipc[" << i << "]";
    EXPECT_EQ(a.servedTotal, b.servedTotal);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.finalTick, b.finalTick);
    EXPECT_EQ(a.seconds, b.seconds);
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
    EXPECT_EQ(a.servedTotal, b.servedTotal);
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.stcHitRate, b.stcHitRate);
    EXPECT_EQ(a.meanReadLatencyNs, b.meanReadLatencyNs);
    EXPECT_EQ(a.completed, b.completed);
}

} // anonymous namespace

// ---------------------------------------------------------------
// Schedule construction, parsing and fingerprinting.
// ---------------------------------------------------------------

TEST(ScenarioSchedule, BuilderAndFingerprint)
{
    ScenarioSchedule empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(empty.fingerprint(), 0u);

    ScenarioSchedule a;
    a.pinRsmFactors(1000, 0, 4.0, 2.0).pinMdmDecision(2000, false);
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a.interventions().size(), 2u);
    EXPECT_NE(a.fingerprint(), 0u);

    // Same schedule built again: same fingerprint.
    ScenarioSchedule b;
    b.pinRsmFactors(1000, 0, 4.0, 2.0).pinMdmDecision(2000, false);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());

    // Any field change must move the fingerprint.
    ScenarioSchedule c;
    c.pinRsmFactors(1000, 0, 4.5, 2.0).pinMdmDecision(2000, false);
    EXPECT_NE(a.fingerprint(), c.fingerprint());
    ScenarioSchedule e;
    e.pinRsmFactors(1000, 0, 4.0, 2.0).pinMdmDecision(2000, true);
    EXPECT_NE(a.fingerprint(), e.fingerprint());

    // Order matters (interventions can overlap/override).
    ScenarioSchedule d;
    d.pinMdmDecision(2000, false).pinRsmFactors(1000, 0, 4.0, 2.0);
    EXPECT_NE(a.fingerprint(), d.fingerprint());
}

TEST(ScenarioSchedule, FileParseMatchesBuilder)
{
    std::string path =
        ::testing::TempDir() + "/profess_scenario_test.txt";
    std::FILE *f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("# intervention fixture\n"
               "at=1000 kind=pin_mdm decision=noswap\n"
               "\n"
               "at=2000 kind=unpin_mdm\n"
               "at=9000 kind=pin_rsm program=0 sf_a=4.0 sf_b=4.0\n"
               "at=9200 kind=unpin_rsm program=0\n"
               "at=9500 kind=quiesce_audit\n",
               f);
    std::fclose(f);

    ScenarioSchedule parsed = ScenarioSchedule::fromFile(path);
    ASSERT_EQ(parsed.interventions().size(), 5u);

    ScenarioSchedule built;
    built.pinMdmDecision(1000, false)
        .unpinMdmDecision(2000)
        .pinRsmFactors(9000, 0, 4.0, 4.0)
        .unpinRsmFactors(9200, 0)
        .quiesceAudit(9500);
    EXPECT_EQ(parsed.fingerprint(), built.fingerprint());
    std::remove(path.c_str());
}

TEST(ScenarioScheduleDeathTest, RemovedKindAndKeyAreFatal)
{
    // Only pins and quiesce audits exist: a schedule naming another
    // kind or one of its keys dies at parse, citing file:line.
    auto parse = [](const char *name, const char *text) {
        std::string path = ::testing::TempDir() + "/" + name;
        std::FILE *f = std::fopen(path.c_str(), "w");
        std::fputs(text, f);
        std::fclose(f);
        ScenarioSchedule::fromFile(path);
    };
    EXPECT_DEATH(parse("removed_kind.scn",
                       "at=0 kind=quiesce_audit\n"
                       "at=0 kind=swap_abort\n"),
                 "removed_kind\\.scn:2: unknown intervention kind "
                 "'swap_abort'");
    EXPECT_DEATH(parse("removed_key.scn",
                       "at=0 kind=pin_mdm probability=0.25\n"),
                 "removed_key\\.scn:1: unknown key 'probability'");
}

// ---------------------------------------------------------------
// Off-mode differential: attaching a controller with an EMPTY
// schedule must be bit-identical to not attaching one at all.
// ---------------------------------------------------------------

TEST(ScenarioOffMode, EmptyScheduleBitIdentical)
{
    System bare(tinyConfig(), "profess", fourSources(3));
    ASSERT_TRUE(bare.run());
    RunDigest base = digest(bare);

    System sys(tinyConfig(), "profess", fourSources(3));
    ScenarioSchedule empty;
    ScenarioController ctrl(empty);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    expectIdentical(base, digest(sys));
    EXPECT_EQ(ctrl.eventTotal(), 0u);
}

// ---------------------------------------------------------------
// Pin determinism: with a loaded schedule the results must be
// bit-identical at --jobs 1 and --jobs 8, and must differ from a
// clean run (the pins really acted).  ProFess takes every pin,
// rsm-pom only the RSM ones and mdm only the MDM ones.
// ---------------------------------------------------------------

TEST(ScenarioDeterminism, FaultScheduleIdenticalAcrossJobs)
{
    SystemConfig cfg = tinyConfig();
    std::vector<RunJob> batch;
    for (const char *policy : {"profess", "rsm-pom", "mdm"}) {
        RunJob j;
        j.cfg = cfg;
        j.policy = policy;
        j.programs = {"mcf", "lbm", "omnetpp", "zeusmp"};
        j.baseSeed = 3;
        batch.push_back(j);
    }

    ScenarioSchedule s;
    s.pinRsmFactors(5000, 0, 4.0, 4.0)
        .pinMdmDecision(20000, /*swap=*/false)
        .quiesceAudit(30000)
        .unpinMdmDecision(40000);
    RunOptions pinned;
    pinned.scenario.setSchedule(s);
    auto runWith = [&batch](unsigned jobs, const RunOptions &opts) {
        ParallelRunner runner(jobs, opts);
        runner.setProgress(false);
        return runner.run(batch);
    };
    // Clean baseline first, then the same batch under the pins.
    std::vector<MultiMetrics> clean = runWith(1, RunOptions{});
    std::vector<MultiMetrics> serial = runWith(1, pinned);
    std::vector<MultiMetrics> parallel = runWith(8, pinned);

    ASSERT_EQ(serial.size(), batch.size());
    ASSERT_EQ(parallel.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        expectIdentical(serial[i].run, parallel[i].run);

    // The pins must actually have perturbed the simulation.
    bool any_diff = false;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        for (std::size_t c = 0; c < clean[i].run.ipc.size(); ++c)
            any_diff |= clean[i].run.ipc[c] != serial[i].run.ipc[c];
    }
    EXPECT_TRUE(any_diff) << "pin schedule had no observable effect";
}

// ---------------------------------------------------------------
// Stat/trace reconciliation: every scenario event is mirrored 1:1
// into the decision trace, so each counter equals the number of
// ScenarioEvent records carrying its code.
// ---------------------------------------------------------------

TEST(ScenarioTrace, StatAndTraceTotalsReconcile)
{
    telemetry::DecisionTraceSink sink;

    System sys(tinyConfig(), "profess", fourSources(3));
    ScenarioSchedule s;
    s.pinMdmDecision(10000, /*swap=*/false)
        .unpinMdmDecision(20000)
        .quiesceAudit(25000)
        .pinRsmFactors(30000, 0, 2.0, 2.0)
        .unpinRsmFactors(45000, 0)
        .quiesceAudit(50000);
    ScenarioController ctrl(s);
    ctrl.setTraceSink(&sink);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    EXPECT_GT(ctrl.eventTotal(), 0u);
    EXPECT_EQ(ctrl.eventTotal(),
              sink.kindTotal(telemetry::TraceKind::ScenarioEvent));

    // Per-code mirroring: with an unwrapped ring every event appears
    // in the trace exactly as often as in its counter.
    ASSERT_EQ(sink.total(), sink.retainedCount())
        << "ring wrapped; grow the sink for exact mirroring";
    using Code = ScenarioController::EventCode;
    std::vector<std::uint64_t> traced(
        static_cast<std::size_t>(Code::NumCodes), 0);
    for (const telemetry::TraceRecord &r : sink.retained()) {
        if (r.kind ==
            static_cast<std::uint8_t>(
                telemetry::TraceKind::ScenarioEvent)) {
            ASSERT_LT(r.detail, traced.size());
            ++traced[r.detail];
        }
    }
    for (unsigned c = 0; c < traced.size(); ++c) {
        const char *name =
            ScenarioController::eventName(static_cast<Code>(c));
        EXPECT_EQ(traced[c], ctrl.counter(name)) << name;
    }
    EXPECT_EQ(ctrl.counter("mdm_pin"), 1u);
    EXPECT_EQ(ctrl.counter("mdm_unpin"), 1u);
    EXPECT_EQ(ctrl.counter("rsm_pin"), 1u);
    EXPECT_EQ(ctrl.counter("rsm_unpin"), 1u);
    EXPECT_EQ(ctrl.counter("quiesce_audit") +
                  ctrl.counter("quiesce_giveup"),
              2u);
}

// ---------------------------------------------------------------
// Satellite: Table 7 "as if vacant" (Case 1) exercised through the
// full controller access path.  Pinning program 0 to SF 4.0 while
// the others sit at 1.0 makes its cross-program accesses classify
// as Case 1 (a 4x-slowed program may treat occupied M1 slots of
// unslowed owners as if vacant) without hand-crafting RSM history.
// ---------------------------------------------------------------

TEST(ScenarioRsmPin, Table7AsIfVacantFullController)
{
    System sys(tinyConfig(), "profess", fourSources(3));
    ScenarioSchedule s;
    s.pinRsmFactors(0, 0, 4.0, 4.0);
    for (int p = 1; p < 4; ++p)
        s.pinRsmFactors(0, p, 1.0, 1.0);
    ScenarioController ctrl(s);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    auto *pol = dynamic_cast<core::ProfessPolicy *>(&sys.policy());
    ASSERT_NE(pol, nullptr);

    // The pins were applied and held for the whole run.
    EXPECT_EQ(ctrl.counter("rsm_pin"), 4u);
    EXPECT_TRUE(pol->rsm()->factorsPinned(0));
    EXPECT_EQ(pol->rsm()->sfA(0), 4.0);
    EXPECT_EQ(pol->rsm()->sfB(0), 4.0);
    EXPECT_EQ(pol->rsm()->sfA(1), 1.0);

    // The guidance distribution shows Case 1 decisions flowing
    // through HybridController::access -> policy -> MDM.
    using GC = core::GuidanceCase;
    EXPECT_GT(pol->guidance()->count(GC::Case1), 0u);
    EXPECT_GT(sys.controller().swapCount(), 0u);
    sys.auditInvariants();
}

TEST(ScenarioRsmPin, PinsEveryPolicyWithAnRsm)
{
    // The pin reaches RSM through MigrationPolicy::rsm(), so the
    // RSM-guided PoM takes it like ProFess does.
    System sys(tinyConfig(), "rsm-pom", fourSources(3));
    ScenarioSchedule s;
    s.pinRsmFactors(1000, 0, 4.0, 4.0);
    ScenarioController ctrl(s);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    EXPECT_EQ(ctrl.counter("rsm_pin"), 1u);
    EXPECT_EQ(ctrl.counter("pin_unsupported"), 0u);
    ASSERT_NE(sys.policy().rsm(), nullptr);
    EXPECT_TRUE(sys.policy().rsm()->factorsPinned(0));
    EXPECT_EQ(sys.policy().rsm()->sfA(0), 4.0);
}

// ---------------------------------------------------------------
// Satellite: cross-component coherence at quiesce points.  At each
// granted quiesce audit the STC's cached q_I snapshots are checked
// against the owning ST entries' live QACs; deferral accounting
// must close (every request either ran or gave up).
// ---------------------------------------------------------------

TEST(ScenarioQuiesce, QacCoherenceAuditsRun)
{
    std::uint64_t audits_before = audit::checksRun();

    System sys(tinyConfig(), "profess", fourSources(3));
    ScenarioSchedule s;
    const unsigned requests = 6;
    for (unsigned i = 0; i < requests; ++i)
        s.quiesceAudit(5000 + i * 7000);
    ScenarioController ctrl(s);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    std::uint64_t ran = ctrl.counter("quiesce_audit");
    std::uint64_t gaveup = ctrl.counter("quiesce_giveup");
    EXPECT_EQ(ran + gaveup, requests);
    EXPECT_GT(ran, 0u) << "no quiesce point was ever reached";

    // The audits really executed checks (q_I coherence + system
    // structural audits at each quiesce point).
    EXPECT_GT(audit::checksRun(), audits_before);
}

// ---------------------------------------------------------------
// MDM decision pin: forcing NoSwap must suppress all swaps from
// the pin tick on; forcing from tick 0 yields a swap-free run.
// ---------------------------------------------------------------

TEST(ScenarioMdmPin, ForcedNoSwapSuppressesSwaps)
{
    System sys(tinyConfig(), "mdm", fourSources(3));
    ScenarioSchedule s;
    s.pinMdmDecision(0, /*swap=*/false);
    ScenarioController ctrl(s);
    ctrl.attach(sys);
    ASSERT_TRUE(sys.run());

    EXPECT_EQ(ctrl.counter("mdm_pin"), 1u);
    EXPECT_EQ(sys.controller().swapCount(), 0u);
}
