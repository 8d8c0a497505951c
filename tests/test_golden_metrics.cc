/**
 * @file
 * Golden-value regression layer: pins the arithmetic that the
 * paper reproduction rests on, so refactors (and especially the
 * parallel experiment runner) can't silently drift the numbers.
 *
 * Three kinds of pins:
 *  - analytic golden values for the mechanism math (Table 5 QAC
 *    boundaries, Eqs. 5-7 with min_benefit = 8 decision outcomes,
 *    RSM SF_A/SF_B with alpha = 0.125 smoothing), computed by hand
 *    from the paper's formulas;
 *  - the seed-derivation constants (any change to deriveSeed
 *    silently reseeds every experiment in the repo);
 *  - end-to-end integer counters and IPC of a fast single-program
 *    configuration under the three headline policies.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "core/mdm.hh"
#include "core/rsm.hh"
#include "sim/experiment.hh"

using namespace profess;
using namespace profess::core;
using namespace profess::sim;

namespace
{

/** test_mdm.cc-style fast phase parameters. */
Mdm::Params
fastParams()
{
    Mdm::Params p;
    p.numPrograms = 2;
    p.minBenefit = 8;
    p.phaseUpdates = 16;
    p.recomputeEvery = 4;
    p.initialExpCnt = 0.0;
    return p;
}

void
feed(Mdm &mdm, ProgramId p, std::uint8_t q_i, unsigned count,
     unsigned n)
{
    for (unsigned i = 0; i < n; ++i)
        mdm.recordEviction(p, q_i, count);
}

struct DecideHarness
{
    hybrid::StcMeta meta{};
    policy::AccessInfo info{};

    DecideHarness()
    {
        std::memset(meta.ac, 0, sizeof(meta.ac));
        std::memset(meta.qacAtInsert, 0, sizeof(meta.qacAtInsert));
        info.group = 0;
        info.slot = 2;   // the M2 block under consideration
        info.m1Slot = 0; // incumbent
        info.accessor = 0;
        info.m1Owner = 1;
        info.meta = &meta;
    }
};

} // anonymous namespace

// ---------------------------------------------------------------
// Table 5: QAC quantization boundaries.
// ---------------------------------------------------------------

TEST(Golden, QacQuantizationBoundaries)
{
    // 0 | 1..7 | 8..31 | 32..63(sat)
    EXPECT_EQ(quantizeQac(0), 0);
    EXPECT_EQ(quantizeQac(1), 1);
    EXPECT_EQ(quantizeQac(7), 1);
    EXPECT_EQ(quantizeQac(8), 2);
    EXPECT_EQ(quantizeQac(31), 2);
    EXPECT_EQ(quantizeQac(32), 3);
    EXPECT_EQ(quantizeQac(63), 3);
}

// ---------------------------------------------------------------
// Eqs. 5-7 golden values.  Feeding 20 evictions of (qI=3,
// count=40) gives, at the recompute after update 20:
//   avg_cnt(3) = 800/20 = 40            (Eq. 6)
//   P(3|3)     = (20+1)/(20+3) = 21/23  (Eq. 7, Laplace)
//   exp_cnt(3) = 40 * 21/23 = 840/23    (Eq. 5)
// ---------------------------------------------------------------

TEST(Golden, ExpCntAfterTraining)
{
    Mdm mdm(fastParams());
    feed(mdm, 0, 3, 40, 20);
    EXPECT_NEAR(mdm.avgCnt(0, 3), 40.0, 1e-12);
    EXPECT_NEAR(mdm.transitionProb(0, 3, 3), 21.0 / 23.0, 1e-12);
    EXPECT_NEAR(mdm.expCnt(0, 3), 840.0 / 23.0, 1e-9);
    // Unseen insertion QAC: uniform Laplace mixture over qE.
    EXPECT_NEAR(mdm.expCnt(0, 0), 40.0 / 3.0, 1e-9);
}

// ---------------------------------------------------------------
// min_benefit = 8 decision boundaries (Sec. 3.2.3).  With
// exp_cnt = 840/23 = 36.5217: remaining(ac) = 840/23 - ac crosses
// min_benefit = 8 between ac = 28 (rem 8.52, swap) and ac = 29
// (rem 7.52, no swap).
// ---------------------------------------------------------------

TEST(Golden, MinBenefitVacantBoundary)
{
    Mdm mdm(fastParams());
    feed(mdm, 0, 3, 40, 20);
    DecideHarness h;
    h.info.m1Owner = invalidProgram; // vacant M1
    h.meta.qacAtInsert[h.info.slot] = 3;
    h.meta.bump(h.info.slot, 28);
    EXPECT_EQ(mdm.decide(h.info, false), policy::Decision::Swap);
    EXPECT_EQ(mdm.pathCount(Mdm::DecidePath::Vacant), 1u);

    DecideHarness h2;
    h2.info.m1Owner = invalidProgram;
    h2.meta.qacAtInsert[h2.info.slot] = 3;
    h2.meta.bump(h2.info.slot, 29);
    EXPECT_EQ(mdm.decide(h2.info, false), policy::Decision::NoSwap);
    EXPECT_EQ(mdm.pathCount(Mdm::DecidePath::NoBenefit), 1u);
}

TEST(Golden, MinBenefitNetBenefitBoundary)
{
    // Program 0 (M2 accessor): exp_cnt = 840/23 = 36.5217.
    // Program 1 (M1 incumbent): trained with count 20, so
    // exp_cnt = 20 * 21/23 = 420/23 = 18.2609.
    Mdm mdm(fastParams());
    feed(mdm, 0, 3, 40, 20);
    feed(mdm, 1, 3, 20, 20);

    // rem_m2 - rem_m1 = (840/23 - ac2) - (420/23 - 10)
    //                 = 420/23 + 10 - ac2 = 28.26 - ac2,
    // so the Case (c.ii) boundary falls between ac2 = 20 (benefit
    // 8.26, swap) and ac2 = 21 (benefit 7.26, no swap).
    {
        DecideHarness h;
        h.meta.qacAtInsert[h.info.slot] = 3;
        h.meta.bump(h.info.slot, 20);
        h.meta.qacAtInsert[h.info.m1Slot] = 3;
        h.meta.bump(h.info.m1Slot, 10);
        EXPECT_EQ(mdm.decide(h.info, false),
                  policy::Decision::Swap);
        EXPECT_EQ(mdm.pathCount(Mdm::DecidePath::NetBenefit), 1u);
    }
    {
        DecideHarness h;
        h.meta.qacAtInsert[h.info.slot] = 3;
        h.meta.bump(h.info.slot, 21);
        h.meta.qacAtInsert[h.info.m1Slot] = 3;
        h.meta.bump(h.info.m1Slot, 10);
        EXPECT_EQ(mdm.decide(h.info, false),
                  policy::Decision::NoSwap);
        EXPECT_EQ(mdm.pathCount(Mdm::DecidePath::Rejected), 1u);
    }
    // Depleted incumbent (ac = 19 > 420/23): Case (c.i) swaps.
    {
        DecideHarness h;
        h.meta.qacAtInsert[h.info.slot] = 3;
        h.meta.bump(h.info.slot, 20);
        h.meta.qacAtInsert[h.info.m1Slot] = 3;
        h.meta.bump(h.info.m1Slot, 19);
        EXPECT_EQ(mdm.decide(h.info, false),
                  policy::Decision::Swap);
        EXPECT_EQ(mdm.pathCount(Mdm::DecidePath::Depleted), 1u);
    }
}

// ---------------------------------------------------------------
// RSM SF_A / SF_B with the paper's alpha = 0.125 smoothing
// (Sec. 3.1.3): each Table 3 counter is incremented by one and
// exponentially smoothed before entering Eqs. 2-3.
// ---------------------------------------------------------------

TEST(Golden, RsmSfASmoothingAlphaEighth)
{
    Rsm::Params p;
    p.numPrograms = 2;
    p.numRegions = 8;
    p.sampleRequests = 100;
    p.alpha = 0.125;
    Rsm rsm(p);

    // Period 1: 20 private requests (10 from M1), 80 shared
    // (20 from M1).  Smoothers prime at x+1.
    for (int i = 0; i < 20; ++i)
        rsm.onServed(0, 0, i < 10);
    for (int i = 0; i < 80; ++i)
        rsm.onServed(0, 5, i < 20);
    ASSERT_EQ(rsm.periods(0), 1u);
    double sf1 = (11.0 / 21.0) / (21.0 / 81.0); // 891/441
    EXPECT_NEAR(rsm.sfA(0), sf1, 1e-12);

    // Period 2: 40 private (10 M1), 60 shared (30 M1).
    // a = prev + 0.125 * (x+1 - prev) per counter:
    //   m1p: 11 + 0.125*(11-11) = 11
    //   totp: 21 + 0.125*(41-21) = 23.5
    //   m1s: 21 + 0.125*(31-21) = 22.25
    //   tots: 81 + 0.125*(61-81) = 78.5
    for (int i = 0; i < 40; ++i)
        rsm.onServed(0, 0, i < 10);
    for (int i = 0; i < 60; ++i)
        rsm.onServed(0, 5, i < 30);
    ASSERT_EQ(rsm.periods(0), 2u);
    double sf2 = (11.0 / 23.5) / (22.25 / 78.5);
    EXPECT_NEAR(rsm.sfA(0), sf2, 1e-12);
}

TEST(Golden, RsmSfBSwapAccounting)
{
    Rsm::Params p;
    p.numPrograms = 2;
    p.numRegions = 8;
    p.sampleRequests = 10;
    p.alpha = 0.125;
    Rsm rsm(p);

    // Program 0: two self-swaps plus one displacement of program 1,
    // all in shared regions -> swapSelf = 2, swapTotal = 3.
    rsm.onSwap(0, 0, false);
    rsm.onSwap(0, 0, false);
    rsm.onSwap(0, 1, false);
    // Private-region swaps are not counted (Sec. 3.1.2).
    rsm.onSwap(0, 0, true);
    for (int i = 0; i < 10; ++i)
        rsm.onServed(0, 5, false);
    ASSERT_EQ(rsm.periods(0), 1u);
    // SF_B = (total+1)/(self+1) = 4/3 after priming.
    EXPECT_NEAR(rsm.sfB(0), 4.0 / 3.0, 1e-12);
}

// ---------------------------------------------------------------
// Seed-derivation constants.  deriveSeed defines the identity of
// every experiment job; a change here reseeds the whole repo's
// results, so it must never drift unnoticed.
// ---------------------------------------------------------------

TEST(Golden, SeedDerivationConstants)
{
    EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ull);
    EXPECT_EQ(deriveSeed(1, "pom", "w01"), 0x804aeeff04fcd246ull);
    EXPECT_EQ(deriveSeed(1, "mdm", "w01"), 0x761e67319c5b64ddull);
}

// ---------------------------------------------------------------
// End-to-end golden run: mcf on the fast single-core system,
// seed 1.  Integer counters are pinned exactly; IPC to 1e-9
// relative.  If a refactor legitimately changes the physics,
// update these alongside EXPERIMENTS.md.
// ---------------------------------------------------------------

TEST(Golden, EndToEndSingleCoreMcf)
{
    SystemConfig c = SystemConfig::singleCore();
    c.core.instrQuota = 150000;
    c.core.warmupInstr = 50000;
    ExperimentRunner runner(c);

    RunResult pom = runner.run("pom", {"mcf"});
    ASSERT_TRUE(pom.completed);
    EXPECT_EQ(pom.servedTotal, 9085u);
    EXPECT_EQ(pom.swaps, 323u);
    EXPECT_NEAR(pom.ipc[0], 0.061480317103094567, 1e-9);
    EXPECT_NEAR(pom.m1Fraction, 0.29730324711062189, 1e-9);

    RunResult mdm = runner.run("mdm", {"mcf"});
    ASSERT_TRUE(mdm.completed);
    EXPECT_EQ(mdm.servedTotal, 9085u);
    EXPECT_EQ(mdm.swaps, 29u);
    EXPECT_NEAR(mdm.ipc[0], 0.079062858010098852, 1e-9);

    // At this scale the single-program ProFess run matches MDM
    // (RSM guidance needs co-runners to bite).
    RunResult pf = runner.run("profess", {"mcf"});
    ASSERT_TRUE(pf.completed);
    EXPECT_EQ(pf.swaps, 29u);
    EXPECT_NEAR(pf.ipc[0], 0.079062858010098852, 1e-9);
}
