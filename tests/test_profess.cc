/**
 * @file
 * Tests for the ProFess integration (Sec. 3.3, Table 7): case
 * classification with hysteresis thresholds, decision routing, and
 * RSM wiring; plus the generic RSM-guided wrapper.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>

#include "core/profess.hh"
#include "core/rsm_guided.hh"
#include "policy/static_policies.hh"
#include "sim/system.hh"

using namespace profess;
using namespace profess::core;

namespace
{

struct ProfessFixture : public ::testing::Test
{
    hybrid::HybridLayout layout =
        hybrid::HybridLayout::build(1 * MiB, 8 * MiB, 2, 32, 9);
    os::PageAllocator alloc{layout.numGroups, 9, 32, 2, 7};
    std::unique_ptr<ProfessPolicy> pol;
    hybrid::StcMeta meta{};
    policy::AccessInfo info{};

    void
    SetUp() override
    {
        ProfessPolicy::Params p;
        p.mdm.numPrograms = 2;
        p.mdm.phaseUpdates = 16;
        p.mdm.recomputeEvery = 4;
        p.rsm.numPrograms = 2;
        p.rsm.numRegions = 32;
        p.rsm.sampleRequests = 10;
        p.rsm.alpha = 1.0;
        pol = std::make_unique<ProfessPolicy>(layout, alloc, p);

        std::memset(meta.ac, 0, sizeof(meta.ac));
        std::memset(meta.qacAtInsert, 0, sizeof(meta.qacAtInsert));
        info.group = 0;
        info.slot = 2;
        info.m1Slot = 0;
        info.region = 10;
        info.accessor = 0; // c_M2
        info.m1Owner = 1;  // c_M1
        info.meta = &meta;
    }

    /**
     * Drive RSM so that program p ends a period with the given
     * private/shared M1 fractions and swap-self ratio.
     */
    void
    setFactors(ProgramId p, double sf_a_intent, double sf_b_intent)
    {
        // Encode intent directly: high sf_a_intent -> low shared M1
        // fraction; high sf_b_intent -> many non-self swaps.
        Rsm &rsm = *pol->rsm();
        int shared_m1 =
            std::max(0, static_cast<int>(8.0 / sf_a_intent) - 1);
        int swaps = static_cast<int>(sf_b_intent) - 1;
        // Partner the swaps with a vacant M1 side so the other
        // program's counters are not contaminated.
        for (int i = 0; i < swaps; ++i)
            rsm.onSwap(p, invalidProgram, false);
        for (int i = 0; i < 2; ++i)
            rsm.onServed(p, static_cast<unsigned>(p), true);
        for (int i = 0; i < 8; ++i)
            rsm.onServed(p, 10, i < shared_m1);
    }
};

} // anonymous namespace

TEST_F(ProfessFixture, SameProgramWhenOwnersMatch)
{
    info.m1Owner = info.accessor;
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::SameProgram);
    info.m1Owner = invalidProgram;
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::SameProgram);
}

TEST_F(ProfessFixture, DefaultWhenFactorsEqual)
{
    // Fresh RSM: SF_A = SF_B = 1 for both programs.
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Default);
}

TEST_F(ProfessFixture, Case1WhenAccessorSuffers)
{
    setFactors(0, 4.0, 4.0); // c_M2 suffers
    setFactors(1, 1.0, 1.0);
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Case1);
}

TEST_F(ProfessFixture, Case2WhenIncumbentSuffers)
{
    setFactors(0, 1.0, 1.0);
    setFactors(1, 4.0, 4.0); // c_M1 suffers
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Case2);
    EXPECT_EQ(pol->onM2Access(info), policy::Decision::NoSwap);
    EXPECT_GT(pol->guidance()->count(GuidanceCase::Case2),
              0u);
}

TEST_F(ProfessFixture, Case3ProductProtectsIncumbent)
{
    // SF_A says c2 suffers, SF_B says c1 suffers, and the product
    // favours c1 (third condition of Case 3).
    setFactors(0, 2.0, 1.0);  // c2: SF_A high, SF_B low
    setFactors(1, 1.0, 8.0);  // c1: SF_A low, SF_B high
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Case3);
    EXPECT_EQ(pol->onM2Access(info), policy::Decision::NoSwap);
}

TEST_F(ProfessFixture, MixedFactorsWithoutProductFallThrough)
{
    // SF_B(c1) > SF_B(c2) but the product favours c2 -> default.
    setFactors(0, 6.0, 1.0);
    setFactors(1, 1.0, 2.0);
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Default);
}

TEST_F(ProfessFixture, ThresholdSuppressesTinyDifferences)
{
    // Differences under ~3% must not trigger any case.
    Rsm &rsm = *pol->rsm();
    // Both programs identical by construction.
    for (ProgramId p : {0, 1}) {
        for (int i = 0; i < 2; ++i)
            rsm.onServed(p, static_cast<unsigned>(p), true);
        for (int i = 0; i < 8; ++i)
            rsm.onServed(p, 10, i < 4);
    }
    EXPECT_EQ(pol->guidance()->caseOf(info),
              GuidanceCase::Default);
}

TEST_F(ProfessFixture, Case1ConsultsMdmBenefit)
{
    setFactors(0, 4.0, 4.0);
    setFactors(1, 1.0, 1.0);
    // No MDM statistics yet -> exp = 0 -> even Case 1 must not
    // swap (RSM is agnostic to M1/M2 characteristics; MDM keeps the
    // benefit veto, Sec. 3.3).
    meta.bump(info.slot, 1);
    EXPECT_EQ(pol->onM2Access(info), policy::Decision::NoSwap);
    // Once the block class looks valuable, Case 1 forces the swap
    // even though the incumbent is busy.
    for (int i = 0; i < 24; ++i)
        pol->mdm()->recordEviction(0, 3, 60);
    for (int i = 0; i < 24; ++i)
        pol->mdm()->recordEviction(1, 3, 60);
    meta.qacAtInsert[info.slot] = 3;
    meta.qacAtInsert[info.m1Slot] = 3;
    meta.bump(info.m1Slot, 2); // busy incumbent
    EXPECT_EQ(pol->onM2Access(info), policy::Decision::Swap);
}

TEST_F(ProfessFixture, ServedForwardsToRsm)
{
    info.fromM1 = true;
    info.region = 0; // program 0's private region
    for (int i = 0; i < 10; ++i)
        pol->onServed(info);
    EXPECT_EQ(pol->rsm()->periods(0), 1u);
}

TEST_F(ProfessFixture, SwapCompleteForwardsToRsm)
{
    pol->onSwapComplete(0, 2, 0, 0, 1, false);
    for (int i = 0; i < 10; ++i)
        pol->onServed(info);
    // One non-self swap recorded: SF_B(0) = 2 (alpha = 1).
    EXPECT_NEAR(pol->rsm()->sfB(0), 2.0, 1e-9);
}

TEST(RsmGuided, WrapsInnerPolicy)
{
    Rsm::Params rp;
    rp.numPrograms = 2;
    rp.numRegions = 32;
    rp.sampleRequests = 10;
    rp.alpha = 1.0;
    RsmGuidedPolicy pol(std::make_unique<policy::NeverPolicy>(), rp,
                        1.0 + 1.0 / 32.0, 1.0 + 1.0 / 16.0);
    EXPECT_STREQ(pol.name(), "rsm-never");

    hybrid::StcMeta meta{};
    std::memset(meta.ac, 0, sizeof(meta.ac));
    policy::AccessInfo info{};
    info.accessor = 0;
    info.m1Owner = 1;
    info.region = 10;
    info.meta = &meta;

    // Equal factors: inner policy (never) decides.
    EXPECT_EQ(pol.onM2Access(info), policy::Decision::NoSwap);

    // Make program 0 suffer: SF_A and SF_B up.
    for (int i = 0; i < 3; ++i)
        pol.rsm()->onSwap(0, invalidProgram, false);
    for (int i = 0; i < 2; ++i)
        pol.rsm()->onServed(0, 0, true);
    for (int i = 0; i < 8; ++i)
        pol.rsm()->onServed(0, 10, false);
    for (int i = 0; i < 2; ++i)
        pol.rsm()->onServed(1, 1, true);
    for (int i = 0; i < 8; ++i)
        pol.rsm()->onServed(1, 10, i < 6);
    // Case 1 now forces the swap despite the inner "never".
    EXPECT_EQ(pol.onM2Access(info), policy::Decision::Swap);
}

TEST(RsmGuided, ThresholdsComeFromTheConfig)
{
    // rsm-pom reads factor_threshold as profess does.  Program 0
    // pinned at twice program 1's factors is Case 1 under the
    // default threshold, a forced swap; within a 4x threshold it is
    // not, and PoM's first access to a block never reaches PoM's
    // own threshold.
    sim::SystemConfig cfg = sim::SystemConfig::quadCore();
    hybrid::HybridLayout layout = hybrid::HybridLayout::build(
        cfg.m1BytesPerChannel, cfg.m2BytesPerChannel,
        cfg.numChannels, cfg.numRegions, cfg.slotsPerGroup);
    os::PageAllocator alloc(layout.numGroups, cfg.slotsPerGroup,
                            cfg.numRegions, 2, cfg.allocSeed);
    hybrid::StcMeta meta{};
    policy::AccessInfo info{};
    info.slot = 2;
    info.region = 10;
    info.accessor = 0; // c_M2
    info.m1Owner = 1;  // c_M1
    info.meta = &meta;

    auto decide = [&](double factor_threshold) {
        cfg.professFactorThreshold = factor_threshold;
        std::unique_ptr<policy::MigrationPolicy> pol =
            sim::findPolicy("rsm-pom")(cfg, layout, alloc, 2);
        pol->rsm()->pinFactors(0, 2.0, 2.0);
        pol->rsm()->pinFactors(1, 1.0, 1.0);
        return pol->onM2Access(info);
    };
    EXPECT_EQ(decide(1.0 + 1.0 / 32.0), policy::Decision::Swap);
    EXPECT_EQ(decide(4.0), policy::Decision::NoSwap);
}
