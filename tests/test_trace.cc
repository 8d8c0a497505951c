/**
 * @file
 * Tests for the workload substrate: address patterns, the synthetic
 * generator's MPKI/write-fraction calibration, Table 9 profiles, and
 * trace-file round trips.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>

#include "trace/patterns.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"

using namespace profess;
using namespace profess::trace;

namespace
{

constexpr std::uint64_t fp = 1 * MiB;

/** Order-sensitive hash of a source's next n accesses. */
std::uint64_t
streamHash(TraceSource &src, std::uint64_t n)
{
    std::uint64_t h = 0;
    MemAccess a;
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!src.next(a))
            return 0;
        h = hashCombine(h, a.vaddr);
        h = hashCombine(h, a.isWrite ? 1u : 0u);
        h = hashCombine(h, a.instGap);
    }
    return h;
}

} // anonymous namespace

TEST(Patterns, CdfLowerBoundMatchesStdLowerBound)
{
    std::vector<double> cdf = {0.1, 0.25, 0.25, 0.5, 0.75, 0.9, 1.0};
    for (std::size_t n = 1; n <= cdf.size(); ++n) {
        std::vector<double> us = {0.0, 0.05, 0.3, 0.99, 1.0, 1.5};
        // Every edge, and just below and above it.
        for (std::size_t i = 0; i < n; ++i) {
            us.push_back(cdf[i]);
            us.push_back(std::nextafter(cdf[i], 0.0));
            us.push_back(std::nextafter(cdf[i], 2.0));
        }
        for (double u : us) {
            auto want = static_cast<std::size_t>(
                std::lower_bound(cdf.begin(), cdf.begin() + n, u) -
                cdf.begin());
            EXPECT_EQ(cdfLowerBound(cdf.data(), n, u), want)
                << "n=" << n << " u=" << u;
        }
    }
    // A Zipf-sized table against random draws.
    std::vector<double> big(1000);
    double acc = 0.0;
    for (std::size_t r = 0; r < big.size(); ++r) {
        acc += 1.0 / static_cast<double>(r + 1);
        big[r] = acc;
    }
    for (auto &c : big)
        c /= acc;
    Rng rng(8);
    for (int i = 0; i < 20000; ++i) {
        double u = i % 2 == 0 ? rng.uniform()
                              : big[rng.below(1000)]; // an edge
        auto want = static_cast<std::size_t>(
            std::lower_bound(big.begin(), big.end(), u) -
            big.begin());
        ASSERT_EQ(cdfLowerBound(big.data(), big.size(), u), want)
            << u;
    }
}

TEST(Patterns, SequentialWraps)
{
    SequentialPattern p(4 * lineBytes);
    Rng rng(1);
    EXPECT_EQ(p.next(rng), 0u);
    EXPECT_EQ(p.next(rng), 64u);
    EXPECT_EQ(p.next(rng), 128u);
    EXPECT_EQ(p.next(rng), 192u);
    EXPECT_EQ(p.next(rng), 0u);
}

TEST(Patterns, StridedCoversAllLines)
{
    StridedPattern p(16 * lineBytes, 4 * lineBytes);
    Rng rng(1);
    std::set<Addr> seen;
    for (int i = 0; i < 16; ++i)
        seen.insert(p.next(rng));
    EXPECT_EQ(seen.size(), 16u);
}

TEST(Patterns, HotspotSkewed)
{
    HotspotPattern p(fp, 1.0);
    Rng rng(2);
    std::map<std::uint64_t, unsigned> page_counts;
    for (int i = 0; i < 20000; ++i)
        ++page_counts[p.next(rng) / (4 * KiB)];
    unsigned max_count = 0;
    for (auto &kv : page_counts)
        max_count = std::max(max_count, kv.second);
    // Uniform would give ~78 per page (256 pages); Zipf(1.0) must
    // concentrate far more on the hottest page.
    EXPECT_GT(max_count, 500u);
}

TEST(Patterns, HotspotRebuildMovesHotPage)
{
    HotspotPattern p(fp, 1.2);
    Rng rng(3);
    auto hottest = [&]() {
        std::map<std::uint64_t, unsigned> counts;
        for (int i = 0; i < 5000; ++i)
            ++counts[p.next(rng) / (4 * KiB)];
        std::uint64_t best = 0;
        unsigned best_n = 0;
        for (auto &kv : counts) {
            if (kv.second > best_n) {
                best_n = kv.second;
                best = kv.first;
            }
        }
        return best;
    };
    std::uint64_t before = hottest();
    // A rebuild re-permutes ranks; the hot page should move (the
    // chance it stays is ~1/256).
    p.rebuild(rng);
    std::uint64_t after = hottest();
    EXPECT_NE(before, after);
}

TEST(Patterns, UniformInBounds)
{
    UniformPattern p(fp);
    Rng rng(4);
    for (int i = 0; i < 1000; ++i) {
        Addr a = p.next(rng);
        EXPECT_LT(a, fp);
        EXPECT_EQ(a % lineBytes, 0u);
    }
}

TEST(Patterns, ClusteredDwellsInWindow)
{
    ClusteredPattern p(fp, 4 * KiB, 8.0);
    Rng rng(5);
    // Consecutive accesses mostly share the 4-KiB window.
    unsigned same_window = 0;
    Addr prev = p.next(rng);
    for (int i = 0; i < 5000; ++i) {
        Addr a = p.next(rng);
        same_window += a / (4 * KiB) == prev / (4 * KiB);
        prev = a;
    }
    // Mean dwell 8 => ~7/8 of transitions stay, minus window reuse
    // noise.
    EXPECT_GT(same_window, 5000u * 6 / 10);
}

TEST(Patterns, MultiStreamInterleavesSequentialRuns)
{
    MultiStreamPattern p(fp, 4);
    Rng rng(6);
    // Track per-64B deltas: within a stream they are +64.
    std::map<Addr, int> seen;
    for (int i = 0; i < 4000; ++i)
        ++seen[p.next(rng)];
    // Streams advance without repeating (footprint >> samples).
    for (auto &kv : seen)
        EXPECT_LE(kv.second, 2);
}

TEST(Patterns, MixedRespectsBounds)
{
    MixedPattern mix;
    mix.add(1.0, std::make_unique<SequentialPattern>(fp));
    mix.add(2.0, std::make_unique<UniformPattern>(fp));
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(mix.next(rng), fp);
}

TEST(Synthetic, MpkiCalibrated)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 25.0;
    sp.writeFraction = 0.0;
    sp.burstFraction = 0.3;
    sp.seed = 9;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    MemAccess a;
    std::uint64_t instr = 0, accesses = 0;
    for (int i = 0; i < 50000; ++i) {
        ASSERT_TRUE(src.next(a));
        instr += a.instGap + 1;
        ++accesses;
    }
    double mpki = 1000.0 * static_cast<double>(accesses) /
                  static_cast<double>(instr);
    EXPECT_NEAR(mpki, 25.0, 1.5);
}

TEST(Synthetic, WriteFractionCalibrated)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.writeFraction = 0.35;
    sp.seed = 10;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    MemAccess a;
    std::uint64_t writes = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        ASSERT_TRUE(src.next(a));
        writes += a.isWrite;
    }
    EXPECT_NEAR(static_cast<double>(writes) / n, 0.35, 0.02);
}

TEST(Synthetic, PhasedStreamGolden)
{
    // Every stateful pattern's draws, 20 phase rebuilds and the gap
    // model, bit for bit, as one-at-a-time generation produced them.
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.writeFraction = 0.3;
    sp.burstFraction = 0.3;
    sp.phaseAccesses = 997;
    sp.seed = 21;
    auto mix = std::make_unique<MixedPattern>();
    mix->add(1.0, std::make_unique<MultiStreamPattern>(fp, 3));
    mix->add(0.5, std::make_unique<StridedPattern>(fp, 256));
    mix->add(1.0, std::make_unique<HotspotPattern>(fp, 1.0));
    mix->add(1.0,
             std::make_unique<ClusteredPattern>(fp, 8 * KiB, 4.0));
    SyntheticTraceSource src(sp, std::move(mix));
    EXPECT_EQ(streamHash(src, 20000), 0xfaf06c5c5d9d63f0ull);
}

TEST(Synthetic, ResetReproduces)
{
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.seed = 11;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    std::vector<MemAccess> first(100);
    for (auto &a : first)
        ASSERT_TRUE(src.next(a));
    src.reset();
    for (const auto &want : first) {
        MemAccess got;
        ASSERT_TRUE(src.next(got));
        EXPECT_EQ(got.vaddr, want.vaddr);
        EXPECT_EQ(got.isWrite, want.isWrite);
        EXPECT_EQ(got.instGap, want.instGap);
    }
}

class ProfileSweep : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ProfileSweep, BuildsAndStaysInFootprint)
{
    const char *name = GetParam();
    const BenchmarkProfile *p = findProfile(name);
    ASSERT_NE(p, nullptr);
    auto src = makeSpecSource(name, defaultScale, 13);
    std::uint64_t footprint = src->footprintBytes();
    // Footprint ~ Table 9 value / 100, in whole pages.
    double expect =
        p->footprintMB * defaultScale * static_cast<double>(MiB);
    EXPECT_NEAR(static_cast<double>(footprint), expect,
                static_cast<double>(4 * KiB) + 1);

    MemAccess a;
    std::uint64_t instr = 0, n = 20000;
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_TRUE(src->next(a));
        EXPECT_LT(a.vaddr, footprint);
        instr += a.instGap + 1;
    }
    double mpki =
        1000.0 * static_cast<double>(n) / static_cast<double>(instr);
    EXPECT_NEAR(mpki, p->mpki, p->mpki * 0.10) << name;
}

TEST_P(ProfileSweep, ResetRestartsIdenticalStream)
{
    // Past the first phase rebuild when the profile has one (the
    // Zipf permutation changes there), and ending mid-batch.
    const BenchmarkProfile *p = findProfile(GetParam());
    ASSERT_NE(p, nullptr);
    const std::uint64_t n = p->phaseAccesses + 1001;
    ASSERT_NE(n % SyntheticTraceSource::batchSize, 0u);
    auto src = makeSpecSource(GetParam(), defaultScale, 13);
    std::uint64_t first = streamHash(*src, n);
    src->reset();
    EXPECT_EQ(streamHash(*src, n), first) << GetParam();
}

TEST_P(ProfileSweep, StreamGolden)
{
    // Hashes of the first 200k accesses at two seeds, as
    // one-at-a-time generation with plain divides produced them.
    struct Golden
    {
        const char *name;
        std::uint64_t seed13;
        std::uint64_t seed4099;
    };
    static const Golden goldens[] = {
        {"bwaves", 0x829bf356187efed7ull, 0x9f55845eb6a15360ull},
        {"GemsFDTD", 0x9d7c2d7ee7d54f05ull, 0xd7af19f8c4583000ull},
        {"lbm", 0xb53c0b73416df397ull, 0x60b3f7d65768738eull},
        {"leslie3d", 0x10fc869a3c635d5bull, 0x60074433071dd088ull},
        {"libquantum", 0x44d55aee8700d29full, 0x2437a7685b042895ull},
        {"mcf", 0x2b3ab058ce600f4dull, 0xf4af1e1e47bc331full},
        {"milc", 0xe7eb5ba2b9f90b3bull, 0xe161df9e6580dffcull},
        {"omnetpp", 0x74a4323686765806ull, 0x59d713f14a6b3944ull},
        {"soplex", 0x8c15b44a25eaaf7cull, 0xb7a2423edc7acd62ull},
        {"zeusmp", 0xe3bef14e5722be1eull, 0x4c30f40c5b3102faull},
    };
    const Golden *g = nullptr;
    for (const Golden &c : goldens) {
        if (std::strcmp(c.name, GetParam()) == 0)
            g = &c;
    }
    ASSERT_NE(g, nullptr);
    auto a = makeSpecSource(g->name, defaultScale, 13);
    EXPECT_EQ(streamHash(*a, 200000), g->seed13);
    auto b = makeSpecSource(g->name, defaultScale, 4099);
    EXPECT_EQ(streamHash(*b, 200000), g->seed4099);
}

INSTANTIATE_TEST_SUITE_P(
    Table9, ProfileSweep,
    ::testing::Values("bwaves", "GemsFDTD", "lbm", "leslie3d",
                      "libquantum", "mcf", "milc", "omnetpp",
                      "soplex", "zeusmp"));

TEST(Profiles, UnknownNameIsNull)
{
    EXPECT_EQ(findProfile("nosuch"), nullptr);
}

TEST(TraceFile, RoundTrip)
{
    std::string path = ::testing::TempDir() + "/pf_roundtrip.trace";
    SyntheticParams sp;
    sp.footprintBytes = fp;
    sp.mpki = 20.0;
    sp.seed = 14;
    SyntheticTraceSource src(sp,
                             std::make_unique<UniformPattern>(fp));
    std::vector<MemAccess> ref(500);
    {
        TraceWriter w(path, fp);
        for (auto &a : ref) {
            ASSERT_TRUE(src.next(a));
            w.append(a);
        }
        w.close();
    }
    FileTraceSource file(path);
    EXPECT_EQ(file.count(), 500u);
    EXPECT_EQ(file.footprintBytes(), fp);
    for (const auto &want : ref) {
        MemAccess got;
        ASSERT_TRUE(file.next(got));
        EXPECT_EQ(got.vaddr, want.vaddr);
        EXPECT_EQ(got.isWrite, want.isWrite);
        EXPECT_EQ(got.instGap, want.instGap);
    }
    MemAccess end;
    EXPECT_FALSE(file.next(end));
    // reset() rewinds.
    file.reset();
    MemAccess again;
    ASSERT_TRUE(file.next(again));
    EXPECT_EQ(again.vaddr, ref[0].vaddr);
    std::remove(path.c_str());
}

TEST(TraceFile, RecordHelper)
{
    std::string path = ::testing::TempDir() + "/pf_record.trace";
    auto src = makeSpecSource("soplex", defaultScale, 15);
    EXPECT_EQ(recordTrace(*src, 300, path), 300u);
    FileTraceSource file(path);
    EXPECT_EQ(file.count(), 300u);
    std::remove(path.c_str());
}
