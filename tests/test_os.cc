/**
 * @file
 * Tests for the region-aware first-touch page allocator
 * (Sec. 3.1.1): private-region exclusivity, uniform interleaving,
 * stable translations, ownership tracking.
 */

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "os/page_allocator.hh"

using namespace profess;
using namespace profess::os;

namespace
{

constexpr std::uint64_t groups = 1024; // G/2 = 512, regions 32
constexpr unsigned slots = 9;
constexpr unsigned regions = 32;
constexpr unsigned programs = 4;

PageAllocator
makeAlloc()
{
    return PageAllocator(groups, slots, regions, programs, 7);
}

} // anonymous namespace

TEST(PageAllocator, FrameCount)
{
    PageAllocator a = makeAlloc();
    EXPECT_EQ(a.numFrames(), groups * slots / 2);
}

TEST(PageAllocator, RegionGeometryMatchesFig3)
{
    PageAllocator a = makeAlloc();
    // Frame f covers groups 2f, 2f+1 (mod G); region must equal the
    // groups' region.
    for (std::uint64_t f = 0; f < 200; ++f) {
        unsigned rf = a.regionOfFrame(f);
        unsigned rg = a.regionOfGroup((2 * f) % groups);
        EXPECT_EQ(rf, rg);
        EXPECT_EQ(rg, a.regionOfGroup((2 * f + 1) % groups));
    }
}

TEST(PageAllocator, RegionsUniform)
{
    PageAllocator a = makeAlloc();
    std::vector<std::uint64_t> per(regions, 0);
    for (std::uint64_t f = 0; f < a.numFrames(); ++f)
        ++per[a.regionOfFrame(f)];
    for (unsigned r = 1; r < regions; ++r)
        EXPECT_EQ(per[r], per[0]);
}

TEST(PageAllocator, PrivateOwnership)
{
    PageAllocator a = makeAlloc();
    for (unsigned r = 0; r < regions; ++r) {
        if (r < programs)
            EXPECT_EQ(a.privateOwner(r), static_cast<ProgramId>(r));
        else
            EXPECT_EQ(a.privateOwner(r), invalidProgram);
    }
    EXPECT_EQ(a.privateRegionOf(2), 2u);
}

TEST(PageAllocator, TranslationIsStable)
{
    PageAllocator a = makeAlloc();
    std::uint64_t f1 = a.translate(0, 42);
    std::uint64_t f2 = a.translate(0, 42);
    EXPECT_EQ(f1, f2);
    EXPECT_EQ(a.allocatedFrames(0), 1u);
}

TEST(PageAllocator, TranslationCacheCountsHits)
{
    PageAllocator a = makeAlloc();
    // First touch misses; repeats of the same (program, vpage) hit
    // the one-entry cache, a different page misses again.
    a.translate(0, 42);
    a.translate(0, 42);
    a.translate(0, 42);
    a.translate(0, 7);
    a.translate(0, 42); // evicted by vpage 7: miss
    EXPECT_EQ(a.stats().counter("translations"), 5u);
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
    EXPECT_NEAR(a.cacheHitRate(), 2.0 / 5.0, 1e-12);
}

TEST(PageAllocator, TranslationCacheIsPerProgram)
{
    PageAllocator a = makeAlloc();
    // Interleaved programs must not evict each other's entry.
    a.translate(0, 42);
    a.translate(1, 42);
    std::uint64_t f0 = a.translate(0, 42); // hit, program 0's entry
    std::uint64_t f1 = a.translate(1, 42); // hit, program 1's entry
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
    EXPECT_NE(f0, f1); // distinct programs, distinct frames
    // Releasing a program invalidates its cached entry.
    a.releaseProgram(1);
    a.translate(1, 42);
    EXPECT_EQ(a.stats().counter("cache_hits"), 2u);
}

TEST(PageAllocator, DistinctPagesDistinctFrames)
{
    PageAllocator a = makeAlloc();
    std::set<std::uint64_t> frames;
    for (std::uint64_t v = 0; v < 500; ++v)
        EXPECT_TRUE(frames.insert(a.translate(1, v)).second);
}

TEST(PageAllocator, PrivateRegionsExcludeOthers)
{
    PageAllocator a = makeAlloc();
    // Allocate heavily for every program; no frame may land in
    // another program's private region.
    for (unsigned p = 0; p < programs; ++p) {
        for (std::uint64_t v = 0; v < 400; ++v) {
            std::uint64_t f =
                a.translate(static_cast<ProgramId>(p), v);
            unsigned r = a.regionOfFrame(f);
            ProgramId priv = a.privateOwner(r);
            if (priv != invalidProgram)
                EXPECT_EQ(priv, static_cast<ProgramId>(p));
        }
    }
}

TEST(PageAllocator, OwnPrivateRegionIsUsed)
{
    PageAllocator a = makeAlloc();
    bool private_hit = false;
    for (std::uint64_t v = 0; v < 2000 && !private_hit; ++v) {
        std::uint64_t f = a.translate(0, v);
        private_hit = a.regionOfFrame(f) == a.privateRegionOf(0);
    }
    EXPECT_TRUE(private_hit);
}

TEST(PageAllocator, SpreadsAcrossRegions)
{
    PageAllocator a = makeAlloc();
    std::set<unsigned> used;
    for (std::uint64_t v = 0; v < 200; ++v)
        used.insert(a.regionOfFrame(a.translate(0, v)));
    // Round-robin placement must reach most allowed regions.
    EXPECT_GE(used.size(), regions - programs);
}

TEST(PageAllocator, OwnerOfBlock)
{
    PageAllocator a = makeAlloc();
    std::uint64_t f = a.translate(2, 7);
    EXPECT_EQ(a.ownerOfBlock(2 * f), 2);
    EXPECT_EQ(a.ownerOfBlock(2 * f + 1), 2);
    // Some unallocated frame.
    for (std::uint64_t g = 0; g < a.numFrames(); ++g) {
        if (g != f) {
            EXPECT_EQ(a.ownerOfBlock(2 * g), invalidProgram);
            break;
        }
    }
}

TEST(PageAllocator, ReleaseReturnsFrames)
{
    PageAllocator a = makeAlloc();
    std::uint64_t before = a.freeFramesInRegion(10);
    for (std::uint64_t v = 0; v < 300; ++v)
        a.translate(3, v);
    EXPECT_LT(a.freeFramesInRegion(10), before + 1);
    a.releaseProgram(3);
    EXPECT_EQ(a.allocatedFrames(3), 0u);
    std::uint64_t total_free = 0;
    for (unsigned r = 0; r < regions; ++r)
        total_free += a.freeFramesInRegion(r);
    EXPECT_EQ(total_free, a.numFrames());
}

TEST(PageAllocator, SparseVpagesMatchReferenceMap)
{
    // Trace files map arbitrary 64-bit pages: random ones, strided
    // ones whose low bits all agree, and the extremes.  Every
    // translation must agree with a reference map through many
    // doublings of the page table.
    PageAllocator a = makeAlloc();
    std::unordered_map<std::uint64_t, std::uint64_t> ref;
    std::set<std::uint64_t> frames;
    std::vector<std::uint64_t> seen;
    Rng rng(99, 3);
    for (int i = 0; i < 7000; ++i) {
        std::uint64_t v;
        std::uint32_t kind = rng.below(6);
        if (i == 0) {
            v = 0;
        } else if (i == 1) {
            v = ~std::uint64_t{0};
        } else if (kind < 3 && !seen.empty()) {
            v = seen[rng.below(static_cast<std::uint32_t>(
                seen.size()))];
        } else if (kind == 3) {
            v = static_cast<std::uint64_t>(rng.below(4096)) << 40;
        } else {
            v = (static_cast<std::uint64_t>(rng.next()) << 32) |
                rng.next();
        }
        std::uint64_t f = a.translate(1, v);
        auto [it, fresh] = ref.emplace(v, f);
        if (fresh) {
            seen.push_back(v);
            EXPECT_TRUE(frames.insert(f).second) << "frame reused";
            EXPECT_EQ(a.ownerOfBlock(2 * f), 1);
        } else {
            ASSERT_EQ(f, it->second) << "vpage " << v;
        }
    }
    EXPECT_GT(ref.size(), 2000u);
    EXPECT_EQ(a.allocatedFrames(1), ref.size());
    for (const auto &[v, f] : ref)
        ASSERT_EQ(a.translate(1, v), f);
    a.releaseProgram(1);
    EXPECT_EQ(a.allocatedFrames(1), 0u);
    std::uint64_t total_free = 0;
    for (unsigned r = 0; r < regions; ++r)
        total_free += a.freeFramesInRegion(r);
    EXPECT_EQ(total_free, a.numFrames());
}

TEST(PageAllocator, DeterministicForSeed)
{
    PageAllocator a(groups, slots, regions, programs, 123);
    PageAllocator b(groups, slots, regions, programs, 123);
    for (std::uint64_t v = 0; v < 100; ++v)
        EXPECT_EQ(a.translate(1, v), b.translate(1, v));
}

TEST(PageAllocator, RejectsBadGeometry)
{
    // G/2 not a multiple of regions.
    EXPECT_EXIT(PageAllocator(100, 9, 32, 4),
                ::testing::ExitedWithCode(1), "multiple");
    // More programs than regions.
    EXPECT_EXIT(PageAllocator(1024, 9, 4, 8),
                ::testing::ExitedWithCode(1), "regions");
}
