/**
 * @file
 * OS physical-page allocation with region awareness (Sec. 3.1.1).
 *
 * The OS allocates 4-KiB frames of the *original* physical address
 * space on first touch.  RSM requires that the OS keep per-region
 * free lists and dedicate one private region per program: frames of
 * a private region are handed out only to the owning program, while
 * shared-region frames go to anyone.  Swaps remain invisible to the
 * OS (they permute *actual* locations within a swap group, and the
 * region of a swap group never changes).
 *
 * Region geometry follows Fig. 3: a 4-KiB page covers two consecutive
 * swap groups, and consecutive group pairs map to regions
 * 0, 1, ..., R-1, 0, 1, ...  Hence frame f belongs to region
 * (f mod (G/2)) mod R, where G is the number of swap groups.
 */

#ifndef PROFESS_OS_PAGE_ALLOCATOR_HH
#define PROFESS_OS_PAGE_ALLOCATOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
} // namespace telemetry

namespace os
{

constexpr std::uint64_t pageBytes = 4 * KiB;

/** Answers "which program owns this original block?" queries. */
class BlockOwnerOracle
{
  public:
    virtual ~BlockOwnerOracle() = default;

    /**
     * @param original_block Original-space 2-KiB block index.
     * @return Owning program, or invalidProgram if unallocated.
     */
    virtual ProgramId
    ownerOfBlock(std::uint64_t original_block) const = 0;
};

/** First-touch page allocator with per-region free lists. */
class PageAllocator : public BlockOwnerOracle
{
  public:
    /**
     * @param num_groups Number of swap groups G (even, multiple of
     *        2 * num_regions for uniform regions).
     * @param slots_per_group Locations per swap group (9 for 1:8).
     * @param num_regions Number of interleaved regions R.
     * @param num_programs Programs; program i owns private region i.
     * @param seed Seed for randomized placement within regions.
     */
    PageAllocator(std::uint64_t num_groups, unsigned slots_per_group,
                  unsigned num_regions, unsigned num_programs,
                  std::uint64_t seed = 7);

    /** @return total number of 4-KiB frames. */
    std::uint64_t numFrames() const { return numFrames_; }

    /** @return number of regions. */
    unsigned numRegions() const { return numRegions_; }

    /** @return region of a frame. */
    unsigned regionOfFrame(std::uint64_t frame) const;

    /** @return region of a swap group (Fig. 3). */
    unsigned regionOfGroup(std::uint64_t group) const;

    /**
     * @return the program whose private region this is, or
     *         invalidProgram for shared regions.
     */
    ProgramId privateOwner(unsigned region) const;

    /** @return the private region of a program. */
    unsigned privateRegionOf(ProgramId p) const;

    /**
     * Translate a virtual page, allocating on first touch.
     *
     * @param program Accessing program.
     * @param vpage Virtual page number.
     * @return Frame number.
     */
    std::uint64_t translate(ProgramId program, std::uint64_t vpage);

    /** @return frames currently allocated to a program. */
    std::uint64_t allocatedFrames(ProgramId p) const;

    /** @return free frames remaining in a region. */
    std::uint64_t freeFramesInRegion(unsigned region) const;

    /** Release all frames of a program (program termination). */
    void releaseProgram(ProgramId p);

    /** Translation counters: "translations", "cache_hits". */
    const StatSet &stats() const { return stats_; }

    /** @return last-translation-cache hit rate in [0,1]
     *  (1 if no translations yet). */
    double
    cacheHitRate() const
    {
        return ctrTranslations_ == 0
                   ? 1.0
                   : static_cast<double>(ctrCacheHits_) /
                         static_cast<double>(ctrTranslations_);
    }

    /** Register translation counters and hit rate under `prefix`. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    // BlockOwnerOracle
    ProgramId ownerOfBlock(std::uint64_t original_block) const override;

  private:
    /** One-entry last-translation cache (demand streams are
     *  page-local, so most accesses re-translate the same page). */
    struct LastXlate
    {
        std::uint64_t vpage = ~std::uint64_t{0};
        std::uint64_t frame = 0;
        bool valid = false;
    };

    /**
     * One program's vpage -> frame map: open addressing with linear
     * probing over a power-of-two slot array that starts small and
     * doubles when half full.  A program maps only ~10^3 pages, so
     * a lookup touches one or two cache lines; vpages may be any
     * 64-bit value (trace files map sparse addresses).
     */
    class PageTable
    {
      public:
        static constexpr std::uint64_t noFrame = ~std::uint64_t{0};

        /** @return the frame mapped to vpage, or noFrame. */
        std::uint64_t find(std::uint64_t vpage) const;

        /** Map a vpage that find() reported unmapped. */
        void insert(std::uint64_t vpage, std::uint64_t frame);

        /** @return number of mapped pages. */
        std::size_t size() const { return size_; }

        /** @return every mapped frame, in slot order. */
        std::vector<std::uint64_t> frames() const;

        void clear() { *this = PageTable{}; }

      private:
        struct Slot
        {
            std::uint64_t vpage = 0;
            std::uint64_t frame = noFrame; ///< noFrame: empty
        };

        static constexpr unsigned initialBits = 6;

        /** @return the slot index a vpage's probe starts at. */
        std::size_t
        home(std::uint64_t vpage) const
        {
            // Fibonacci hashing: the top bits of vpage * 2^64/phi.
            return static_cast<std::size_t>(
                (vpage * 0x9e3779b97f4a7c15ull) >> (64 - bits_));
        }

        void grow();

        unsigned bits_ = initialBits;
        std::size_t size_ = 0;
        std::vector<Slot> slots_ =
            std::vector<Slot>(std::size_t{1} << initialBits);
    };

    std::uint64_t pickFrame(ProgramId program);

    std::uint64_t numGroups_;
    std::uint64_t numFrames_;
    unsigned numRegions_;
    unsigned numPrograms_;
    Rng rng_;

    /** Per-region stack of free frames (randomized order). */
    std::vector<std::vector<std::uint64_t>> freeLists_;
    /** Per-program round-robin cursor over regions. */
    std::vector<unsigned> cursor_;
    /** frame -> owner (invalidProgram if free). */
    std::vector<ProgramId> owner_;
    /** Per-program page table: vpage -> frame. */
    std::vector<PageTable> pageTables_;
    /** Per-program last-translation cache. */
    std::vector<LastXlate> lastXlate_;

    StatSet stats_;
    std::uint64_t &ctrTranslations_;
    std::uint64_t &ctrCacheHits_;
};

} // namespace os

} // namespace profess

#endif // PROFESS_OS_PAGE_ALLOCATOR_HH
