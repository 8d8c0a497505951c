/**
 * @file
 * OS-based coarse-grain migration baseline (paper Sec. 2.2).
 *
 * The paper contrasts its hardware management against OS-based
 * page migration in the style of Thermostat [Agarwal & Wenisch,
 * ASPLOS 2017]: software periodically samples page hotness and
 * migrates at page granularity, which implies slow responsiveness
 * to working-set changes.  This policy approximates that behaviour
 * inside the same simulation harness:
 *
 *  - hotness is tracked per 4-KiB page (a consecutive swap-group
 *    pair) over an OS interval (default 100,000 ticks: 125 us at
 *    the 0.8 GHz MC clock, 2.5x MemPod's 50 us interval; the
 *    other hardware policies decide on every M2 access);
 *  - at each interval end the hottest pages above an access-count
 *    threshold are promoted (both 2-KiB blocks of the page), up to
 *    a migration budget;
 *  - nothing happens between intervals.
 *
 * bench/sweeps/single_program.sweep runs it next to PoM and ProFess
 * to reproduce the paper's argument that hardware management's
 * responsiveness matters.
 */

#ifndef PROFESS_POLICY_OS_COARSE_HH
#define PROFESS_POLICY_OS_COARSE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "hybrid/layout.hh"
#include "policy/policy.hh"

namespace profess
{

namespace policy
{

/** Periodic page-granularity promotion. */
class OsCoarsePolicy : public MigrationPolicy
{
  public:
    struct Params
    {
        Cycles intervalTicks = 100000; ///< 125 us at 0.8 GHz (paper-scaled OS sampling)
        unsigned hotThreshold = 64;    ///< accesses per interval
        unsigned maxPagesPerInterval = 32;
    };

    OsCoarsePolicy(const hybrid::HybridLayout &layout,
                   const Params &p)
        : layout_(layout), params_(p),
          pageCount_((layout.totalBlocks() + 1) / 2)
    {
        touched_.reserve(pageCount_.size());
    }

    explicit OsCoarsePolicy(const hybrid::HybridLayout &layout)
        : OsCoarsePolicy(layout, Params{})
    {
    }

    const char *name() const override { return "oscoarse"; }
    unsigned writeWeight() const override { return 1; }

    Decision
    onM2Access(const AccessInfo &info) override
    {
        std::uint64_t page = pageOf(info.group, info.slot);
        if (pageCount_[page]++ == 0)
            touched_.push_back(page);
        return Decision::NoSwap; // software migrates off-path
    }

    Cycles periodicInterval() const override
    {
        return params_.intervalTicks;
    }

    void
    onPeriodic() override
    {
        if (host_ == nullptr)
            return;
        // The hot pages, hottest first; the interval's pages are
        // forgotten below, so the touched list is reordered in place.
        auto hot_end = std::partition(
            touched_.begin(), touched_.end(), [this](std::uint64_t pg) {
                return pageCount_[pg] >= params_.hotThreshold;
            });
        std::sort(touched_.begin(), hot_end,
                  [this](std::uint64_t a, std::uint64_t b) {
                      return pageCount_[a] != pageCount_[b]
                                 ? pageCount_[a] > pageCount_[b]
                                 : a < b;
                  });
        unsigned migrated = 0;
        for (auto it = touched_.begin(); it != hot_end; ++it) {
            if (migrated >= params_.maxPagesPerInterval)
                break;
            // Promote both blocks of the page.
            std::uint64_t first_block = *it * 2;
            bool any = false;
            for (std::uint64_t ob :
                 {first_block, first_block + 1}) {
                std::uint64_t g = layout_.groupOf(ob);
                unsigned s = layout_.slotOf(ob);
                any |= host_->requestSwap(g, s);
            }
            migrated += any ? 1 : 0;
        }
        for (std::uint64_t pg : touched_)
            pageCount_[pg] = 0;
        touched_.clear();
    }

    /** @return pages accessed this interval (tests). */
    std::size_t trackedPages() const { return touched_.size(); }

  private:
    /** Page = original frame index (two consecutive blocks). */
    std::uint64_t
    pageOf(std::uint64_t group, unsigned slot) const
    {
        return layout_.blockIndex(group, slot) / 2;
    }

    const hybrid::HybridLayout &layout_;
    Params params_;
    /** Accesses per page this interval. */
    std::vector<std::uint32_t> pageCount_;
    /** Pages with a nonzero count, each once; reserved for every
     *  page, so counting never allocates. */
    std::vector<std::uint64_t> touched_;
};

} // namespace policy

} // namespace profess

#endif // PROFESS_POLICY_OS_COARSE_HH
