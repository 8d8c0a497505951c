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
 *    pair) over a long OS interval (default 1 ms, ~1000x the
 *    hardware policies' reaction time);
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
#include <unordered_map>
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
        : layout_(layout), params_(p)
    {
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
        ++pageCount_[pageOf(info.group, info.slot)];
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
        std::vector<std::pair<std::uint32_t, std::uint64_t>> hot;
        hot.reserve(pageCount_.size());
        for (const auto &kv : pageCount_) {
            if (kv.second >= params_.hotThreshold)
                hot.emplace_back(kv.second, kv.first);
        }
        std::sort(hot.begin(), hot.end(),
                  [](const auto &a, const auto &b) {
                      return a.first != b.first ? a.first > b.first
                                                : a.second < b.second;
                  });
        unsigned migrated = 0;
        for (const auto &e : hot) {
            if (migrated >= params_.maxPagesPerInterval)
                break;
            // Promote both blocks of the page.
            std::uint64_t first_block = e.second * 2;
            bool any = false;
            for (std::uint64_t ob :
                 {first_block, first_block + 1}) {
                std::uint64_t g = layout_.groupOf(ob);
                unsigned s = layout_.slotOf(ob);
                any |= host_->requestSwap(g, s);
            }
            migrated += any ? 1 : 0;
        }
        pageCount_.clear();
    }

    /** @return pages currently tracked (tests). */
    std::size_t trackedPages() const { return pageCount_.size(); }

  private:
    /** Page = original frame index (two consecutive blocks). */
    std::uint64_t
    pageOf(std::uint64_t group, unsigned slot) const
    {
        return layout_.blockIndex(group, slot) / 2;
    }

    const hybrid::HybridLayout &layout_;
    Params params_;
    std::unordered_map<std::uint64_t, std::uint32_t> pageCount_;
};

} // namespace policy

} // namespace profess

#endif // PROFESS_POLICY_OS_COARSE_HH
