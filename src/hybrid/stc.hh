/**
 * @file
 * Swap-group Table Cache (STC, Fig. 1 and Fig. 4).
 *
 * A set-associative on-chip cache of recently used ST entries.  It
 * doubles as MDM's temporal filter (Sec. 3.2): per cached entry, a
 * 6-bit saturating Access Counter (AC) per block and a snapshot of
 * each block's QAC at insertion (q_I) are kept.  The controller
 * resets ACs at insertion; policies read them on accesses and fold
 * them into statistics at eviction.
 *
 * This class is the tag/metadata store; the entry *contents* stay in
 * the authoritative SwapGroupTable, and the controller models the
 * fill/writeback traffic to M1.  The tags sit in their own array, so
 * a lookup scans one set's 8-byte tags and touches a way's metadata
 * only on a hit.
 */

#ifndef PROFESS_HYBRID_STC_HH
#define PROFESS_HYBRID_STC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "hybrid/st.hh"

namespace profess
{

namespace telemetry
{
class StatRegistry;
} // namespace telemetry

namespace hybrid
{

/** Per-cached-entry metadata (the STC-resident accurate state). */
struct StcMeta
{
    std::uint8_t ac[maxSlots];          ///< 6-bit saturating ACs
    std::uint8_t qacAtInsert[maxSlots]; ///< q_I snapshot (Sec. 3.2.2)
    bool swapping = false;              ///< a swap is in flight
    bool dirty = false;                 ///< entry modified (ATB/QAC)
    /** Per-slot access bit since the last fold sweep. */
    std::uint32_t touchedMask = 0;
    /**
     * Per-slot "burst completed" bit: set when a quiet counter is
     * harvested (the block finished an access burst and went
     * silent), cleared on the next access.  A depleted M1 incumbent
     * should not be protected from promotion candidates.
     */
    std::uint32_t depletedMask = 0;
    Tick lastFold = 0; ///< last insert / forced statistics fold

    /** Saturating AC increment (6-bit counters). */
    void
    bump(unsigned slot, unsigned amount)
    {
        unsigned v = ac[slot] + amount;
        ac[slot] = static_cast<std::uint8_t>(v > 63 ? 63 : v);
        touchedMask |= 1u << slot;
        depletedMask &= ~(1u << slot);
    }

    /** @return true if the slot's last burst completed (see
     *  depletedMask). */
    bool
    depleted(unsigned slot) const
    {
        return (depletedMask & (1u << slot)) != 0;
    }

    /** @return true if any slot other than `except` was accessed. */
    bool
    anyOtherAccessed(unsigned slots, unsigned except) const
    {
        for (unsigned s = 0; s < slots; ++s) {
            if (s != except && ac[s] > 0)
                return true;
        }
        return false;
    }
};

/** Result of an insertion that displaced a valid entry. */
struct StcEviction
{
    bool valid = false;   ///< an entry was displaced
    bool dirty = false;   ///< displaced entry needs a writeback
    std::uint64_t group = 0;
    StcMeta meta{};
};

/** The cache proper. */
class StCache
{
  public:
    struct Params
    {
        std::uint64_t capacityBytes = 64 * KiB;
        unsigned ways = 8;
        std::uint64_t entryBytes = 8;
    };

    explicit StCache(const Params &p);

    /** @return number of sets. */
    std::uint64_t numSets() const { return numSets_; }

    /** @return associativity. */
    unsigned ways() const { return ways_; }

    /**
     * Look up a group, updating LRU on hit.
     *
     * @return metadata pointer, or nullptr on miss.
     */
    StcMeta *find(std::uint64_t group);

    /**
     * Look up a group updating LRU but not the hit/miss statistics
     * (used for internal re-lookups after fills and swaps so that
     * one demand access counts as exactly one STC lookup).
     *
     * @return metadata pointer, or nullptr if absent.
     */
    StcMeta *peek(std::uint64_t group);

    /** @return true if present, without touching LRU. */
    bool contains(std::uint64_t group) const;

    /**
     * Insert a group (must not be present), evicting the LRU
     * non-pinned (non-swapping) way if the set is full.
     *
     * @param group Group to insert.
     * @param current_qac The group's current QAC values (copied into
     *        the q_I snapshot); ACs are reset to zero.
     * @param ev Eviction descriptor (valid=false if a free way).
     * @return false if every way of the set is pinned by an
     *         in-flight swap (the caller must retry later).
     */
    bool insert(std::uint64_t group, const std::uint8_t *current_qac,
                StcEviction &ev);

    /** Hit/miss statistics. */
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Zero the hit/miss statistics (contents untouched). */
    void
    resetStats()
    {
        hits_ = 0;
        misses_ = 0;
    }

    /**
     * Visit every valid entry (mutable access to its metadata).
     *
     * @param fn Invoked as fn(group, meta).
     */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (std::size_t i = 0; i < store_.size(); ++i) {
            if (tags_[i] != noGroup)
                fn(tags_[i], store_[i].meta);
        }
    }

    /** Visit every valid entry read-only (audits; no LRU update). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < store_.size(); ++i) {
            if (tags_[i] != noGroup)
                fn(tags_[i], store_[i].meta);
        }
    }

    /** Register hit/miss counters and hit rate under `prefix`. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    /**
     * Audit ST/STC residency coherence for the set holding `group`:
     * no group cached twice, every cached group within the table,
     * access counters within 6 bits, q_I snapshots within 2 bits,
     * and in-flight swaps marked dirty (a swap always updates the
     * ATB).  Panics on violation.  Hooked after every STC fill /
     * evict and completed swap in PROFESS_AUDIT builds.
     */
    void auditSet(std::uint64_t group,
                  const SwapGroupTable &st) const;

    /** Audit every set (teardown-scope full scan). */
    void auditInvariants(const SwapGroupTable &st) const;

    /** @return hit rate in [0,1] (1 if no lookups). */
    double
    hitRate() const
    {
        std::uint64_t t = hits_ + misses_;
        return t == 0 ? 1.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(t);
    }

  private:
    /** Metadata of one way; its tag is in tags_. */
    struct Way
    {
        std::uint64_t lastUse = 0;
        StcMeta meta{};
    };

    /** Tag of an invalid way (groups are 32-bit). */
    static constexpr std::uint64_t noGroup = ~std::uint64_t{0};

    /** @return index in tags_ / store_ of the set's first way. */
    std::size_t
    setBase(std::uint64_t group) const
    {
        // Set counts are powers of two in every configuration; the
        // mask form keeps the per-access lookup divide-free, with a
        // modulo fallback for odd test geometries.
        return (setMask_ != 0 ? (group & setMask_) : group % numSets_) *
               ways_;
    }

    /** @return way index of `group` in its set's tags, or ways_. */
    unsigned
    wayOf(const std::uint64_t *tags, std::uint64_t group) const
    {
        unsigned w = 0;
        while (w < ways_ && tags[w] != group)
            ++w;
        return w;
    }

    std::uint64_t numSets_;
    std::uint64_t setMask_ = 0; ///< numSets_-1 when a power of two
    unsigned ways_;
    /** Cached group per way, noGroup if invalid; numSets_ x ways_,
     *  row-major, parallel to store_. */
    std::vector<std::uint64_t> tags_;
    std::vector<Way> store_; ///< numSets_ x ways_, row-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace hybrid

} // namespace profess

#endif // PROFESS_HYBRID_STC_HH
