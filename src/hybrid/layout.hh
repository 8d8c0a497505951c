/**
 * @file
 * Address-space layout of the flat migrating hybrid memory
 * (PoM organization, Sec. 2.3 and Fig. 1).
 *
 * All memory locations form swap groups of `slotsPerGroup` fixed
 * physical locations: one in M1 and slotsPerGroup-1 in M2 (9 for the
 * default 1:8 capacity ratio; 5 for 1:4; 17 for 1:16).  Data migrate
 * at the 2-KiB block granularity.  The *original* physical address
 * space (what the OS allocates) is the union of all locations;
 * original block `ob` lives in swap group `ob mod G` at slot
 * `ob div G`, so a 4-KiB page covers two consecutive swap groups
 * (Fig. 3) and consecutive blocks interleave across channels.
 *
 * Per channel, M1 holds its groups' M1 blocks followed by the
 * Swap-group Table (ST) area (address translations are stored in M1,
 * Sec. 2.2); M2 holds the groups' M2 blocks slot-major so that
 * consecutive original blocks stay row-local.
 */

#ifndef PROFESS_HYBRID_LAYOUT_HH
#define PROFESS_HYBRID_LAYOUT_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace profess
{

namespace hybrid
{

/** Static geometry of the hybrid address space. */
struct HybridLayout
{
    std::uint64_t numGroups = 0;    ///< G
    unsigned slotsPerGroup = 9;     ///< 1 M1 + 8 M2 locations
    unsigned numChannels = 2;
    unsigned numRegions = 128;      ///< RSM regions (Sec. 3.1.1)
    std::uint64_t blockBytes = 2 * KiB;
    std::uint64_t stEntryBytes = 8; ///< Sec. 4.1 (ProFess ST entry)

    /**
     * Build a layout that fits the given per-channel module budgets.
     *
     * G is the largest group count such that each channel's M1 holds
     * its data blocks plus the ST area, M2 holds the M2 blocks, and
     * G is a multiple of both the channel count and 2 x regions
     * (uniform regions, Fig. 3).
     */
    static HybridLayout
    build(std::uint64_t m1_bytes_per_channel,
          std::uint64_t m2_bytes_per_channel, unsigned channels,
          unsigned regions = 128, unsigned slots_per_group = 9,
          std::uint64_t block_bytes = 2 * KiB)
    {
        HybridLayout l;
        l.slotsPerGroup = slots_per_group;
        l.numChannels = channels;
        l.numRegions = regions;
        l.blockBytes = block_bytes;
        // Per-channel M1 budget: gl * blockBytes + gl * stEntryBytes.
        std::uint64_t gl_m1 =
            m1_bytes_per_channel / (block_bytes + l.stEntryBytes);
        std::uint64_t gl_m2 = m2_bytes_per_channel /
                              ((slots_per_group - 1) * block_bytes);
        std::uint64_t gl = std::min(gl_m1, gl_m2);
        std::uint64_t g = gl * channels;
        // Align down: G % channels == 0 and (G/2) % regions == 0.
        std::uint64_t align = 2ull * regions;
        while (align % channels != 0)
            align += 2ull * regions;
        g -= g % align;
        fatal_if(g == 0,
                 "memory too small for %u regions x %u channels",
                 regions, channels);
        l.numGroups = g;
        return l;
    }

    /** @return swap groups handled by each channel. */
    std::uint64_t
    groupsPerChannel() const
    {
        return numGroups / numChannels;
    }

    /** @return total original-space blocks (all slots). */
    std::uint64_t
    totalBlocks() const
    {
        return numGroups * slotsPerGroup;
    }

    /** @return capacity visible to the OS, in bytes. */
    std::uint64_t visibleBytes() const
    {
        return totalBlocks() * blockBytes;
    }

    /** @return original block index of an original byte address. */
    std::uint64_t blockOf(Addr a) const { return a / blockBytes; }

    /** @return swap group of an original block. */
    std::uint64_t
    groupOf(std::uint64_t ob) const
    {
        return ob % numGroups;
    }

    /** @return slot (0..slotsPerGroup-1) of an original block. */
    unsigned
    slotOf(std::uint64_t ob) const
    {
        return static_cast<unsigned>(ob / numGroups);
    }

    /** @return original block index of (group, slot). */
    std::uint64_t
    blockIndex(std::uint64_t group, unsigned slot) const
    {
        return static_cast<std::uint64_t>(slot) * numGroups + group;
    }

    /** @return RSM region of a swap group (Fig. 3). */
    unsigned
    regionOfGroup(std::uint64_t group) const
    {
        return static_cast<unsigned>((group / 2) % numRegions);
    }

    /** @return channel handling a swap group. */
    ChannelId
    channelOf(std::uint64_t group) const
    {
        return static_cast<ChannelId>(group % numChannels);
    }

    /** @return group index local to its channel. */
    std::uint64_t
    localGroup(std::uint64_t group) const
    {
        return group / numChannels;
    }

    /** @return M1 device byte address of a group's M1 block. */
    Addr
    m1BlockAddr(std::uint64_t group) const
    {
        return localGroup(group) * blockBytes;
    }

    /**
     * @param group Swap group.
     * @param location M2 location index within group (1..slots-1).
     * @return M2 device byte address of that location's block.
     */
    Addr
    m2BlockAddr(std::uint64_t group, unsigned location) const
    {
        panic_if(location == 0 || location >= slotsPerGroup,
                 "bad M2 location %u", location);
        return (static_cast<std::uint64_t>(location - 1) *
                    groupsPerChannel() +
                localGroup(group)) *
               blockBytes;
    }

    /** @return bytes of M1 per channel used for data blocks. */
    std::uint64_t
    m1DataBytesPerChannel() const
    {
        return groupsPerChannel() * blockBytes;
    }

    /** @return M1 device byte address of a group's ST entry. */
    Addr
    stEntryAddr(std::uint64_t group) const
    {
        Addr byte =
            m1DataBytesPerChannel() + localGroup(group) * stEntryBytes;
        return byte - byte % 64; // 64-B transfer granularity
    }

    /** @return required M1 bytes per channel (data + ST). */
    std::uint64_t
    m1BytesRequiredPerChannel() const
    {
        return groupsPerChannel() * (blockBytes + stEntryBytes);
    }

    /** @return required M2 bytes per channel. */
    std::uint64_t
    m2BytesRequiredPerChannel() const
    {
        return groupsPerChannel() * (slotsPerGroup - 1) * blockBytes;
    }
};

} // namespace hybrid

} // namespace profess

#endif // PROFESS_HYBRID_LAYOUT_HH
