/**
 * @file
 * Device geometry of one memory module and address decoding.
 *
 * Per Table 8: one rank per module, 16 banks per rank, 8-KB row
 * buffers.  M2 modules have eight times the rows per bank of M1.
 * Consecutive row-sized chunks interleave across banks so that
 * streams exploit bank-level parallelism while 2-KB swap blocks stay
 * inside one row (four blocks per 8-KB row).  Bank counts and row
 * sizes are powers of two, so decoding a device address is shifts
 * and masks.
 */

#ifndef PROFESS_MEM_GEOMETRY_HH
#define PROFESS_MEM_GEOMETRY_HH

#include "common/logging.hh"
#include "common/types.hh"

namespace profess
{

namespace mem
{

/** Location of a byte within a module: bank, row, column offset. */
struct DecodedAddr
{
    std::uint32_t bank;
    std::uint64_t row;     ///< row index within the bank
    std::uint64_t column;  ///< byte offset within the row
};

/** Geometry of one module (one rank); build it with withCapacity(). */
struct ModuleGeometry
{
    std::uint32_t banks = 16;
    std::uint64_t rowBytes = 8 * KiB;
    std::uint64_t rowsPerBank = 1024;
    unsigned bankShift = 4;  ///< log2(banks)
    unsigned rowShift = 13;  ///< log2(rowBytes)

    /** @return module capacity in bytes. */
    std::uint64_t
    capacity() const
    {
        return static_cast<std::uint64_t>(banks) * rowBytes *
               rowsPerBank;
    }

    /** Decode a device byte address. */
    DecodedAddr
    decode(Addr addr) const
    {
        std::uint64_t row_chunk = addr >> rowShift;
        DecodedAddr d;
        d.bank = static_cast<std::uint32_t>(row_chunk & (banks - 1));
        d.row = row_chunk >> bankShift;
        d.column = addr & (rowBytes - 1);
        // Capacity is rowsPerBank whole rows in every bank.
        panic_if(d.row >= rowsPerBank,
                 "address 0x%llx outside module (capacity 0x%llx)",
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(capacity()));
        return d;
    }

    /**
     * Construct a geometry with the given capacity.
     *
     * @param bytes Desired capacity; must be a multiple of
     *              banks * rowBytes.
     * @param banks Banks per module, a power of two.
     * @param row_bytes Row-buffer size, a power of two.
     */
    static ModuleGeometry
    withCapacity(std::uint64_t bytes, std::uint32_t banks = 16,
                 std::uint64_t row_bytes = 8 * KiB)
    {
        auto pow2 = [](std::uint64_t x) {
            return x != 0 && (x & (x - 1)) == 0;
        };
        fatal_if(!pow2(banks) || !pow2(row_bytes),
                 "banks (%u) and row bytes (%llu) must be powers of two",
                 banks, static_cast<unsigned long long>(row_bytes));
        ModuleGeometry g;
        g.banks = banks;
        g.rowBytes = row_bytes;
        g.bankShift = static_cast<unsigned>(__builtin_ctz(banks));
        g.rowShift = static_cast<unsigned>(__builtin_ctzll(row_bytes));
        std::uint64_t per_bank = banks * row_bytes;
        fatal_if(bytes == 0 || bytes % per_bank != 0,
                 "module capacity %llu is not a multiple of "
                 "banks*rowBytes (%llu)",
                 static_cast<unsigned long long>(bytes),
                 static_cast<unsigned long long>(per_bank));
        g.rowsPerBank = bytes / per_bank;
        return g;
    }
};

} // namespace mem

} // namespace profess

#endif // PROFESS_MEM_GEOMETRY_HH
