/**
 * @file
 * Precomputed multiply-shift division for runtime-constant divisors.
 *
 * The address-layout hot path computes `block % numGroups` and
 * `block / numGroups` for every access, and `numGroups` (448 single,
 * 1472 quad) is not a power of two, so the compiler emits a real
 * 64-bit divide.  `FastDivMod` replaces it with a round-down
 * reciprocal and an incremented dividend:
 * n / d == ((n + 1) * floor((2^64 - 1) / d)) >> 64, a single `mulhi`.
 * This is exact for every 32-bit n and d >= 1: with
 * m = floor((2^64 - 1) / d), (n + 1) * m / 2^64 lies in
 * [floor(n / d), floor(n / d) + 1).  Unlike the round-up reciprocal
 * ceil(2^64 / d), m fits in 64 bits for d = 1 as well.
 */

#ifndef PROFESS_COMMON_FASTDIV_HH
#define PROFESS_COMMON_FASTDIV_HH

#include <cstdint>

#include "common/logging.hh"

namespace profess
{

class FastDivMod
{
  public:
    FastDivMod() = default;

    explicit FastDivMod(std::uint32_t d) : d_(d)
    {
        panic_if(d == 0, "FastDivMod divisor must be nonzero");
        magic_ = ~std::uint64_t{0} / d;
    }

    std::uint32_t
    div(std::uint32_t n) const
    {
        return static_cast<std::uint32_t>(
            (static_cast<unsigned __int128>(magic_) *
             (std::uint64_t{n} + 1)) >>
            64);
    }

    std::uint32_t
    mod(std::uint32_t n) const
    {
        return n - div(n) * d_;
    }

    std::uint32_t divisor() const { return d_; }

  private:
    std::uint64_t magic_ = 0;
    std::uint32_t d_ = 1;
};

} // namespace profess

#endif // PROFESS_COMMON_FASTDIV_HH
