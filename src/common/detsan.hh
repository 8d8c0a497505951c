/**
 * @file
 * Determinism sanitizer (DetSan): runtime cross-check of the
 * repo-wide invariant that simulation output is bit-identical for
 * any worker count.
 *
 * Two digests prove it:
 *
 *  - the EventQueue mixes every extraction's (when, seq) pair into
 *    a chained FNV-1a digest, fingerprinting the exact event order
 *    a run executed (the ordering contract of event.hh);
 *  - the EpochSampler mixes each epoch's tick, index and sampled
 *    registry values, fingerprinting the observable statistics
 *    trajectory.
 *
 * The process-global Journal stores each run's digests under its
 * identity key (label, policy, programs, seed).  When the same
 * identity is recorded again — e.g. a test running one batch at
 * --jobs 1 and again at --jobs 8 — the digests are cross-checked
 * and any mismatch is fatal with both values printed.
 *
 * The instrumentation in EventQueue / EpochSampler / the runners is
 * compiled only under -DPROFESS_DETSAN=ON (CMake option); Release
 * builds carry zero cost.  This header itself is build-agnostic so
 * tests can exercise the digest and journal in any configuration.
 */

#ifndef PROFESS_COMMON_DETSAN_HH
#define PROFESS_COMMON_DETSAN_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace profess
{

namespace telemetry
{
class StatRegistry;
} // namespace telemetry

namespace detsan
{

/** Chained FNV-1a (64-bit) over a sequence of words. */
class Digest
{
  public:
    /** Mix one 64-bit word, byte by byte, little-endian. */
    void
    mix(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }

    /** Mix a double via its bit pattern (bit-exact, no rounding). */
    void
    mixDouble(double d)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        __builtin_memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    }

    /** Mix a byte string, length first (so "ab"+"c" and "a"+"bc"
     *  never alias). */
    void
    mixString(std::string_view s)
    {
        mix(s.size());
        for (char c : s) {
            h_ ^= static_cast<unsigned char>(c);
            h_ *= 0x100000001b3ull;
        }
    }

    /** @return the digest over everything mixed so far. */
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull; // FNV offset basis
};

/** The digests identifying one run's observable behavior. */
struct RunDigest
{
    std::uint64_t events = 0;     ///< events executed
    std::uint64_t extraction = 0; ///< FNV over (when, seq) order
    std::uint64_t epochs = 0;     ///< sampler epochs taken
    std::uint64_t epochState = 0; ///< FNV over per-epoch samples
    std::uint64_t stats = 0;      ///< registry entries folded
    std::uint64_t statState = 0;  ///< FNV over final (name, value)s

    bool
    operator==(const RunDigest &o) const
    {
        return events == o.events && extraction == o.extraction &&
               epochs == o.epochs && epochState == o.epochState &&
               stats == o.stats && statState == o.statState;
    }
};

/**
 * Process-global journal of run digests, keyed by run identity.
 * Thread-safe: parallel workers record concurrently.
 */
class Journal
{
  public:
    /**
     * Record `d` under `key`.  First recording stores it; a repeat
     * recording cross-checks and is fatal on mismatch (printing
     * both digest sets).
     *
     * @return true when this call cross-checked an earlier record.
     */
    bool record(const std::string &key, const RunDigest &d);

    /** @return stored digest for `key`, if any. */
    bool lookup(const std::string &key, RunDigest &out) const;

    /** @return distinct identities recorded. */
    std::size_t entries() const;

    /** @return cross-checks performed (all of them matched, or the
     *  process would have died). */
    std::uint64_t checked() const;

    /** Forget everything (tests running several batches). */
    void clear();

    /** The process-wide instance. */
    static Journal &global();

  private:
    mutable std::mutex mu_;
    std::map<std::string, RunDigest> runs_;
    std::uint64_t checked_ = 0;
};

/**
 * Digest a registry's final values: every entry's name and value
 * (counters bit-exact as integers, probes as double bit patterns)
 * in the registry's sorted-name order.  Folded into RunDigest as
 * stats/statState, it catches a divergence that cancels out of the
 * sampled epochs — e.g. two runs whose epoch trajectories match
 * but whose end-of-run counters drifted after the last sample.
 * The epoch-digest invariant already proves the registry holds
 * only deterministic simulation state (no wall clock), so final
 * values are digestable in any build.
 */
std::uint64_t registryDigest(const telemetry::StatRegistry &reg);

} // namespace detsan

} // namespace profess

#endif // PROFESS_COMMON_DETSAN_HH
