/**
 * @file
 * Synthetic memory-access stream generator.
 *
 * Combines an address pattern with an inter-access instruction-gap
 * model (geometric gaps with a configurable bursty fraction), a write
 * fraction, and optional working-set phase changes.  The mean gap is
 * calibrated so that the stream realizes a target MPKI (L3 misses per
 * kilo-instruction, Table 9).
 *
 * The source generates in batches: when its in-object buffer of
 * `batchSize` accesses runs dry, one tight loop refills it, drawing
 * the same RNG values in the same order as one-at-a-time generation
 * would, so the stream is unchanged and next() is a copy.  Nothing
 * else draws from the source's RNG or touches its pattern, so
 * generating ahead is invisible to the simulation.  The batch length
 * is coprime to telemetry::TimerSlot::samplePeriod (64): with a
 * multiple of it, a call-sampled timer around next() (perfbench's
 * trace layer) would time every refill or none of them.
 */

#ifndef PROFESS_TRACE_SYNTHETIC_HH
#define PROFESS_TRACE_SYNTHETIC_HH

#include <array>
#include <memory>
#include <string>

#include "common/rng.hh"
#include "trace/access.hh"
#include "trace/patterns.hh"

namespace profess
{

namespace trace
{

/** Parameters of a synthetic stream. */
struct SyntheticParams
{
    std::string name = "synthetic";
    std::uint64_t footprintBytes = 4 * MiB;
    double mpki = 20.0;          ///< target misses per kilo-instr
    double writeFraction = 0.3;  ///< fraction of accesses that write
    double burstFraction = 0.3;  ///< accesses arriving back-to-back
    std::uint64_t phaseAccesses = 0; ///< rebuild() period (0 = never)
    std::uint64_t seed = 1;
};

/** TraceSource producing an endless synthetic stream. */
class SyntheticTraceSource : public TraceSource
{
  public:
    /**
     * @param params Stream parameters.
     * @param pattern Address pattern (ownership transferred).
     */
    SyntheticTraceSource(const SyntheticParams &params,
                         std::unique_ptr<AddressPattern> pattern);

    bool next(MemAccess &out) override;
    std::uint64_t footprintBytes() const override;
    void reset() override;

    /** @return the stream parameters. */
    const SyntheticParams &params() const { return params_; }

    /** Accesses generated per refill (see the file comment). */
    static constexpr unsigned batchSize = 255;

  private:
    /** Generate the next batchSize accesses into buf_. */
    void refill();

    /** Restart the RNG, the phase countdown and the buffer (the
     *  pattern is reset separately: it is fresh at construction). */
    void restart();

    SyntheticParams params_;
    std::unique_ptr<AddressPattern> pattern_;
    Rng rng_;
    BoundedDraw burstGap_{3}; ///< bursty gaps: 0..2, mean 1
    GeometricDraw gap_;       ///< the other gaps
    /** Accesses to generate before the next phase rebuild. */
    std::uint64_t untilRebuild_ = 0;
    unsigned head_ = batchSize; ///< next buf_ entry to hand out
    std::array<MemAccess, batchSize> buf_;
};

} // namespace trace

} // namespace profess

#endif // PROFESS_TRACE_SYNTHETIC_HH
