#include "trace/synthetic.hh"

#include <numeric>

#include "common/logging.hh"
#include "common/telemetry.hh"

namespace profess
{

namespace trace
{

static_assert(std::gcd(SyntheticTraceSource::batchSize,
                       telemetry::TimerSlot::samplePeriod) == 1,
              "a call-sampled timer around next() must see refills "
              "at every residue (synthetic.hh)");

SyntheticTraceSource::SyntheticTraceSource(
    const SyntheticParams &params,
    std::unique_ptr<AddressPattern> pattern)
    : params_(params), pattern_(std::move(pattern))
{
    fatal_if(params_.mpki <= 0.0, "mpki must be positive");
    fatal_if(!pattern_, "null pattern");
    double mean_instr_per_access = 1000.0 / params_.mpki;
    // Access itself counts as one instruction; bursty accesses have
    // mean gap ~1, so the geometric component compensates to keep
    // the overall mean on target.
    double target_gap = mean_instr_per_access - 1.0;
    if (target_gap < 0.0)
        target_gap = 0.0;
    double b = params_.burstFraction;
    fatal_if(b < 0.0 || b >= 1.0, "burstFraction must be in [0,1)");
    double mean_geom_gap = (target_gap - b * 1.0) / (1.0 - b);
    if (mean_geom_gap < 0.0)
        mean_geom_gap = 0.0;
    gap_ = GeometricDraw(1.0 / (1.0 + mean_geom_gap));
    restart();
}

bool
SyntheticTraceSource::next(MemAccess &out)
{
    if (head_ == batchSize)
        refill();
    out = buf_[head_++];
    return true;
}

void
SyntheticTraceSource::refill()
{
    for (MemAccess &out : buf_) {
        // Phase change before every phaseAccesses-th access.
        if (untilRebuild_ == 0) {
            pattern_->rebuild(rng_);
            untilRebuild_ = params_.phaseAccesses;
        }
        --untilRebuild_;

        out.vaddr = pattern_->next(rng_);
        out.isWrite = rng_.uniform() < params_.writeFraction;
        if (rng_.uniform() < params_.burstFraction) {
            out.instGap = rng_.below(burstGap_);
        } else {
            out.instGap =
                static_cast<std::uint32_t>(rng_.geometric(gap_));
        }
    }
    head_ = 0;
}

std::uint64_t
SyntheticTraceSource::footprintBytes() const
{
    return params_.footprintBytes;
}

void
SyntheticTraceSource::reset()
{
    pattern_->reset();
    restart();
}

void
SyntheticTraceSource::restart()
{
    rng_ = Rng(params_.seed, 0x632be59bd9b4e019ull);
    // phaseAccesses == 0: no rebuild within 2^64 accesses.
    untilRebuild_ = params_.phaseAccesses == 0
                        ? ~std::uint64_t{0}
                        : params_.phaseAccesses;
    head_ = batchSize;
}

} // namespace trace

} // namespace profess
