#include "trace/patterns.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace profess
{

namespace trace
{

namespace
{

std::uint64_t
alignDown(std::uint64_t x, std::uint64_t a)
{
    return x - x % a;
}

/** A precomputed uniform draw over [0, n); n must fit 32 bits. */
BoundedDraw
drawBelow(std::uint64_t n)
{
    fatal_if(n == 0 || n > 0xffffffffull,
             "pattern draw over %llu values: need 1 to 2^32 - 1 "
             "(footprint too large?)",
             static_cast<unsigned long long>(n));
    return BoundedDraw(static_cast<std::uint32_t>(n));
}

} // anonymous namespace

SequentialPattern::SequentialPattern(std::uint64_t footprint,
                                     Addr start)
    : footprint_(alignDown(footprint, lineBytes)), start_(start)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    start_ %= footprint_;
    pos_ = start_;
}

Addr
SequentialPattern::next(Rng &rng)
{
    (void)rng;
    Addr a = pos_;
    pos_ += lineBytes;
    if (pos_ >= footprint_)
        pos_ = 0;
    return a;
}

MultiStreamPattern::MultiStreamPattern(std::uint64_t footprint,
                                       unsigned num_streams)
    : footprint_(alignDown(footprint, lineBytes))
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(num_streams == 0, "need at least one stream");
    stream_ = BoundedDraw(num_streams);
    startLine_ = drawBelow(footprint_ / lineBytes);
    MultiStreamPattern::reset();
}

void
MultiStreamPattern::reset()
{
    pos_.assign(stream_.bound(), tickNever);
}

Addr
MultiStreamPattern::next(Rng &rng)
{
    std::size_t i = pos_.size() == 1 ? 0 : rng.below(stream_);
    if (pos_[i] == tickNever) {
        // Lazy random start: real programs' arrays sit at unrelated
        // offsets, so streams must not align on bank boundaries.
        pos_[i] = Addr{rng.below(startLine_)} * lineBytes;
    }
    Addr a = pos_[i];
    pos_[i] += lineBytes;
    if (pos_[i] >= footprint_)
        pos_[i] = 0;
    return a;
}

StridedPattern::StridedPattern(std::uint64_t footprint,
                               std::uint64_t stride)
    : footprint_(alignDown(footprint, lineBytes)), stride_(stride),
      pos_(0), phase_(0)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(stride_ == 0 || stride_ % lineBytes != 0,
             "stride must be a positive multiple of the line size");
}

Addr
StridedPattern::next(Rng &rng)
{
    (void)rng;
    Addr a = pos_;
    pos_ += stride_;
    if (pos_ >= footprint_) {
        phase_ += lineBytes;
        if (phase_ >= stride_ || phase_ >= footprint_)
            phase_ = 0;
        pos_ = phase_;
    }
    return a;
}

HotspotPattern::HotspotPattern(std::uint64_t footprint, double zipf_s,
                               std::uint64_t page_bytes)
    : footprint_(alignDown(footprint, lineBytes)),
      pageBytes_(page_bytes)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    numPages_ = std::max<std::size_t>(
        1, static_cast<std::size_t>(footprint_ / pageBytes_));
    // Zipf CDF over ranks.
    cdf_.resize(numPages_);
    double acc = 0.0;
    for (std::size_t r = 0; r < numPages_; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), zipf_s);
        cdf_[r] = acc;
    }
    for (auto &c : cdf_)
        c /= acc;
    lineInPage_ =
        drawBelow(std::max<std::uint64_t>(1, pageBytes_ / lineBytes));
    perm_.resize(numPages_);
    HotspotPattern::reset();
}

void
HotspotPattern::reset()
{
    // A fixed shuffle of the identity, the same for every instance.
    for (std::size_t i = 0; i < numPages_; ++i)
        perm_[i] = static_cast<std::uint32_t>(i);
    Rng seeder(0x9e3779b97f4a7c15ull, 0x5bd1e995u);
    rebuild(seeder);
}

void
HotspotPattern::rebuild(Rng &rng)
{
    // Fisher-Yates shuffle of the rank -> page mapping.
    for (std::size_t i = numPages_; i > 1; --i) {
        std::size_t j = rng.below(static_cast<std::uint32_t>(i));
        std::swap(perm_[i - 1], perm_[j]);
    }
}

Addr
HotspotPattern::next(Rng &rng)
{
    double u = rng.uniform();
    std::size_t rank = cdfLowerBound(cdf_.data(), numPages_, u);
    if (rank >= numPages_)
        rank = numPages_ - 1;
    std::uint64_t page = perm_[rank];
    Addr a = page * pageBytes_ +
             Addr{rng.below(lineInPage_)} * lineBytes;
    if (a >= footprint_)
        a = footprint_ - lineBytes;
    return a;
}

UniformPattern::UniformPattern(std::uint64_t footprint)
    : footprint_(alignDown(footprint, lineBytes))
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    line_ = drawBelow(footprint_ / lineBytes);
}

Addr
UniformPattern::next(Rng &rng)
{
    return Addr{rng.below(line_)} * lineBytes;
}

ClusteredPattern::ClusteredPattern(std::uint64_t footprint,
                                   std::uint64_t window_bytes,
                                   double mean_dwell)
    : footprint_(alignDown(footprint, lineBytes)),
      windowBytes_(window_bytes)
{
    panic_if(footprint_ == 0, "footprint smaller than one line");
    panic_if(window_bytes < lineBytes,
             "window smaller than one line");
    panic_if(mean_dwell < 1.0, "mean dwell must be >= 1");
    if (windowBytes_ > footprint_)
        windowBytes_ = footprint_;
    window_ = drawBelow(
        std::max<std::uint64_t>(1, footprint_ / windowBytes_));
    lineInWindow_ = drawBelow(windowBytes_ / lineBytes);
    jumpProb_ = 1.0 / mean_dwell;
}

Addr
ClusteredPattern::next(Rng &rng)
{
    if (!primed_ || rng.uniform() < jumpProb_) {
        windowBase_ = Addr{rng.below(window_)} * windowBytes_;
        primed_ = true;
    }
    Addr a = windowBase_ + Addr{rng.below(lineInWindow_)} * lineBytes;
    if (a >= footprint_)
        a = footprint_ - lineBytes;
    return a;
}

void
MixedPattern::add(double weight, std::unique_ptr<AddressPattern> p)
{
    panic_if(weight <= 0.0, "mixture weight must be positive");
    totalWeight_ += weight;
    cumWeight_.push_back(totalWeight_);
    parts_.push_back(std::move(p));
}

Addr
MixedPattern::next(Rng &rng)
{
    panic_if(parts_.empty(), "empty mixture");
    double u = rng.uniform() * totalWeight_;
    // First component whose cumulative weight reaches u, the last
    // one if rounding leaves u above them all.  Mixtures have at
    // most four parts, so a linear scan beats a binary search.
    std::size_t i = 0;
    std::size_t last = parts_.size() - 1;
    while (i < last && cumWeight_[i] < u)
        ++i;
    return parts_[i]->next(rng);
}

void
MixedPattern::rebuild(Rng &rng)
{
    for (auto &p : parts_)
        p->rebuild(rng);
}

void
MixedPattern::reset()
{
    for (auto &p : parts_)
        p->reset();
}

} // namespace trace

} // namespace profess
