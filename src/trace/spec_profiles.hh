/**
 * @file
 * SPEC CPU2006-like benchmark profiles (paper Table 9).
 *
 * The paper drives its evaluation with ten SPEC CPU2006 programs for
 * which it reports L3 MPKI and main-memory footprints.  SPEC binaries
 * and reference inputs are not available here, so each benchmark is
 * modelled as a synthetic stream whose MPKI and footprint match
 * Table 9 (footprints scaled together with the memory capacities) and
 * whose address-pattern mixture reflects the published
 * characterization (Sec. 4.2: mcf/omnetpp/libquantum irregular
 * pointer-based, soplex mixed regular/irregular, lbm/bwaves
 * streaming, ...).  See DESIGN.md Sec. 2 for the substitution
 * rationale.
 */

#ifndef PROFESS_TRACE_SPEC_PROFILES_HH
#define PROFESS_TRACE_SPEC_PROFILES_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/synthetic.hh"

namespace profess
{

namespace trace
{

/** Static description of one benchmark-like workload. */
struct BenchmarkProfile
{
    const char *name;
    double mpki;          ///< Table 9 L3 MPKI
    double footprintMB;   ///< Table 9 footprint (paper scale)
    double writeFraction;
    double seqWeight;     ///< streaming component
    unsigned numStreams;  ///< concurrent sequential streams
    double strideWeight;  ///< strided component
    double hotWeight;     ///< Zipf hotspot component
    double chaseWeight;   ///< clustered pointer-chase component
    double zipfS;         ///< hotspot skew
    std::uint64_t strideBytes;
    std::uint64_t chaseWindowBytes; ///< chase dwell window
    double chaseMeanDwell;          ///< mean accesses per window
    double burstFraction;
    std::uint64_t phaseAccesses; ///< working-set drift period
};

/** @return the ten Table 9 profiles. */
const std::vector<BenchmarkProfile> &specProfiles();

/** @return profile by name, or nullptr. */
const BenchmarkProfile *findProfile(const std::string &name);

/**
 * Build a synthetic trace source for a benchmark profile.
 *
 * @param name Benchmark name (Table 9).
 * @param footprint_scale Scale factor applied to the paper footprint
 *        (defaultScale, 1/100, matches the scaled default memory
 *        sizes).
 * @param seed RNG seed (vary per workload slot for repeats).
 */
std::unique_ptr<TraceSource> makeSpecSource(const std::string &name,
                                            double footprint_scale,
                                            std::uint64_t seed);

/** Build a source directly from a profile struct. */
std::unique_ptr<TraceSource>
makeProfileSource(const BenchmarkProfile &p, double footprint_scale,
                  std::uint64_t seed);

/**
 * Default footprint / capacity scale used across the repo.
 *
 * Everything scales together by 1/100: footprints, M1/M2 capacities,
 * STC size, RSM Msamp and the 500M-instruction SimPoints (-> 5M).
 * This preserves the two ratios the paper's dynamics depend on:
 * footprint-to-M1 pressure and accesses-per-block reuse density.
 */
constexpr double defaultScale = 1.0 / 100.0;

} // namespace trace

} // namespace profess

#endif // PROFESS_TRACE_SPEC_PROFILES_HH
