/**
 * @file
 * Relative-Slowdown Monitor (RSM, Sec. 3.1).
 *
 * RSM compares each program's behaviour in its private region
 * (uncontended proxy) against its behaviour in the shared regions
 * (contended proxy) and produces two slowdown factors:
 *
 *   SF_A = (reqM1P / reqTotalP) / (reqM1S / reqTotalS)      (Eq. 2)
 *   SF_B = 1 / (swapSelf / swapTotal)                       (Eq. 3)
 *
 * recomputed every sampling period of Msamp served requests per
 * program (128K by default), with simple exponential smoothing
 * (alpha = 0.125) applied to the counters; each counter is
 * incremented by one before smoothing to avoid zeros (Sec. 3.1.3).
 * Swaps inside private regions are not counted.
 *
 * Convention (matching os::PageAllocator): region i < numPrograms is
 * the private region of program i; all other regions are shared.
 *
 * classifyGuidance() turns two programs' factors into a Table 7
 * case.  Every RSM-guided policy decides through a Guidance, which
 * applies it to each M2 access and counts and traces the cases.
 */

#ifndef PROFESS_CORE_RSM_HH
#define PROFESS_CORE_RSM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/telemetry.hh"
#include "common/types.hh"
#include "policy/policy.hh"

namespace profess
{

namespace telemetry
{
class DecisionTraceSink;
} // namespace telemetry

namespace core
{

/** The monitor proper. */
class Rsm
{
  public:
    struct Params
    {
        unsigned numPrograms = 4;
        unsigned numRegions = 128;
        std::uint64_t sampleRequests = 128 * 1024; ///< Msamp
        double alpha = 0.125;
        bool perRegionStats = false; ///< Table 4 instrumentation
    };

    /** Snapshot taken at the end of each sampling period. */
    struct PeriodSample
    {
        double rawSfA;    ///< SF_A from raw counters
        double avgSfA;    ///< SF_A from smoothed counters
        double reqStdPct; ///< per-region request stddev, % of mean
    };

    explicit Rsm(const Params &p);

    /**
     * Account one served request.
     *
     * @param p Program.
     * @param region RSM region of the accessed swap group.
     * @param from_m1 Served from M1.
     * @param now Current tick (only stamps trace records; the
     *        mechanism itself is clockless).
     */
    void onServed(ProgramId p, unsigned region, bool from_m1,
                  Tick now = 0);

    /**
     * Account one swap (Table 3 swap counters).
     *
     * @param owner_promoted Owner of the promoted block.
     * @param owner_demoted Owner of the demoted block (invalid if
     *        the M1 location was vacant).
     * @param private_region Swap in a private region (not counted).
     */
    void onSwap(ProgramId owner_promoted, ProgramId owner_demoted,
                bool private_region);

    /** @return current SF_A of a program (1.0 before any sample). */
    double sfA(ProgramId p) const;

    /** @return current SF_B of a program (1.0 before any sample). */
    double sfB(ProgramId p) const;

    /** @return completed sampling periods of a program. */
    std::uint64_t periods(ProgramId p) const;

    /** @return per-period history (perRegionStats mode only). */
    const std::vector<PeriodSample> &history(ProgramId p) const;

    /** @return the configuration. */
    const Params &params() const { return params_; }

    /** Record period rollovers into `sink` (null = off). */
    void
    setTraceSink(telemetry::DecisionTraceSink *sink)
    {
        trace_ = sink;
    }

    /** Register per-program SF_A/SF_B/period probes. */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

    /**
     * Pin a program's slowdown factors (scenario/test hook): the
     * factors take effect immediately and period rollovers keep all
     * Table 3 bookkeeping but stop refreshing SF_A/SF_B until
     * unpinFactors().  Fatal unless sf_a > 0 and finite and
     * sf_b >= 1 (the ranges auditInvariants() enforces).
     */
    void pinFactors(ProgramId p, double sf_a, double sf_b);

    /** Release pinned factors; rollovers refresh them again. */
    void unpinFactors(ProgramId p);

    /** @return true if the program's factors are pinned. */
    bool factorsPinned(ProgramId p) const { return state(p).pinned; }

    /**
     * Audit every program's monitor state: slowdown factors finite
     * and positive (SF_B >= 1 since a program's self swaps never
     * exceed its total swaps and smoothing preserves the order),
     * Table 3 counters mutually consistent (M1 sub-counts within the
     * totals, self swaps within total swaps), and the sampling-
     * period bookkeeping inside a period (served counter strictly
     * below Msamp after each update).  Panics on violation.  Hooked
     * at every period rollover in PROFESS_AUDIT builds.
     */
    void auditInvariants() const;

  private:
    /** Per-program counters (Table 3) and smoothers. */
    struct ProgState
    {
        std::uint64_t reqM1P = 0, reqTotalP = 0;
        std::uint64_t reqM1S = 0, reqTotalS = 0;
        std::uint64_t swapSelf = 0, swapTotal = 0;
        std::uint64_t periodServed = 0;
        std::uint64_t periodCount = 0;
        ExpSmoother sm[6]; ///< one per Table 3 counter
        double sfA = 1.0, sfB = 1.0;
        bool pinned = false; ///< factors frozen (pinFactors)
        std::vector<std::uint64_t> perRegion;
        std::vector<PeriodSample> hist;
    };

    void endPeriod(ProgramId p, ProgState &st, Tick now);
    ProgState &state(ProgramId p);
    const ProgState &state(ProgramId p) const;

    Params params_;
    std::vector<ProgState> progs_;
    telemetry::DecisionTraceSink *trace_ = nullptr;
};

/** Table 7 case of a candidate swap (Sec. 3.3). */
enum class GuidanceCase
{
    SameProgram,
    Case1,
    Case2,
    Case3,
    Default
};

/**
 * Classify a candidate swap by Table 7: program c1 owns the M1
 * block, program c2 accesses the M2 block.  Each single-factor
 * comparison ignores differences within `factor_threshold`, Case 3's
 * product comparison those within `product_threshold` (Sec. 3.3:
 * 1/32 and 1/16 above 1).  Inline so Guidance keeps it in the
 * per-access decision path.
 */
inline GuidanceCase
classifyGuidance(const Rsm &rsm, ProgramId c1, ProgramId c2,
                 double factor_threshold, double product_threshold)
{
    if (c1 == invalidProgram || c1 == c2)
        return GuidanceCase::SameProgram;

    double t = factor_threshold;
    double sfa1 = rsm.sfA(c1), sfa2 = rsm.sfA(c2);
    double sfb1 = rsm.sfB(c1), sfb2 = rsm.sfB(c2);

    bool a1_lt_a2 = sfa1 * t < sfa2;
    bool a1_gt_a2 = sfa1 > sfa2 * t;
    bool b1_lt_b2 = sfb1 * t < sfb2;
    bool b1_gt_b2 = sfb1 > sfb2 * t;

    if (a1_lt_a2 && b1_lt_b2)
        return GuidanceCase::Case1;
    if (a1_gt_a2 && b1_gt_b2)
        return GuidanceCase::Case2;
    if (a1_lt_a2 && b1_gt_b2 &&
        sfa1 * sfb1 > sfa2 * sfb2 * product_threshold)
        return GuidanceCase::Case3;
    return GuidanceCase::Default;
}

/**
 * Table 7 guidance as an RSM-guided policy applies it to each M2
 * access: classifies the access by classifyGuidance() (the M1
 * block's owner is c1, the accessor c2), counts every case and, with
 * a sink attached, records each case with the decision taken as a
 * GuidanceCase trace record.  ProfessPolicy and RsmGuidedPolicy each
 * own one, so their counts, `guidance.*` statistics and records mean
 * the same thing.
 */
class Guidance
{
  public:
    static constexpr unsigned numCases =
        static_cast<unsigned>(GuidanceCase::Default) + 1;

    /** @param rsm Source of the factors (must outlive this). */
    Guidance(const Rsm &rsm, double factor_threshold,
             double product_threshold)
        : rsm_(rsm), factorThreshold_(factor_threshold),
          productThreshold_(product_threshold)
    {
    }

    // Owners pass their own Rsm member: a copy would read the
    // original's.
    Guidance(const Guidance &) = delete;
    Guidance &operator=(const Guidance &) = delete;

    /** @return the Table 7 case of an M2 access, not counted. */
    GuidanceCase
    caseOf(const policy::AccessInfo &info) const
    {
        return classifyGuidance(rsm_, info.m1Owner, info.accessor,
                                factorThreshold_, productThreshold_);
    }

    /** @return caseOf(info), counted. */
    GuidanceCase
    classify(const policy::AccessInfo &info)
    {
        GuidanceCase c = caseOf(info);
        ++counts_[static_cast<unsigned>(c)];
        return c;
    }

    /** Record a classified access and the decision taken on it
     *  (no-op without a sink). */
    void
    trace(const policy::AccessInfo &info, GuidanceCase c,
          policy::Decision d) const
    {
        if (PROFESS_UNLIKELY(trace_ != nullptr))
            record(info, c, d);
    }

    /** @return accesses classified as case `c`. */
    std::uint64_t
    count(GuidanceCase c) const
    {
        return counts_[static_cast<unsigned>(c)];
    }

    /** @return short stable name of a Table 7 case. */
    static const char *caseName(GuidanceCase c);

    /** Record classifications into `sink` (null = off). */
    void
    setTraceSink(telemetry::DecisionTraceSink *sink)
    {
        trace_ = sink;
    }

    /** Register one counter per case, "<prefix>.<caseName>". */
    void registerTelemetry(telemetry::StatRegistry &registry,
                           const std::string &prefix) const;

  private:
    void record(const policy::AccessInfo &info, GuidanceCase c,
                policy::Decision d) const;

    const Rsm &rsm_;
    double factorThreshold_;
    double productThreshold_;
    telemetry::DecisionTraceSink *trace_ = nullptr;
    std::uint64_t counts_[numCases] = {};
};

} // namespace core

} // namespace profess

#endif // PROFESS_CORE_RSM_HH
