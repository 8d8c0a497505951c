#include "core/rsm.hh"

#include <cmath>

#include "common/invariant.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "common/trace_sink.hh"

namespace profess
{

namespace core
{

Rsm::Rsm(const Params &p) : params_(p), progs_(p.numPrograms)
{
    fatal_if(p.numPrograms == 0, "RSM needs at least one program");
    fatal_if(p.numRegions <= p.numPrograms,
             "need more regions than programs");
    fatal_if(p.sampleRequests == 0, "Msamp must be positive");
    for (auto &st : progs_) {
        for (auto &sm : st.sm)
            sm = ExpSmoother(p.alpha);
        if (p.perRegionStats)
            st.perRegion.assign(p.numRegions, 0);
    }
}

Rsm::ProgState &
Rsm::state(ProgramId p)
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= progs_.size(),
             "bad program id %d", p);
    return progs_[static_cast<unsigned>(p)];
}

const Rsm::ProgState &
Rsm::state(ProgramId p) const
{
    panic_if(p < 0 || static_cast<unsigned>(p) >= progs_.size(),
             "bad program id %d", p);
    return progs_[static_cast<unsigned>(p)];
}

void
Rsm::onServed(ProgramId p, unsigned region, bool from_m1, Tick now)
{
    ProgState &st = state(p);
    if (region == static_cast<unsigned>(p)) {
        // The program's own private region.
        ++st.reqTotalP;
        if (from_m1)
            ++st.reqM1P;
    } else if (region < params_.numPrograms) {
        // Another program's private region: the OS never allocates
        // foreign frames there (Sec. 3.1.1).
        panic("request of program %d in private region %u", p,
              region);
    } else {
        ++st.reqTotalS;
        if (from_m1)
            ++st.reqM1S;
    }
    if (params_.perRegionStats)
        ++st.perRegion[region];

    if (++st.periodServed >= params_.sampleRequests)
        endPeriod(p, st, now);
}

void
Rsm::onSwap(ProgramId owner_promoted, ProgramId owner_demoted,
            bool private_region)
{
    if (private_region)
        return; // Sec. 3.1.2: swaps in private regions not counted
    bool self = owner_promoted == owner_demoted;
    if (owner_promoted != invalidProgram) {
        ProgState &st = state(owner_promoted);
        ++st.swapTotal;
        if (self)
            ++st.swapSelf;
    }
    if (owner_demoted != invalidProgram && !self) {
        ProgState &st = state(owner_demoted);
        ++st.swapTotal;
    }
}

void
Rsm::endPeriod(ProgramId p, ProgState &st, Tick now)
{
    // Exponential smoothing of the counters, each incremented by one
    // to avoid zeros (Sec. 3.1.3).
    double a_m1p = st.sm[0].add(static_cast<double>(st.reqM1P + 1));
    double a_totp =
        st.sm[1].add(static_cast<double>(st.reqTotalP + 1));
    double a_m1s = st.sm[2].add(static_cast<double>(st.reqM1S + 1));
    double a_tots =
        st.sm[3].add(static_cast<double>(st.reqTotalS + 1));
    double a_self =
        st.sm[4].add(static_cast<double>(st.swapSelf + 1));
    double a_total =
        st.sm[5].add(static_cast<double>(st.swapTotal + 1));

    // Pinned factors freeze here; the smoothers above keep running
    // so an unpin resumes from honestly accumulated history.
    if (!st.pinned) {
        st.sfA = (a_m1p / a_totp) / (a_m1s / a_tots);
        st.sfB = a_total / a_self; // 1 / (self / total)
    }

    if (params_.perRegionStats) {
        PeriodSample s;
        double raw_p =
            static_cast<double>(st.reqM1P + 1) /
            static_cast<double>(st.reqTotalP + 1);
        double raw_s =
            static_cast<double>(st.reqM1S + 1) /
            static_cast<double>(st.reqTotalS + 1);
        s.rawSfA = raw_p / raw_s;
        s.avgSfA = st.sfA;
        RunningStat rs;
        for (std::uint64_t c : st.perRegion)
            rs.add(static_cast<double>(c));
        s.reqStdPct = rs.mean() > 0.0
                          ? 100.0 * rs.stddev() / rs.mean()
                          : 0.0;
        st.hist.push_back(s);
        std::fill(st.perRegion.begin(), st.perRegion.end(), 0);
    }

    st.reqM1P = st.reqTotalP = 0;
    st.reqM1S = st.reqTotalS = 0;
    st.swapSelf = st.swapTotal = 0;
    st.periodServed = 0;
    ++st.periodCount;

    if (PROFESS_UNLIKELY(trace_ != nullptr)) {
        telemetry::TraceRecord r;
        r.tick = now;
        r.a = st.sfA;
        r.b = st.sfB;
        r.accessor = p;
        r.detail = static_cast<std::uint32_t>(st.periodCount);
        r.kind = static_cast<std::uint8_t>(
            telemetry::TraceKind::RsmPeriod);
        trace_->push(r);
    }
    PROFESS_AUDIT_ONLY(auditInvariants());
}

void
Rsm::pinFactors(ProgramId p, double sf_a, double sf_b)
{
    fatal_if(!(std::isfinite(sf_a) && sf_a > 0.0) ||
                 !(std::isfinite(sf_b) && sf_b >= 1.0),
             "pinned factors sf_a=%g sf_b=%g violate SF_A > 0, "
             "SF_B >= 1",
             sf_a, sf_b);
    ProgState &st = state(p);
    st.sfA = sf_a;
    st.sfB = sf_b;
    st.pinned = true;
}

void
Rsm::unpinFactors(ProgramId p)
{
    state(p).pinned = false;
}

void
Rsm::auditInvariants() const
{
    for (unsigned i = 0; i < progs_.size(); ++i) {
        const ProgState &st = progs_[i];
        profess_audit(std::isfinite(st.sfA) && st.sfA > 0.0,
                      "program %u SF_A = %g not finite/positive", i,
                      st.sfA);
        profess_audit(std::isfinite(st.sfB) &&
                          st.sfB >= 1.0 - 1e-9,
                      "program %u SF_B = %g below 1 (self swaps "
                      "cannot exceed total swaps)",
                      i, st.sfB);
        profess_audit(st.reqM1P <= st.reqTotalP &&
                          st.reqM1S <= st.reqTotalS,
                      "program %u M1 request counts exceed totals",
                      i);
        profess_audit(st.swapSelf <= st.swapTotal,
                      "program %u self swaps %llu exceed total %llu",
                      i,
                      static_cast<unsigned long long>(st.swapSelf),
                      static_cast<unsigned long long>(st.swapTotal));
        profess_audit(st.periodServed < params_.sampleRequests,
                      "program %u served counter %llu not below "
                      "Msamp %llu",
                      i,
                      static_cast<unsigned long long>(
                          st.periodServed),
                      static_cast<unsigned long long>(
                          params_.sampleRequests));
        profess_audit(st.periodServed ==
                          st.reqTotalP + st.reqTotalS,
                      "program %u served %llu disagrees with its "
                      "request counters",
                      i,
                      static_cast<unsigned long long>(
                          st.periodServed));
    }
}

void
Rsm::registerTelemetry(telemetry::StatRegistry &registry,
                       const std::string &prefix) const
{
    for (unsigned i = 0; i < progs_.size(); ++i) {
        std::string pp = prefix + ".p" + std::to_string(i);
        auto id = static_cast<ProgramId>(i);
        registry.addProbe(pp + ".sf_a",
                          [this, id]() { return sfA(id); });
        registry.addProbe(pp + ".sf_b",
                          [this, id]() { return sfB(id); });
        registry.addProbe(pp + ".periods", [this, id]() {
            return static_cast<double>(periods(id));
        });
    }
}

double
Rsm::sfA(ProgramId p) const
{
    return state(p).sfA;
}

double
Rsm::sfB(ProgramId p) const
{
    return state(p).sfB;
}

std::uint64_t
Rsm::periods(ProgramId p) const
{
    return state(p).periodCount;
}

const std::vector<Rsm::PeriodSample> &
Rsm::history(ProgramId p) const
{
    return state(p).hist;
}

const char *
Guidance::caseName(GuidanceCase c)
{
    switch (c) {
      case GuidanceCase::SameProgram:
        return "same_program";
      case GuidanceCase::Case1:
        return "case1";
      case GuidanceCase::Case2:
        return "case2";
      case GuidanceCase::Case3:
        return "case3";
      case GuidanceCase::Default:
        return "default";
      default:
        return "unknown";
    }
}

void
Guidance::registerTelemetry(telemetry::StatRegistry &registry,
                            const std::string &prefix) const
{
    for (unsigned i = 0; i < numCases; ++i) {
        registry.addCounter(
            prefix + "." + caseName(static_cast<GuidanceCase>(i)),
            counts_[i]);
    }
}

void
Guidance::record(const policy::AccessInfo &info, GuidanceCase c,
                 policy::Decision d) const
{
    telemetry::TraceRecord r;
    r.tick = info.now;
    r.group = info.group;
    r.a = rsm_.sfA(info.accessor);
    r.b = rsm_.sfB(info.accessor);
    r.accessor = info.accessor;
    r.m1Owner = info.m1Owner;
    r.detail = static_cast<std::uint32_t>(c);
    r.kind = static_cast<std::uint8_t>(
        telemetry::TraceKind::GuidanceCase);
    r.qI = info.meta->qacAtInsert[info.slot];
    r.swapped = d == policy::Decision::Swap ? 1 : 0;
    trace_->push(r);
}

} // namespace core

} // namespace profess
