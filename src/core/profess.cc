#include "core/profess.hh"

#include "common/telemetry.hh"
#include "common/trace_sink.hh"

namespace profess
{

namespace core
{

policy::Decision
ProfessPolicy::onM2Access(const policy::AccessInfo &info)
{
    GuidanceCase c = classify(info);
    ++caseCounts_[static_cast<unsigned>(c)];
    policy::Decision d = policy::Decision::NoSwap;
    switch (c) {
      case GuidanceCase::SameProgram:
      case GuidanceCase::Default:
        d = mdm_.decide(info, false);
        break;
      case GuidanceCase::Case1:
        // Help c2 as if it ran alone: ignore the M1 block, but
        // still consult MDM about the benefit (RSM is agnostic to
        // the M1/M2 characteristics, Sec. 3.3).
        d = mdm_.decide(info, true);
        break;
      case GuidanceCase::Case2:
      case GuidanceCase::Case3:
        d = policy::Decision::NoSwap;
        break;
    }
    if (PROFESS_UNLIKELY(trace_ != nullptr)) {
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
    return d;
}

const char *
ProfessPolicy::caseName(GuidanceCase c)
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
ProfessPolicy::setTraceSink(telemetry::DecisionTraceSink *sink)
{
    trace_ = sink;
    mdm_.setTraceSink(sink);
    rsm_.setTraceSink(sink);
}

void
ProfessPolicy::registerTelemetry(telemetry::StatRegistry &registry,
                                 const std::string &prefix)
{
    for (unsigned i = 0; i < 5; ++i) {
        registry.addCounter(
            prefix + ".guidance." +
                caseName(static_cast<GuidanceCase>(i)),
            caseCounts_[i]);
    }
    mdm_.registerTelemetry(registry, prefix + ".mdm");
    rsm_.registerTelemetry(registry, prefix + ".rsm");
}

} // namespace core

} // namespace profess
