#include "core/profess.hh"

namespace profess
{

namespace core
{

policy::Decision
ProfessPolicy::onM2Access(const policy::AccessInfo &info)
{
    GuidanceCase c = guidance_.classify(info);
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
    guidance_.trace(info, c, d);
    return d;
}

void
ProfessPolicy::setTraceSink(telemetry::DecisionTraceSink *sink)
{
    guidance_.setTraceSink(sink);
    mdm_.setTraceSink(sink);
    rsm_.setTraceSink(sink);
}

void
ProfessPolicy::registerTelemetry(telemetry::StatRegistry &registry,
                                 const std::string &prefix)
{
    guidance_.registerTelemetry(registry, prefix + ".guidance");
    mdm_.registerTelemetry(registry, prefix + ".mdm");
    rsm_.registerTelemetry(registry, prefix + ".rsm");
}

} // namespace core

} // namespace profess
