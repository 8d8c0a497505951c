/**
 * @file
 * MDM as a standalone migration policy (Sec. 5.1, 5.3: "MDM"),
 * i.e., the probabilistic mechanism maximizing performance without
 * RSM's fairness guidance.
 */

#ifndef PROFESS_CORE_MDM_POLICY_HH
#define PROFESS_CORE_MDM_POLICY_HH

#include "core/mdm.hh"
#include "hybrid/layout.hh"
#include "os/page_allocator.hh"
#include "policy/policy.hh"

namespace profess
{

namespace core
{

/**
 * Fold a group's final access counts into MDM statistics at
 * ST-entry eviction, writing back the new QAC values (Sec. 3.2.1).
 * Shared by MdmPolicy and ProfessPolicy.
 */
void applyEvictionUpdates(Mdm &mdm, const hybrid::HybridLayout &layout,
                          const os::BlockOwnerOracle &oracle,
                          std::uint64_t group,
                          const hybrid::StcMeta &meta,
                          hybrid::StEntry &entry);

/** MDM-only policy. */
class MdmPolicy : public policy::MigrationPolicy
{
  public:
    MdmPolicy(const hybrid::HybridLayout &layout,
              const os::BlockOwnerOracle &oracle,
              const Mdm::Params &params)
        : layout_(layout), oracle_(oracle), mdm_(params)
    {
    }

    const char *name() const override { return "mdm"; }
    unsigned writeWeight() const override { return 8; }

    policy::Decision
    onM2Access(const policy::AccessInfo &info) override
    {
        return mdm_.decide(info, false);
    }

    void
    onStcEvict(std::uint64_t group, const hybrid::StcMeta &meta,
               hybrid::StEntry &entry) override
    {
        applyEvictionUpdates(mdm_, layout_, oracle_, group, meta,
                             entry);
    }

    Mdm *mdm() override { return &mdm_; }

    void
    setTraceSink(telemetry::DecisionTraceSink *sink) override
    {
        mdm_.setTraceSink(sink);
    }

    void
    registerTelemetry(telemetry::StatRegistry &registry,
                      const std::string &prefix) override
    {
        mdm_.registerTelemetry(registry, prefix + ".mdm");
    }

    /** Audit the prediction engine's Table 6 statistics. */
    void auditInvariants() const override
    {
        mdm_.auditInvariants();
    }

  private:
    const hybrid::HybridLayout &layout_;
    const os::BlockOwnerOracle &oracle_;
    Mdm mdm_;
};

} // namespace core

} // namespace profess

#endif // PROFESS_CORE_MDM_POLICY_HH
